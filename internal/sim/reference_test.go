package sim

import "repro/internal/core"

// referenceSweepCells is the serial definition of a sweep over cells,
// kept only as the differential oracle for the trial pool: every trial
// runs alone through Run, on a fresh engine, with its positional seed
// DeriveSeed(DeriveSeedK(seed, x), t), and is observed in plan order.
// SweepCells must deliver exactly these Stats for every worker count.
func referenceSweepCells(p *core.Protocol, inputState string, cells []Cell, expected func(x int64) bool, opts Options) ([]Stats, error) {
	out := make([]Stats, len(cells))
	for i, c := range cells {
		input, err := p.Input(map[string]int64{inputState: c.X})
		if err != nil {
			return nil, err
		}
		o := opts
		for t := c.TrialLo; t < c.TrialHi; t++ {
			o.Seed = DeriveSeed(DeriveSeedK(opts.Seed, c.X), t)
			res, err := Run(p, input, o)
			if err != nil {
				return nil, err
			}
			out[i].Observe(res, expected(c.X))
		}
	}
	return out, nil
}
