package sim

import (
	"math"

	"repro/internal/core"
)

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

// referenceBinomial is Binomial over the samplers it was first written
// with, kept only as the differential oracle for the lazy ones:
// referenceBinomialInv evaluates f(0) = (1−p)ⁿ before drawing u, and
// referenceBTRS computes the log-density constants up front. Binomial
// must return the same k and consume the same draws for every input.
func referenceBinomial(r *RNG, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - referenceBinomial(r, n, 1-p)
	}
	if float64(n)*p < btrsCutoff {
		return referenceBinomialInv(r, n, p)
	}
	return referenceBTRS(r, n, p)
}

func referenceBinomialInv(r *RNG, n int64, p float64) int64 {
	q := 1 - p
	ratio := p / q
	f := math.Exp(float64(n) * math.Log1p(-p)) // (1−p)^n
	limit := int64(float64(n)*p + 60*math.Sqrt(float64(n)*p*q) + 100)
	if limit > n {
		limit = n
	}
	u := r.Float64()
	var k int64
	for u >= f && k < limit {
		u -= f
		f *= ratio * float64(n-k) / float64(k+1)
		k++
	}
	return k
}

func referenceBTRS(r *RNG, n int64, p float64) int64 {
	fn := float64(n)
	q := 1 - p
	spq := math.Sqrt(fn * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := fn*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	m := math.Floor((fn + 1) * p)
	h := lgamma(m+1) + lgamma(fn-m+1)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || k > fn {
			continue
		}
		if math.Log(v*alpha/(a/(us*us)+b)) <= h-lgamma(k+1)-lgamma(fn-k+1)+(k-m)*lpq {
			return int64(k)
		}
	}
}
