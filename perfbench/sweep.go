package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/shard"
	"repro/internal/sim"
)

// Sweep job classes. weighted jobs run small populations on the
// per-interaction Fenwick sampler; countbatch and auto jobs run
// populations of 10⁶–10⁸ agents where multinomial draws dominate.
var sweepClasses = []string{"weighted", "countbatch", "auto"}

// sweepWeights is the stratified mix: copies of each class per block.
// Three quarters of the jobs are weighted, so the median job latency
// falls inside that class rather than on a class boundary.
var sweepWeights = []int{6, 1, 1}

// sweepJob is one sweep: a spec planned into 2 shards at a trial block.
type sweepJob struct {
	class string
	sw    shard.SweepSpec
	block int
}

// classStats accumulates one class's traced sampler work.
type classStats struct {
	run          time.Duration
	steps        int64
	trials, jobs int
}

type sweepWL struct {
	seed   int64
	stream *blockStream

	// samples are jobs whose 2-shard merge is re-checked against a
	// 1-shard merge after the timed phase.
	samples []sweepSample

	// Traced-phase accumulators.
	class     map[string]*classStats
	imbalance []float64
}

type sweepSample struct {
	job    sweepJob
	merged []byte
}

const (
	sampleEvery = 7
	maxSamples  = 3
)

func newSweep(seed int64) *sweepWL {
	return &sweepWL{seed: seed, class: map[string]*classStats{}}
}

func (s *sweepWL) clients() int { return 1 }

// window is sixteen blocks of the job stream: about a third of a second.
func (s *sweepWL) window() int64 { return 16 * int64(len(s.stream.block)) }

func (s *sweepWL) setup() error {
	s.stream = newBlockStream(s.seed, sweepWeights)
	// Warm two jobs of each class: plans, protocol builds and sampler
	// tables are lazily built on first use. The warm jobs are the same
	// for every seed, so setup_s times the code, not the draw.
	for seq := int64(0); seq < 2*int64(len(sweepClasses)); seq++ {
		j := jobOf(0, seq%int64(len(sweepClasses)), seq)
		if _, _, err := s.run(j, nil, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

func (s *sweepWL) job(seq int64) sweepJob { return jobOf(s.seed, int64(s.stream.at(seq)), seq) }

// jobOf draws the parameters of job seq of a class from the seed.
func jobOf(seed, class, seq int64) sweepJob {
	r := opRand(seed, seq)
	if class == 0 {
		proto, param := "flock", 4+r.Int64N(5)
		if r.IntN(2) == 1 {
			proto, param = "power2", 3+r.Int64N(3)
		}
		a := 16 + r.Int64N(497)
		b := 16 + r.Int64N(496)
		if b >= a {
			b++
		}
		return sweepJob{class: "weighted", block: 2, sw: shard.SweepSpec{
			Protocol: proto, Param: param, InputState: "i", Sizes: []int64{a, b},
			Trials: 8, Seed: 1 + r.Int64N(1<<40), MaxSteps: 1 << 24,
		}}
	}
	sched := sweepClasses[class]
	var proto string
	var param int64
	switch r.IntN(3) {
	case 0:
		proto, param = "flock", 8
	case 1:
		proto, param = "example42", 4
	default:
		proto, param = "power2", 20+r.Int64N(7)
	}
	x := int64(math.Exp(math.Log(1e6) + r.Float64()*math.Log(100)))
	return sweepJob{class: sched, block: 1, sw: shard.SweepSpec{
		Protocol: proto, Param: param, InputState: "i", Sizes: []int64{x},
		Trials: 2, Seed: 1 + r.Int64N(1<<40), MaxSteps: math.MaxInt32, Scheduler: sched,
	}}
}

func (s *sweepWL) begin(*tracer) error { return nil }

func (s *sweepWL) op(_ int, seq int64, tr *tracer) opResult {
	j := s.job(seq)
	root := tr.begin(seq, 0, "sweep.job")
	t0 := time.Now()
	res, arts, err := s.run(j, tr, root, seq)
	lat := time.Since(t0)
	tr.end(root, res.steps)
	if err == nil && seq%sampleEvery == 0 && len(s.samples) < maxSamples {
		s.samples = append(s.samples, sweepSample{j, res.merged})
	}
	if err == nil && tr != nil {
		c := s.class[j.class]
		if c == nil {
			c = &classStats{}
			s.class[j.class] = c
		}
		c.run += res.run
		c.steps += res.steps
		c.trials += res.trials
		c.jobs++
		s.imbalance = append(s.imbalance, res.imbalance)
		err = s.probe(j, arts, tr, seq)
	}
	return opResult{lat: lat, kind: j.class, work: res.steps, err: err}
}

type sweepRun struct {
	merged    []byte
	run       time.Duration
	steps     int64
	trials    int
	imbalance float64
}

// run plans j into 2 shards, runs both in-process, folds them with
// Merge and MergePartial, and checks the outputs: equal bytes from
// both merges, and every trial converged to the correct answer.
func (s *sweepWL) run(j sweepJob, tr *tracer, root int32, seq int64) (sweepRun, []*shard.Artifact, error) {
	var res sweepRun
	fail := func(what string, err error) (sweepRun, []*shard.Artifact, error) {
		return res, nil, fmt.Errorf("sweep %s %s(%d) sizes %v: %s: %w", j.class, j.sw.Protocol, j.sw.Param, j.sw.Sizes, what, err)
	}
	model := shard.DefaultCost(j.sw.Scheduler)
	id := tr.begin(seq, root, "shard.plan")
	m, err := shard.PlanCostBlock(j.sw, 2, model, j.block)
	tr.end(id, 0)
	if err != nil {
		return fail("plan", err)
	}
	arts := make([]*shard.Artifact, 0, len(m.Shards))
	for _, sp := range m.Shards {
		id := tr.begin(seq, root, "shard.run")
		a, err := shard.Run(context.Background(), m, sp.ID, 0)
		res.run += tr.end(id, 0)
		if err != nil {
			return fail("run", err)
		}
		arts = append(arts, a)
	}
	id = tr.begin(seq, root, "shard.merge")
	merged, err := shard.Merge(arts)
	tr.end(id, 0)
	if err != nil {
		return fail("merge", err)
	}
	id = tr.begin(seq, root, "shard.merge_partial")
	sw, pts, err := shard.CollectPartial(arts, nil)
	var anytime *shard.AnytimeMerged
	if err == nil {
		anytime, err = shard.MergePartial(sw, pts, sim.StopRule{})
	}
	tr.end(id, 0)
	if err != nil {
		return fail("merge partial", err)
	}
	if res.merged, err = json.Marshal(merged); err != nil {
		return fail("marshal", err)
	}
	partial, err := json.Marshal(anytime)
	if err != nil {
		return fail("marshal", err)
	}
	if !bytes.Equal(res.merged, partial) {
		return fail("check", fmt.Errorf("MergePartial bytes differ from Merge bytes"))
	}
	for _, pt := range merged.Points {
		st := pt.Stats
		if st.Trials != j.sw.Trials || st.Converged != st.Trials || st.Correct != st.Trials {
			return fail("check", fmt.Errorf("x=%d: %d/%d correct of %d converged", pt.X, st.Correct, st.Trials, st.Converged))
		}
		res.steps += st.SumSteps
		res.trials += st.Trials
	}
	if tr != nil {
		res.imbalance = m.Imbalance(model)
	}
	return res, arts, nil
}

// probe times the shard cell codec on the job's own cells and the two
// samplers' inner operations at the job's protocol and size.
func (s *sweepWL) probe(j sweepJob, arts []*shard.Artifact, tr *tracer, seq int64) error {
	root := tr.begin(seq, 0, "sweep.probe")
	defer tr.end(root, 0)
	for _, a := range arts {
		for _, pt := range a.Points {
			ca := &shard.CellArtifact{
				Schema: shard.ArtifactSchema, Sweep: a.Sweep, Host: a.Host, Stats: pt.Stats,
				Cell: shard.Cell{X: pt.X, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi},
			}
			id := tr.begin(seq, root, "shard.cell_seal")
			line, err := shard.SealCellLine(ca)
			tr.end(id, int64(len(line)))
			if err != nil {
				return err
			}
			id = tr.begin(seq, root, "shard.cell_decode")
			back, err := shard.DecodeCellLine(line)
			tr.end(id, int64(len(line)))
			if err != nil {
				return err
			}
			if back.Stats != pt.Stats {
				return fmt.Errorf("cell x=%d [%d,%d): decoded stats differ", pt.X, pt.TrialLo, pt.TrialHi)
			}
		}
	}

	p, _, err := j.sw.Build()
	if err != nil {
		return err
	}
	x := j.sw.Sizes[0]
	in, err := p.Input(map[string]int64{j.sw.InputState: x})
	if err != nil {
		return err
	}
	st := sim.NewState(p)
	if err := st.Reset(in); err != nil {
		return err
	}
	rng := sim.NewRNG(j.sw.Seed)
	if j.class == "weighted" {
		const n = 20000
		id := tr.begin(seq, root, "sim.sample_fire")
		for i := 0; i < n; i++ {
			ti, ok := st.Sample(rng)
			if !ok {
				// Deadlocked: the run is over; start it again.
				if err := st.Reset(in); err != nil {
					return err
				}
				continue
			}
			st.Fire(ti)
		}
		tr.end(id, n)
		return nil
	}
	weights := make([]float64, p.Net().Len())
	for ti := range weights {
		weights[ti] = st.Weight(ti)
	}
	out := make([]int64, len(weights))
	const n = 2000
	id := tr.begin(seq, root, "sim.multinomial")
	for i := 0; i < n; i++ {
		rng.Multinomial(x/16, weights, out)
	}
	tr.end(id, n)
	return nil
}

// finish re-runs the sampled jobs as 1-shard plans: the merged bytes
// must equal the 2-shard merge byte for byte.
func (s *sweepWL) finish() (int, []string) {
	var fails []string
	for _, smp := range s.samples {
		j := smp.job
		m, err := shard.PlanCostBlock(j.sw, 1, shard.DefaultCost(j.sw.Scheduler), j.block)
		var a *shard.Artifact
		if err == nil {
			a, err = shard.Run(context.Background(), m, m.Shards[0].ID, 0)
		}
		var merged *shard.Merged
		if err == nil {
			merged, err = shard.Merge([]*shard.Artifact{a})
		}
		var one []byte
		if err == nil {
			one, err = json.Marshal(merged)
		}
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("sweep 1-shard re-run of %s %v: %v", j.sw.Protocol, j.sw.Sizes, err))
		case !bytes.Equal(one, smp.merged):
			fails = append(fails, fmt.Sprintf("sweep %s %v: 1-shard merge differs from the 2-shard merge", j.sw.Protocol, j.sw.Sizes))
		}
	}
	return len(s.samples), fails
}

func (s *sweepWL) extra(phase) map[string]metric { return map[string]metric{} }

func (s *sweepWL) layers(tr *tracer) map[string]metric {
	sums := summarize(tr.snapshot())
	jobs := sums["sweep.job"].count
	out := map[string]metric{}
	var steps int64
	var trials int
	for _, c := range sweepClasses {
		cs := s.class[c]
		if cs == nil {
			cs = &classStats{}
		}
		out["sim."+c+".ns_per_interaction"] = metric{float64(cs.run) / float64(max(cs.steps, 1)), "ns", cs.jobs}
		steps += cs.steps
		trials += cs.trials
	}
	out["sim.interactions"] = metric{float64(steps), "count", jobs}
	out["sim.trials"] = metric{float64(trials), "count", jobs}
	out["sim.sample_fire_ns"] = perItem(sums, "sim.sample_fire")
	out["sim.multinomial_ns"] = perItem(sums, "sim.multinomial")
	out["shard.plan_ms"] = metric{sums["shard.plan"].meanMs(), "ms", sums["shard.plan"].count}
	out["shard.run_s"] = metric{sums["shard.run"].total.Seconds() / float64(max(jobs, 1)), "s", jobs}
	out["shard.merge_ms"] = metric{sums["shard.merge"].meanMs(), "ms", sums["shard.merge"].count}
	out["shard.merge_partial_ms"] = metric{sums["shard.merge_partial"].meanMs(), "ms", sums["shard.merge_partial"].count}
	out["shard.imbalance"] = metric{mean(s.imbalance), "ratio", len(s.imbalance)}
	out["shard.cell_seal_us"] = metric{sums["shard.cell_seal"].meanUs(), "us", sums["shard.cell_seal"].count}
	out["shard.cell_decode_us"] = metric{sums["shard.cell_decode"].meanUs(), "us", sums["shard.cell_decode"].count}
	return out
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

func (s *sweepWL) close() {}
