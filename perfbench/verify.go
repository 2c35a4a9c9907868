package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/petri"
	"repro/internal/verify"
)

// verifyInstance is one job of the verify workload: a verify.Counting
// range at one of E4's sizes, or a core.ReachBottom search on one of
// E8's instances. The pinned figures are exact closure sizes and
// certificate shapes; every job's output is checked against them.
type verifyInstance struct {
	name   string
	weight int // copies per stratified block of the job stream

	// Counting jobs.
	p       *core.Protocol
	n, maxX int64
	// Bottom jobs.
	net *petri.Net
	rho conf.Config

	// nodes is the closure size a job explores: Σ over inputs for a
	// counting range, the top-level forward closure for a bottom search.
	nodes int
	// maxConfigs pins a counting range's largest closure; cert pins a
	// bottom certificate's |σ|, |w| and component size.
	maxConfigs int
	cert       [3]int
}

var (
	countingBudget = petri.Budget{MaxConfigs: 1 << 20}
	bottomBudget   = petri.Budget{MaxConfigs: 1 << 18}
)

type verifyWL struct {
	seed      int64
	instances []*verifyInstance
	stream    *blockStream
	edges     int64 // closure edges seen by traced probes
}

func newVerify(seed int64) *verifyWL { return &verifyWL{seed: seed} }

func (v *verifyWL) clients() int { return 1 }

// window is four blocks of the job stream: about a third of a second.
func (v *verifyWL) window() int64 { return 4 * int64(len(v.stream.block)) }

func (v *verifyWL) setup() error {
	type countingCase struct {
		name       string
		mk         func(int64) (*core.Protocol, error)
		param, n   int64
		maxX       int64
		weight     int
		nodes, max int
	}
	for _, c := range []countingCase{
		{"counting/example42(2)", counting.Example42, 2, 2, 6, 2, 51, 9},
		{"counting/example42(3)", counting.Example42, 3, 3, 7, 2, 135, 23},
		{"counting/flock(4)", counting.FlockOfBirds, 4, 4, 7, 2, 88, 39},
		{"counting/flock(5)", counting.FlockOfBirds, 5, 5, 8, 2, 125, 54},
		{"counting/power2(3)", counting.PowerOfTwo, 3, 8, 10, 2, 107, 42},
	} {
		p, err := c.mk(c.param)
		if err != nil {
			return err
		}
		v.instances = append(v.instances, &verifyInstance{
			name: c.name, weight: c.weight, p: p, n: c.n, maxX: c.maxX,
			nodes: c.nodes, maxConfigs: c.max,
		})
	}

	type bottomCase struct {
		name   string
		build  func() (*petri.Net, conf.Config, error)
		weight int
		nodes  int
		cert   [3]int
	}
	protocolCase := func(mk func() (*core.Protocol, error), x int64) func() (*petri.Net, conf.Config, error) {
		return func() (*petri.Net, conf.Config, error) {
			p, err := mk()
			if err != nil {
				return nil, conf.Config{}, err
			}
			return p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": x})), nil
		}
	}
	for _, c := range []bottomCase{
		{"bottom/example42(x=3)", protocolCase(func() (*core.Protocol, error) { return counting.Example42(2) }, 3), 1, 9, [3]int{2, 0, 1}},
		{"bottom/pump(unbounded)", pumpNet, 1, 1 << 18, [3]int{0, 1, 1}},
		{"bottom/flock3(x=4)", protocolCase(func() (*core.Protocol, error) { return counting.FlockOfBirds(3) }, 4), 1, 8, [3]int{4, 0, 1}},
		{"bottom/flock4(x=5)", protocolCase(func() (*core.Protocol, error) { return counting.FlockOfBirds(4) }, 5), 1, 12, [3]int{6, 0, 1}},
	} {
		net, rho, err := c.build()
		if err != nil {
			return err
		}
		v.instances = append(v.instances, &verifyInstance{
			name: c.name, weight: c.weight, net: net, rho: rho, nodes: c.nodes, cert: c.cert,
		})
	}

	weights := make([]int, len(v.instances))
	for i, in := range v.instances {
		weights[i] = in.weight
	}
	v.stream = newBlockStream(v.seed, weights)

	// Warm every instance once, checking it against its pins, so the
	// timed phase starts with caches filled and lazy set-up done.
	var errs []error
	for _, in := range v.instances {
		if in.net != nil {
			rs, err := in.net.Reach(in.rho, bottomBudget)
			if rs == nil {
				return fmt.Errorf("%s: %w", in.name, err)
			}
			got := rs.Len()
			rs.Release()
			if got != in.nodes {
				errs = append(errs, fmt.Errorf("%s: top-level closure has %d nodes, pinned %d", in.name, got, in.nodes))
			}
		}
		if _, err := v.run(in, nil, 0, 0); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// pumpNet is E8's unbounded instance: a → a + b.
func pumpNet() (*petri.Net, conf.Config, error) {
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	pump, err := petri.NewTransition("pump", u("a"), u("a").Add(u("b")))
	if err != nil {
		return nil, conf.Config{}, err
	}
	net, err := petri.New(space, []petri.Transition{pump})
	if err != nil {
		return nil, conf.Config{}, err
	}
	return net, u("a"), nil
}

func (v *verifyWL) begin(*tracer) error { return nil }

func (v *verifyWL) op(_ int, seq int64, tr *tracer) opResult {
	in := v.instances[v.stream.at(seq)]
	job := tr.begin(seq, 0, "verify.job")
	t0 := time.Now()
	nodes, err := v.run(in, tr, job, seq)
	lat := time.Since(t0)
	tr.end(job, int64(nodes))
	if tr != nil && err == nil {
		err = v.probe(in, tr, seq)
	}
	return opResult{lat: lat, kind: in.name, work: int64(nodes), err: err}
}

// run executes one job and checks its output against the pins.
func (v *verifyWL) run(in *verifyInstance, tr *tracer, job int32, seq int64) (int, error) {
	if in.p != nil {
		id := tr.begin(seq, job, "verify.counting")
		res, err := verify.Counting(in.p, "i", in.n, in.maxX, countingBudget)
		if err != nil {
			tr.end(id, 0)
			return 0, fmt.Errorf("%s: %w", in.name, err)
		}
		nodes := 0
		for _, r := range res.Reports {
			nodes += r.Configs
		}
		tr.end(id, int64(nodes))
		switch {
		case !res.OK():
			return 0, fmt.Errorf("%s: verdict not OK at input %v", in.name, res.FirstFailure().Input)
		case nodes != in.nodes || res.MaxConfigs != in.maxConfigs:
			return 0, fmt.Errorf("%s: closures total %d (max %d), pinned %d (max %d)",
				in.name, nodes, res.MaxConfigs, in.nodes, in.maxConfigs)
		}
		return nodes, nil
	}
	id := tr.begin(seq, job, "core.reach_bottom")
	cert, err := core.ReachBottom(in.net, in.rho, core.ReachBottomOptions{Budget: bottomBudget})
	tr.end(id, int64(in.nodes))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", in.name, err)
	}
	if got := [3]int{len(cert.Sigma), len(cert.W), cert.ComponentSize}; got != in.cert {
		return 0, fmt.Errorf("%s: certificate (|σ|, |w|, component) = %v, pinned %v", in.name, got, in.cert)
	}
	return in.nodes, nil
}

// probe replays the job's closures through the closure engine's public
// layers — petri Reach, the CSR reverse, SCC and reachability passes,
// and CountSet insert/lookup over the closure's own members — each in
// its own span. It runs after the job's timed part.
func (v *verifyWL) probe(in *verifyInstance, tr *tracer, seq int64) error {
	root := tr.begin(seq, 0, "verify.probe")
	defer tr.end(root, 0)
	type closure struct {
		net  *petri.Net
		from conf.Config
		bad  func(conf.Config) bool
	}
	var cs []closure
	if in.p != nil {
		for x := int64(0); x <= in.maxX; x++ {
			expected := x >= in.n
			cs = append(cs, closure{
				net:  in.p.Net(),
				from: in.p.InitialConfig(conf.MustFromMap(in.p.Space(), map[string]int64{"i": x})),
				bad: func(c conf.Config) bool {
					out := in.p.OutputOf(c)
					if expected {
						return out != core.Set1
					}
					return out&(core.SetStar|core.Set1) != 0
				},
			})
		}
	} else {
		cs = append(cs, closure{net: in.net, from: in.rho})
	}
	budget := countingBudget
	if in.p == nil {
		budget = bottomBudget
	}
	for i, c := range cs {
		id := tr.begin(seq, root, "petri.reach")
		rs, err := c.net.Reach(c.from, budget)
		if rs == nil {
			tr.end(id, 0)
			return fmt.Errorf("%s probe: %w", in.name, err)
		}
		if err != nil && (in.p != nil || !errors.Is(err, petri.ErrBudget)) {
			rs.Release()
			tr.end(id, 0)
			return fmt.Errorf("%s probe: %w", in.name, err)
		}
		tr.end(id, int64(rs.Len()))
		v.edges += int64(rs.NumEdges())

		csr := rs.CSR()
		id = tr.begin(seq, root, "graph.reverse")
		radj := csr.Reverse()
		tr.end(id, int64(rs.NumEdges()))

		sources := []int{rs.Len() - 1}
		if c.bad != nil {
			sources = sources[:0]
			for n := 0; n < rs.Len(); n++ {
				if c.bad(rs.Config(n)) {
					sources = append(sources, n)
				}
			}
		}
		id = tr.begin(seq, root, "graph.reachable")
		graph.ReachableFrom(radj, sources, nil)
		tr.end(id, int64(rs.Len()))

		id = tr.begin(seq, root, "graph.scc")
		graph.SCCOf(csr)
		tr.end(id, int64(rs.Len()))

		if i == len(cs)-1 {
			if err := countSetProbe(rs, tr, seq, root); err != nil {
				rs.Release()
				return fmt.Errorf("%s probe: %w", in.name, err)
			}
		}
		rs.Release()
	}
	return nil
}

// countSetProbe inserts every member of the closure into a fresh
// CountSet and looks every member up again.
func countSetProbe(rs *petri.ReachSet, tr *tracer, seq int64, parent int32) error {
	members := make([][]int64, rs.Len())
	width := 0
	for id := range members {
		members[id] = rs.Config(id).RawCounts()
		width = len(members[id])
	}
	set := conf.NewCountSet(width, len(members))
	id := tr.begin(seq, parent, "conf.countset.insert")
	for _, m := range members {
		set.Insert(m)
	}
	tr.end(id, int64(len(members)))
	id = tr.begin(seq, parent, "conf.countset.lookup")
	found := 0
	for _, m := range members {
		if _, ok := set.Lookup(m); ok {
			found++
		}
	}
	tr.end(id, int64(len(members)))
	if found != len(members) || set.Len() != len(members) {
		return fmt.Errorf("countset probe: %d of %d members found, set holds %d", found, len(members), set.Len())
	}
	return nil
}

func (v *verifyWL) finish() (int, []string) { return 0, nil }

func (v *verifyWL) extra(ph phase) map[string]metric {
	var nodes int64
	for _, o := range ph.ops {
		nodes += o.work
	}
	return map[string]metric{"closure_nodes_per_s": {float64(nodes) / ph.scaled.Seconds(), "1/s", len(ph.ops)}}
}

func (v *verifyWL) layers(tr *tracer) map[string]metric {
	s := summarize(tr.snapshot())
	jobs := s["verify.job"].count
	perJob := func(name string) metric {
		return metric{ms(s[name].total) / float64(max(jobs, 1)), "ms", s[name].count}
	}
	reach := s["petri.reach"]
	return map[string]metric{
		"verify.counting_ms":      {s["verify.counting"].meanMs(), "ms", s["verify.counting"].count},
		"core.reach_bottom_ms":    {s["core.reach_bottom"].meanMs(), "ms", s["core.reach_bottom"].count},
		"petri.reach_ms":          perJob("petri.reach"),
		"petri.nodes_per_s":       {float64(reach.n) / max(reach.total.Seconds(), 1e-9), "1/s", reach.count},
		"petri.closure_nodes":     {float64(reach.n) / float64(max(jobs, 1)), "count", jobs},
		"petri.closure_edges":     {float64(v.edges) / float64(max(jobs, 1)), "count", jobs},
		"graph.reverse_ms":        perJob("graph.reverse"),
		"graph.reachable_ms":      perJob("graph.reachable"),
		"graph.scc_ms":            perJob("graph.scc"),
		"conf.countset.insert_ns": perItem(s, "conf.countset.insert"),
		"conf.countset.lookup_ns": perItem(s, "conf.countset.lookup"),
	}
}

func (v *verifyWL) close() {}
