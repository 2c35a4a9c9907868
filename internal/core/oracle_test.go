package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/petri"
	"repro/internal/registry"
)

type bottomInstance struct {
	name   string
	net    *petri.Net
	rho    conf.Config
	budget int // the MaxConfigs its experiment or test runs at
}

// bottomInstances returns E8's four instances, the protocols of the
// integration test's certificate check, and a pump net with a c ⇄ d
// shuffle whose bottom checks a starved SubBudget skips.
func bottomInstances(t testing.TB) []bottomInstance {
	t.Helper()
	var out []bottomInstance
	input := func(p *core.Protocol, x int64) conf.Config {
		return p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": x}))
	}
	for _, c := range []struct {
		name string
		mk   func(int64) (*core.Protocol, error)
		n, x int64
	}{
		{"E8/example42(x=3)", counting.Example42, 2, 3},
		{"E8/flock3(x=4)", counting.FlockOfBirds, 3, 4},
		{"E8/flock4(x=5)", counting.FlockOfBirds, 4, 5},
	} {
		p, err := c.mk(c.n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bottomInstance{c.name, p.Net(), input(p, c.x), 1 << 18})
	}
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	out = append(out, bottomInstance{"E8/pump(unbounded)",
		mustNet(t, space, mustTr(t, "pump", u("a"), u("a").Add(u("b")))), u("a"), 1 << 18})

	for _, c := range []struct {
		name     string
		param, x int64
	}{
		{"example41", 3, 4},
		{"example42", 2, 3},
		{"flock", 3, 4},
		{"power2", 2, 5},
	} {
		p, _, err := registry.Make(c.name, c.param)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bottomInstance{fmt.Sprintf("integration/%s(%d)x%d", c.name, c.param, c.x),
			p.Net(), input(p, c.x), 1 << 16})
	}

	space4 := conf.MustSpace("a", "b", "c", "d")
	u4 := func(n string) conf.Config { return conf.MustUnit(space4, n) }
	out = append(out, bottomInstance{"pumpShuffle", mustNet(t, space4,
		mustTr(t, "pump", u4("a"), u4("a").Add(u4("b"))),
		mustTr(t, "cd", u4("c"), u4("d")),
		mustTr(t, "dc", u4("d"), u4("c")),
	), u4("a").Add(u4("c").Scale(2)), 1 << 12})
	return out
}

func mustNet(t testing.TB, space *conf.Space, trs ...petri.Transition) *petri.Net {
	t.Helper()
	n, err := petri.New(space, trs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustTr(t testing.TB, name string, pre, post conf.Config) petri.Transition {
	t.Helper()
	tr, err := petri.NewTransition(name, pre, post)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// assertSameAsReference runs ReachBottom and the eager reference on
// one input and requires the identical certificate and error text.
func assertSameAsReference(t testing.TB, net *petri.Net, rho conf.Config, opts core.ReachBottomOptions) {
	t.Helper()
	got, gotErr := core.ReachBottom(net, rho, opts)
	want, wantErr := core.ReferenceReachBottom(net, rho, opts)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("err = %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("certificate %+v, reference %+v", got, want)
	}
}

// ReachBottom grows its top-level closure lazily; the certificate and
// the error must still be exactly those of the eager search, on every
// instance and under every option that changes where the closure, the
// candidate loop or the sub-closures stop. Every grid point runs at
// two worker counts: Budget.Workers sizes verify's input pool and must
// not change the search.
func TestReachBottomMatchesReference(t *testing.T) {
	for _, in := range bottomInstances(t) {
		grid := map[string]core.ReachBottomOptions{
			"own":           {Budget: petri.Budget{MaxConfigs: in.budget}},
			"budget1":       {Budget: petri.Budget{MaxConfigs: 1}},
			"budget64":      {Budget: petri.Budget{MaxConfigs: 64}},
			"maxDepth2":     {Budget: petri.Budget{MaxConfigs: 1 << 12, MaxDepth: 2}},
			"maxDepth5":     {Budget: petri.Budget{MaxConfigs: 1 << 12, MaxDepth: 5}},
			"maxAgents":     {Budget: petri.Budget{MaxConfigs: 1 << 12, MaxAgents: in.rho.Agents() + 2}},
			"candidates1":   {Budget: petri.Budget{MaxConfigs: 64}, MaxCandidates: 1},
			"candidates3":   {Budget: petri.Budget{MaxConfigs: 64}, MaxCandidates: 3},
			"starvedSub":    {Budget: petri.Budget{MaxConfigs: 64}, SubBudget: petri.Budget{MaxConfigs: 2}},
			"pumpDepth1":    {Budget: petri.Budget{MaxConfigs: 64}, PumpDepth: 1},
			"depthAndAgent": {Budget: petri.Budget{MaxConfigs: 1 << 12, MaxDepth: 4, MaxAgents: in.rho.Agents() + 1}},
		}
		for gname, opts := range grid {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/w%d", in.name, gname, workers), func(t *testing.T) {
					opts := opts
					opts.Budget.Workers = workers
					if opts.SubBudget != (petri.Budget{}) {
						opts.SubBudget.Workers = workers
					}
					assertSameAsReference(t, in.net, in.rho, opts)
				})
			}
		}
	}
}

// FuzzReachBottom decodes its bytes into a net of at most 4 states and
// 4 transitions, an initial configuration and small budgets, and
// requires ReachBottom to agree with the eager reference.
func FuzzReachBottom(f *testing.F) {
	// Byte layout: states−1, transitions, then per transition the pre
	// and post counts, then ρ, MaxConfigs−1, MaxDepth, MaxAgents,
	// Workers−1, SubBudget.MaxConfigs, PumpDepth, MaxCandidates.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 1, 0, 63, 0, 0, 0, 0, 0, 0}) // pump: a → a + b
	f.Add([]byte{1, 1, 1, 0, 1, 1, 1, 0, 40, 3, 5, 1, 0, 1, 2}) // pump under depth and agent caps
	f.Add([]byte{3, 3,                                          // pump beside a c ⇄ d shuffle, starved SubBudget
		1, 0, 0, 0, 1, 1, 0, 0,
		0, 0, 1, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 1, 0,
		1, 0, 2, 0, 63, 0, 0, 1, 2, 0, 0})
	f.Add([]byte{3, 4, // conservative chain a → b → c ⇄ d
		1, 0, 0, 0, 0, 1, 0, 0,
		0, 1, 0, 0, 0, 0, 1, 0,
		0, 0, 1, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 1, 0,
		2, 0, 0, 0, 63, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		d := 1 + next()%4
		names := []string{"a", "b", "c", "d"}[:d]
		space := conf.MustSpace(names...)
		vec := func(max int) conf.Config {
			counts := make([]int64, d)
			for i := range counts {
				counts[i] = int64(next() % max)
			}
			c, err := conf.FromSlice(space, counts)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		nt := next() % 5
		trs := make([]petri.Transition, nt)
		for i := range trs {
			trs[i] = mustTr(t, fmt.Sprintf("t%d", i), vec(3), vec(3))
		}
		net := mustNet(t, space, trs...)
		rho := vec(4)
		opts := core.ReachBottomOptions{
			Budget: petri.Budget{
				MaxConfigs: 1 + next()%64,
				MaxDepth:   next() % 6,
				MaxAgents:  int64(next() % 8),
				Workers:    1 + next()%2,
			},
			SubBudget:     petri.Budget{MaxConfigs: next() % 32},
			PumpDepth:     next() % 6,
			MaxCandidates: next() % 8,
		}
		assertSameAsReference(t, net, rho, opts)
	})
}
