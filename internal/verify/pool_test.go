package verify

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/petri"
)

// ring is a protocol whose agents walk a cycle of k states, outputs
// alternating along it: from x agents every one of the C(x+k−1, k−1)
// configurations is reachable, and none is output-stable once x > 0,
// so its counterexample is the initial configuration.
func ring(t *testing.T, k int) *core.Protocol {
	t.Helper()
	names := make([]string, k)
	for j := range names {
		names[j] = fmt.Sprintf("s%d", j)
	}
	names[0] = "i"
	space := conf.MustSpace(names...)
	outputs := make(map[string]core.Output, k)
	var ts []petri.Transition
	for j, name := range names {
		outputs[name] = core.Out0
		if j%2 == 0 {
			outputs[name] = core.Out1
		}
		next := names[(j+1)%k]
		tr, err := petri.NewTransition(name+next, conf.MustUnit(space, name), conf.MustUnit(space, next))
		if err != nil {
			t.Fatalf("transition: %v", err)
		}
		ts = append(ts, tr)
	}
	net, err := petri.New(space, ts)
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	p, err := core.NewProtocol(fmt.Sprintf("ring%d", k), net, conf.New(space), []string{"i"}, outputs)
	if err != nil {
		t.Fatalf("NewProtocol: %v", err)
	}
	return p
}

// freshReports checks every input of a range, in Range's enumeration
// order, each on a zero workspace of its own: the reports no pooled
// storage has touched.
func freshReports(t *testing.T, p *core.Protocol, pred Predicate, minTotal, maxTotal int64) []Report {
	t.Helper()
	inputSpace, err := conf.NewSpace(p.InitialStates()...)
	if err != nil {
		t.Fatal(err)
	}
	var out []Report
	for total := minTotal; total <= maxTotal; total++ {
		err := conf.EnumerateTotal(inputSpace, total, func(c conf.Config) bool {
			embedded, err := c.Embed(p.Space())
			if err != nil {
				t.Fatal(err)
			}
			var r Report
			if err := check(context.Background(), p, embedded, pred, budget, &workspace{}, &r); err != nil {
				t.Fatalf("check(%v): %v", embedded, err)
			}
			out = append(out, r)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// poolCase is a range against φ_{i≥n}: a Counting call when it starts
// at 0 agents.
type poolCase struct {
	name        string
	p           *core.Protocol
	n, min, max int64
}

func (c poolCase) run() (*RangeResult, error) {
	if c.min == 0 {
		return Counting(c.p, "i", c.n, c.max, budget)
	}
	return Range(context.Background(), c.p, CountingPredicate("i", c.n), c.min, c.max, budget, 0)
}

// runPoolCase runs one range on the pooled workspaces and compares
// every report, counterexample included, with the fresh one.
func runPoolCase(c poolCase, want []Report) error {
	res, err := c.run()
	if err != nil {
		return fmt.Errorf("%s: %v", c.name, err)
	}
	if len(res.Reports) != len(want) {
		return fmt.Errorf("%s: %d reports, want %d", c.name, len(res.Reports), len(want))
	}
	for i, got := range res.Reports {
		if !sameReport(got, want[i]) {
			return fmt.Errorf("%s report %d: %+v (counterexample %v), fresh workspace gives %+v (counterexample %v)",
				c.name, i, got, got.Counterexample, want[i], want[i].Counterexample)
		}
	}
	return nil
}

// Pooled workspaces carry a closure, a reverse CSR, queues and visit
// arrays from one range to the next, across protocols of different
// widths. A range over a closure of 2^16+ nodes leaves them large;
// the small ranges after it, and four Counting calls at once sharing
// the pool, must each report exactly what a zero workspace reports.
// Only ring3 and the big ring have no stable configuration at all;
// pairortrap fails both ways and deep in its closures.
func TestPooledWorkspacesNeverLeak(t *testing.T) {
	flock, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatal(err)
	}
	ex42, err := counting.Example42(2)
	if err != nil {
		t.Fatal(err)
	}
	big := poolCase{"ring5", ring(t, 5), 3, 34, 34}
	small := []poolCase{
		{"pairortrap", pairOrTrap(t), 2, 0, 9},
		{"ring3", ring(t, 3), 1, 0, 6},
		{"example42", ex42, 2, 0, 6},
		{"flock4", flock, 4, 0, 7},
	}
	want := make(map[string][]Report)
	for _, c := range append([]poolCase{big}, small...) {
		want[c.name] = freshReports(t, c.p, CountingPredicate("i", c.n), c.min, c.max)
	}
	if n := want["ring5"][0].Configs; n < 1<<16 {
		t.Fatalf("big closure has %d nodes, want at least 2^16", n)
	}

	for _, c := range append([]poolCase{big}, small...) {
		if err := runPoolCase(c, want[c.name]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(small))
	for g, c := range small {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = runPoolCase(c, want[c.name])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
