package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
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
// integration test's certificate check, a pump net beside a c ⇄ d
// shuffle, and the instance whose bottom checks outgrow its budget.
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

	net, rho := skippedChecksInstance(t)
	out = append(out, bottomInstance{"skippedChecks", net, rho, 1 << 10})
	return out
}

// skippedChecksInstance returns a net and ρ on which ReachBottom at
// MaxConfigs 64 skips bottom checks for the budget and ends without a
// certificate, and at 1 << 10 finds one. One Budget bounds the
// top-level closure, the Karp–Miller tree and the T|Q closures alike,
// so the instance makes a T|Q closure larger than the other two. From
// x the net either drops 70 c's beside a2, where the c ⇄ d shuffle
// stays frozen because its catalyst b is never made, or starts
// a1 + y1, where a1 pumps b while y walks a chain of length 14.
// Q = P∖{b} drops the catalyst, so the T|Q closure of any α|Q holding
// the c's has 71 shuffle states, while the Karp–Miller tree stays
// under 64 nodes. The a1 candidates are not T|Q-bottom before y
// reaches the end of its chain, which lies beyond the budgeted
// closure's wide (y, b) grid.
func skippedChecksInstance(t testing.TB) (*petri.Net, conf.Config) {
	t.Helper()
	const n, chain = 70, 14
	names := []string{"x", "a1", "a2", "b", "c", "d"}
	for i := 1; i <= chain; i++ {
		names = append(names, fmt.Sprintf("y%d", i))
	}
	space := conf.MustSpace(names...)
	u := func(s string) conf.Config { return conf.MustUnit(space, s) }
	trs := []petri.Transition{
		mustTr(t, "drop", u("x"), u("a2").Add(u("c").Scale(n))),
		mustTr(t, "start", u("x"), u("a1").Add(u("y1"))),
		mustTr(t, "pump", u("a1"), u("a1").Add(u("b"))),
		mustTr(t, "cd", u("b").Add(u("c")), u("b").Add(u("d"))),
		mustTr(t, "dc", u("d"), u("c")),
	}
	for i := 1; i < chain; i++ {
		trs = append(trs, mustTr(t, fmt.Sprintf("step%d", i), u(fmt.Sprintf("y%d", i)), u(fmt.Sprintf("y%d", i+1))))
	}
	return mustNet(t, space, trs...), u("x")
}

// When bottom checks die on the closure budget and no candidate yields
// a certificate, the exhausted search must say how many checks were
// skipped instead of silently reporting "no certificate": that count
// is the signal that the budget — not the instance — is what failed.
func TestReachBottomReportsSkippedBudgetChecks(t *testing.T) {
	net, rho := skippedChecksInstance(t)
	_, err := core.ReachBottom(net, rho, core.ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 64}})
	if !errors.Is(err, core.ErrNoBottom) {
		t.Fatalf("err = %v, want ErrNoBottom", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "bottom checks hit the closure budget; raise Budget.MaxConfigs") {
		t.Errorf("error does not surface the skipped checks: %q", msg)
	}
	// The skipped α|Q are x (whose T|Q closure holds the shuffle) and
	// a2 + 70c.
	if !strings.Contains(msg, "(2 distinct") {
		t.Errorf("error does not carry the skip count: %q", msg)
	}

	// With an adequate budget the same instance yields a verified
	// certificate — proving the skip accounting pointed at the right
	// knob.
	budget := petri.Budget{MaxConfigs: 1 << 10}
	cert, err := core.ReachBottom(net, rho, core.ReachBottomOptions{Budget: budget})
	if err != nil {
		t.Fatalf("adequate budget: %v", err)
	}
	if err := core.VerifyBottomCert(net, rho, cert, budget); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
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
	assertSameResult(t, got, gotErr, want, wantErr)
}

// assertSameResult requires the identical certificate and error text.
func assertSameResult(t testing.TB, got *core.BottomCert, gotErr error, want *core.BottomCert, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("err = %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("certificate %+v, reference %+v", got, want)
	}
}

// A firing onto a marking already in the Karp–Miller tree adds no
// node, so Budget.MaxConfigs caps distinct markings. On the pump
// beside a c ⇄ d shuffle (ρ = a + 2c) the tree holds 6, and 6 is the
// smallest budget at which ReachBottom returns a verified certificate
// (its largest sub-closure has 3 nodes); at 5 the tree outgrows it.
func TestReachBottomKarpMillerCountsDistinctMarkings(t *testing.T) {
	var in bottomInstance
	for _, c := range bottomInstances(t) {
		if c.name == "pumpShuffle" {
			in = c
		}
	}
	tree, err := in.net.KarpMiller(in.rho, petri.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 6 {
		t.Fatalf("Karp–Miller tree has %d nodes, want its 6 distinct markings", len(tree.Nodes))
	}
	for _, maxConfigs := range []int{6, 12} {
		budget := petri.Budget{MaxConfigs: maxConfigs}
		cert, err := core.ReachBottom(in.net, in.rho, core.ReachBottomOptions{Budget: budget})
		if err != nil {
			t.Fatalf("MaxConfigs %d: %v", maxConfigs, err)
		}
		if err := core.VerifyBottomCert(in.net, in.rho, cert, budget); err != nil {
			t.Fatalf("MaxConfigs %d: certificate rejected: %v", maxConfigs, err)
		}
	}
	_, err = core.ReachBottom(in.net, in.rho, core.ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 5}})
	if !errors.Is(err, petri.ErrBudget) || !strings.Contains(err.Error(), "karp-miller") {
		t.Fatalf("MaxConfigs 5: err = %v, want the Karp–Miller budget error", err)
	}
}

// ReachBottom grows its top-level closure lazily; the certificate and
// the error must still be exactly those of the eager search, on every
// instance, at its own budget and at budgets that stop the closure
// and the sub-closures early. The wN subtests run the search on N
// goroutines at once over the one net, as a server answering
// concurrent requests does; each run must match the reference.
func TestReachBottomMatchesReference(t *testing.T) {
	for _, in := range bottomInstances(t) {
		grid := map[string]core.ReachBottomOptions{
			"own":      {Budget: petri.Budget{MaxConfigs: in.budget}},
			"budget1":  {Budget: petri.Budget{MaxConfigs: 1}},
			"budget64": {Budget: petri.Budget{MaxConfigs: 64}},
		}
		for gname, opts := range grid {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/w%d", in.name, gname, workers), func(t *testing.T) {
					certs := make([]*core.BottomCert, workers)
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							certs[w], errs[w] = core.ReachBottom(in.net, in.rho, opts)
						}()
					}
					wg.Wait()
					want, wantErr := core.ReferenceReachBottom(in.net, in.rho, opts)
					for w := range workers {
						assertSameResult(t, certs[w], errs[w], want, wantErr)
					}
				})
			}
		}
	}
}

// FuzzReachBottom decodes its bytes into a net of at most 4 states and
// 4 transitions, an initial configuration and a small budget, and
// requires ReachBottom to agree with the eager reference.
func FuzzReachBottom(f *testing.F) {
	// Byte layout: states−1, transitions, then per transition the pre
	// and post counts, then ρ, MaxConfigs−1.
	f.Add([]byte{1, 1, 1, 0, 1, 1, 1, 0, 63}) // pump: a → a + b
	f.Add([]byte{1, 1, 1, 0, 1, 1, 1, 0, 3})  // pump under a tiny budget
	f.Add([]byte{3, 3,                        // pump beside a c ⇄ d shuffle
		1, 0, 0, 0, 1, 1, 0, 0,
		0, 0, 1, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 1, 0,
		1, 0, 2, 0, 63})
	f.Add([]byte{3, 3, // the same shuffle under a budget its Karp–Miller tree outgrows
		1, 0, 0, 0, 1, 1, 0, 0,
		0, 0, 1, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 1, 0,
		1, 0, 3, 0, 2})
	f.Add([]byte{3, 4, // conservative chain a → b → c ⇄ d
		1, 0, 0, 0, 0, 1, 0, 0,
		0, 1, 0, 0, 0, 0, 1, 0,
		0, 0, 1, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 1, 0,
		2, 0, 0, 0, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := byteReader(data)
		net, vec := decodeNet(t, next)
		rho := vec(4)
		opts := core.ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 1 + next()%64}}
		assertSameAsReference(t, net, rho, opts)
	})
}

// byteReader returns data one byte at a time, then zeros.
func byteReader(data []byte) func() int {
	return func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
}

// decodeNet reads FuzzReachBottom's net from next: states−1 (mod 4),
// transitions (mod 5), then per transition the pre and post counts,
// each below 3. vec reads one configuration over the net's space,
// every count below max.
func decodeNet(t testing.TB, next func() int) (net *petri.Net, vec func(max int) conf.Config) {
	t.Helper()
	d := 1 + next()%4
	space := conf.MustSpace([]string{"a", "b", "c", "d"}[:d]...)
	vec = func(max int) conf.Config {
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
	trs := make([]petri.Transition, next()%5)
	for i := range trs {
		trs[i] = mustTr(t, fmt.Sprintf("t%d", i), vec(3), vec(3))
	}
	return mustNet(t, space, trs...), vec
}

// The backward algorithm (Net.Coverable) is the coverability oracle:
// on seeded random nets and targets from FuzzReachBottom's generator,
// the Karp–Miller tree's Covers and the forward ShortestCoveringWord
// must give its answer, and a forward word must cover the target.
// A forward search its budget truncates gives no answer and is not
// compared; the test requires most instances to be compared, and both
// answers to occur.
func TestCoverabilityDecidersAgreeOnRandomNets(t *testing.T) {
	const instances = 2000
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 48)
	var coverable, notCoverable, truncated int
	for i := 0; i < instances; i++ {
		rng.Read(data)
		next := byteReader(data)
		net, vec := decodeNet(t, next)
		from, target := vec(4), vec(4)
		back, err := net.Coverable(from, target, 0)
		if err != nil {
			t.Fatalf("instance %d: Coverable: %v", i, err)
		}
		tree, err := net.KarpMiller(from, petri.Budget{MaxConfigs: 1 << 16})
		if err != nil {
			t.Fatalf("instance %d: KarpMiller: %v", i, err)
		}
		if km := tree.Covers(target); km != back {
			t.Errorf("instance %d (%v from %v, target %v): Karp–Miller says %v, backward %v", i, net, from, target, km, back)
		}
		w, err := net.ShortestCoveringWord(from, target, petri.Budget{MaxConfigs: 1 << 10})
		switch {
		case errors.Is(err, petri.ErrBudget):
			truncated++
			continue
		case err != nil:
			t.Fatalf("instance %d: ShortestCoveringWord: %v", i, err)
		}
		if fwd := w != nil; fwd != back {
			t.Errorf("instance %d (%v from %v, target %v): forward says %v, backward %v", i, net, from, target, fwd, back)
			continue
		}
		if w == nil {
			notCoverable++
			continue
		}
		coverable++
		if got, err := net.FireWord(from, w.Word); err != nil || !target.Leq(got) {
			t.Errorf("instance %d: forward word %v reaches %v, %v; does not cover %v", i, w.Word, got, err, target)
		}
	}
	if truncated > instances/10 || coverable == 0 || notCoverable == 0 {
		t.Errorf("compared %d coverable and %d uncoverable instances, %d forward searches truncated", coverable, notCoverable, truncated)
	}
	t.Logf("coverable %d, not coverable %d, forward truncated %d", coverable, notCoverable, truncated)
}
