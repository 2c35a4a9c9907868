package core

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/petri"
)

func mkNet(t *testing.T, space *conf.Space, trs ...petri.Transition) *petri.Net {
	t.Helper()
	n, err := petri.New(space, trs)
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	return n
}

func mkTr(t *testing.T, name string, pre, post conf.Config) petri.Transition {
	t.Helper()
	tr, err := petri.NewTransition(name, pre, post)
	if err != nil {
		t.Fatalf("transition %s: %v", name, err)
	}
	return tr
}

func TestComponentAndIsBottom(t *testing.T) {
	// a <-> b, and c sink: from a the component is {a,b}... but c is
	// reachable from b? No: net is a->b, b->a, b->c.
	space := conf.MustSpace("a", "b", "c")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space,
		mkTr(t, "ab", u("a"), u("b")),
		mkTr(t, "ba", u("b"), u("a")),
		mkTr(t, "bc", u("b"), u("c")),
	)
	budget := petri.Budget{MaxConfigs: 1 << 10}

	comp, err := Component(net, u("a"), budget)
	if err != nil {
		t.Fatalf("Component: %v", err)
	}
	if len(comp) != 2 {
		t.Errorf("component size = %d, want 2 ({a},{b})", len(comp))
	}

	bot, err := IsBottom(net, u("a"), budget)
	if err != nil {
		t.Fatalf("IsBottom: %v", err)
	}
	if bot {
		t.Error("a reported bottom although c is a one-way exit")
	}
	bot, err = IsBottom(net, u("c"), budget)
	if err != nil || !bot {
		t.Errorf("IsBottom(c) = %v, %v; want true", bot, err)
	}
}

func TestComponentBudget(t *testing.T) {
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space,
		mkTr(t, "pump", u("a"), u("a").Add(u("b"))),
	)
	_, err := Component(net, u("a"), petri.Budget{MaxConfigs: 4})
	if !errors.Is(err, petri.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestReachBottomBounded(t *testing.T) {
	// Conservative chain a -> b -> c with a 2-cycle at the end:
	// c <-> d. Bottom SCCs are over {c,d} mixes.
	space := conf.MustSpace("a", "b", "c", "d")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space,
		mkTr(t, "ab", u("a"), u("b")),
		mkTr(t, "bc", u("b"), u("c")),
		mkTr(t, "cd", u("c"), u("d")),
		mkTr(t, "dc", u("d"), u("c")),
	)
	rho := conf.MustFromMap(space, map[string]int64{"a": 2})
	cert, err := ReachBottom(net, rho, ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 1 << 12}})
	if err != nil {
		t.Fatalf("ReachBottom: %v", err)
	}
	if len(cert.Q) != space.Len() {
		t.Errorf("bounded case Q = %v, want full space", cert.Q)
	}
	if len(cert.W) != 0 {
		t.Errorf("bounded case w length = %d, want 0", len(cert.W))
	}
	// α must place both agents in the {c,d} cycle.
	if cert.Alpha.GetName("a") != 0 || cert.Alpha.GetName("b") != 0 {
		t.Errorf("α = %v still has agents outside the bottom cycle", cert.Alpha)
	}
	// Component of a 2-agent config over the c<->d cycle: 3 mixes.
	if cert.ComponentSize != 3 {
		t.Errorf("component size = %d, want 3", cert.ComponentSize)
	}
	if err := VerifyBottomCert(net, rho, cert, petri.Budget{MaxConfigs: 1 << 12}); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

func TestReachBottomUnbounded(t *testing.T) {
	// pump: a -> a+b is unbounded on b; Q = {a}, α = a, w = pump gives
	// β = a+b with β|Q = α|Q and β(b) > α(b).
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space,
		mkTr(t, "pump", u("a"), u("a").Add(u("b"))),
	)
	rho := u("a")
	cert, err := ReachBottom(net, rho, ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 64}})
	if err != nil {
		t.Fatalf("ReachBottom: %v", err)
	}
	if len(cert.Q) != 1 || cert.Q[0] != "a" {
		t.Errorf("Q = %v, want [a]", cert.Q)
	}
	if len(cert.W) == 0 {
		t.Error("pumping word empty")
	}
	if err := VerifyBottomCert(net, rho, cert, petri.Budget{MaxConfigs: 1 << 10}); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

func TestVerifyBottomCertRejectsTampering(t *testing.T) {
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space,
		mkTr(t, "ab", u("a"), u("b")),
		mkTr(t, "ba", u("b"), u("a")),
	)
	rho := u("a")
	cert, err := ReachBottom(net, rho, ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 64}})
	if err != nil {
		t.Fatalf("ReachBottom: %v", err)
	}
	budget := petri.Budget{MaxConfigs: 64}

	bad := *cert
	bad.Alpha = u("b").Add(u("b"))
	if err := VerifyBottomCert(net, rho, &bad, budget); err == nil {
		t.Error("tampered α accepted")
	}

	bad = *cert
	bad.Sigma = []int{0, 0} // ab twice is not fireable from a single a
	if err := VerifyBottomCert(net, rho, &bad, budget); err == nil {
		t.Error("non-replayable σ accepted")
	}

	bad = *cert
	bad.ComponentSize = 99
	if err := VerifyBottomCert(net, rho, &bad, budget); err == nil {
		t.Error("wrong component size accepted")
	}

	if err := VerifyBottomCert(net, rho, nil, budget); err == nil {
		t.Error("nil certificate accepted")
	}
}

func TestReachBottomOnExample42(t *testing.T) {
	// The full protocol net of Example 4.2 is conservative, so the
	// closure is complete and the certificate has Q = P.
	p := example42(t, 2)
	rho := p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 3}))
	cert, err := ReachBottom(p.Net(), rho, ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 1 << 16}})
	if err != nil {
		t.Fatalf("ReachBottom: %v", err)
	}
	if err := VerifyBottomCert(p.Net(), rho, cert, petri.Budget{MaxConfigs: 1 << 16}); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
	// For x=3 ≥ n=2 the bottom of Example 4.2 is the all-1 consensus
	// component; α must contain no ib, pb, qb.
	for _, s := range []string{"ib", "pb", "qb"} {
		if cert.Alpha.GetName(s) != 0 {
			t.Errorf("bottom α has %s agents: %v", s, cert.Alpha)
		}
	}
}

// When every candidate bottom check dies on the sub-closure budget,
// the exhausted search must say how many checks were skipped instead
// of silently reporting "no certificate": that count is the signal
// that SubBudget — not the instance — is what failed.
func TestReachBottomReportsSkippedBudgetChecks(t *testing.T) {
	// pump makes b unbounded (so the Karp–Miller path runs, with
	// Q = {a, c, d}); the c ⇄ d shuffle gives every α|Q a 3-node
	// T|Q-closure, above the deliberately tiny SubBudget.
	space := conf.MustSpace("a", "b", "c", "d")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space,
		mkTr(t, "pump", u("a"), u("a").Add(u("b"))),
		mkTr(t, "cd", u("c"), u("d")),
		mkTr(t, "dc", u("d"), u("c")),
	)
	rho := u("a").Add(u("c").Scale(2))
	_, err := ReachBottom(net, rho, ReachBottomOptions{
		Budget:    petri.Budget{MaxConfigs: 64},
		SubBudget: petri.Budget{MaxConfigs: 2},
	})
	if !errors.Is(err, ErrNoBottom) {
		t.Fatalf("err = %v, want ErrNoBottom", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "bottom checks hit the closure budget") {
		t.Errorf("error does not surface the skipped checks: %q", msg)
	}
	// The distinct α|Q values are the three c/d splits of (1, ·, ·).
	if !strings.Contains(msg, "(3 distinct") {
		t.Errorf("error does not carry the skip count: %q", msg)
	}

	// With an adequate sub-budget the same instance yields a verified
	// certificate — proving the skip accounting pointed at the right
	// knob.
	cert, err := ReachBottom(net, rho, ReachBottomOptions{
		Budget:    petri.Budget{MaxConfigs: 64},
		SubBudget: petri.Budget{MaxConfigs: 1 << 10},
	})
	if err != nil {
		t.Fatalf("adequate sub-budget: %v", err)
	}
	if err := VerifyBottomCert(net, rho, cert, petri.Budget{MaxConfigs: 1 << 10}); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

// Every closure the certificate search and its checks open must be
// released on every path, or a spilling budget leaves one countset-*
// directory behind per closure.
func TestBottomSearchReleasesSpilledClosures(t *testing.T) {
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	pump := mkNet(t, space, mkTr(t, "pump", u("a"), u("a").Add(u("b"))))
	cycle := mkNet(t, space, mkTr(t, "ab", u("a"), u("b")), mkTr(t, "ba", u("b"), u("a")))
	dir := t.TempDir()
	budget := petri.Budget{MaxConfigs: 64, SpillDir: dir}
	leftover := func(what string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("%s left %d spill directories behind", what, len(entries))
		}
	}

	cert, err := ReachBottom(pump, u("a"), ReachBottomOptions{Budget: budget})
	if err != nil {
		t.Fatalf("ReachBottom: %v", err)
	}
	leftover("ReachBottom (pumping certificate)")
	if err := VerifyBottomCert(pump, u("a"), cert, budget); err != nil {
		t.Fatalf("VerifyBottomCert: %v", err)
	}
	leftover("VerifyBottomCert")
	if _, err := ReachBottom(cycle, u("a"), ReachBottomOptions{Budget: budget}); err != nil {
		t.Fatalf("ReachBottom: %v", err)
	}
	leftover("ReachBottom (complete closure)")
	// The c ⇄ d shuffle outgrows the starved sub-budget: every bottom
	// check is skipped and the search ends without a certificate.
	space4 := conf.MustSpace("a", "b", "c", "d")
	u4 := func(n string) conf.Config { return conf.MustUnit(space4, n) }
	shuffle := mkNet(t, space4,
		mkTr(t, "pump", u4("a"), u4("a").Add(u4("b"))),
		mkTr(t, "cd", u4("c"), u4("d")),
		mkTr(t, "dc", u4("d"), u4("c")),
	)
	if _, err := ReachBottom(shuffle, u4("a").Add(u4("c").Scale(2)), ReachBottomOptions{Budget: budget,
		SubBudget: petri.Budget{MaxConfigs: 2, SpillDir: dir}}); !errors.Is(err, ErrNoBottom) {
		t.Fatalf("starved ReachBottom: err = %v, want ErrNoBottom", err)
	}
	leftover("ReachBottom (no certificate)")
	if bot, err := IsBottom(cycle, u("a"), budget); err != nil || !bot {
		t.Fatalf("IsBottom = %v, %v; want true", bot, err)
	}
	if _, err := IsBottom(pump, u("a"), budget); !errors.Is(err, petri.ErrBudget) {
		t.Fatalf("IsBottom on the pump: err = %v, want ErrBudget", err)
	}
	leftover("IsBottom")
	if comp, err := Component(cycle, u("a"), budget); err != nil || len(comp) != 2 {
		t.Fatalf("Component = %d members, %v; want 2", len(comp), err)
	}
	if _, err := Component(pump, u("a"), budget); !errors.Is(err, petri.ErrBudget) {
		t.Fatalf("Component on the pump: err = %v, want ErrBudget", err)
	}
	leftover("Component")
}
