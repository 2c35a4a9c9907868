package core

import (
	"errors"
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

	// Q = P, checked on the net itself: α = a can leave for c and
	// never come back, so it is not bottom whatever size is claimed.
	space3 := conf.MustSpace("a", "b", "c")
	u3 := func(n string) conf.Config { return conf.MustUnit(space3, n) }
	exit := mkNet(t, space3,
		mkTr(t, "ab", u3("a"), u3("b")),
		mkTr(t, "ba", u3("b"), u3("a")),
		mkTr(t, "bc", u3("b"), u3("c")),
	)
	notBottom := &BottomCert{Q: space3.Names(), Alpha: u3("a"), Beta: u3("a"), ComponentSize: 2}
	wantRejected(t, "Q = P, non-bottom α", VerifyBottomCert(exit, u3("a"), notBottom, budget), "not T|Q-bottom")

	// Q ⊂ P, checked on the restricted net T|Q: the pump net's
	// certificate with a wrong size, and a pumping certificate whose
	// α|Q = a can leave for c under T|Q.
	pump := mkNet(t, space,
		mkTr(t, "pump", u("a"), u("a").Add(u("b"))),
	)
	cert, err = ReachBottom(pump, u("a"), ReachBottomOptions{Budget: budget})
	if err != nil {
		t.Fatalf("ReachBottom(pump): %v", err)
	}
	if len(cert.Q) != 1 || cert.ComponentSize != 1 {
		t.Fatalf("pump certificate Q = %v, size %d; want [a], 1", cert.Q, cert.ComponentSize)
	}
	bad = *cert
	bad.ComponentSize = 2
	wantRejected(t, "Q ⊂ P, wrong size", VerifyBottomCert(pump, u("a"), &bad, budget), "component size 1")

	leak := mkNet(t, space3,
		mkTr(t, "pump", u3("a"), u3("a").Add(u3("b"))),
		mkTr(t, "leak", u3("a"), u3("c")),
	)
	pumped := &BottomCert{W: []int{0}, Q: []string{"a", "c"}, Alpha: u3("a"), Beta: u3("a").Add(u3("b")), ComponentSize: 1}
	wantRejected(t, "Q ⊂ P, non-bottom α|Q", VerifyBottomCert(leak, u3("a"), pumped, budget), "not T|Q-bottom")
}

func wantRejected(t *testing.T, what string, err error, reason string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: certificate accepted", what)
	} else if !strings.Contains(err.Error(), reason) {
		t.Errorf("%s: rejected with %q, want %q", what, err, reason)
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
