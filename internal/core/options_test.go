package core

import (
	"errors"
	"testing"

	"repro/internal/conf"
	"repro/internal/petri"
)

// ReachBottomOptions has one knob, the Budget bounding every closure
// of the search: a generous one yields a pumping certificate, a
// starved one an explicit error.
func TestReachBottomOptionKnobs(t *testing.T) {
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space,
		mkTr(t, "pump", u("a"), u("a").Add(u("b"))),
	)
	rho := u("a")

	// Generous budget: certificate found.
	cert, err := ReachBottom(net, rho, ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 64}})
	if err != nil {
		t.Fatalf("ReachBottom: %v", err)
	}
	if len(cert.W) == 0 {
		t.Error("expected a pumping word")
	}

	// Karp–Miller starved by a tiny node budget: explicit error, not a
	// wrong certificate.
	_, err = ReachBottom(net, rho, ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 1}})
	if err == nil {
		t.Error("starved search returned a certificate")
	}
}

// The verifier-facing error contract: certificates must replay; words
// referencing missing transitions are rejected.
func TestVerifyBottomCertBadWord(t *testing.T) {
	space := conf.MustSpace("a")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space, mkTr(t, "loop", u("a"), u("a")))
	rho := u("a")
	cert := &BottomCert{
		Sigma: []int{5}, // out of range
		Q:     []string{"a"},
		Alpha: rho, Beta: rho, ComponentSize: 1,
	}
	if err := VerifyBottomCert(net, rho, cert, petri.Budget{MaxConfigs: 16}); err == nil {
		t.Error("out-of-range word accepted")
	}
	badQ := &BottomCert{Q: []string{"zz"}, Alpha: rho, Beta: rho, ComponentSize: 1}
	if err := VerifyBottomCert(net, rho, badQ, petri.Budget{MaxConfigs: 16}); err == nil {
		t.Error("unknown Q state accepted")
	}
}

// IsOutputStable/IsStabilized propagate budget errors from genuinely
// infinite closures instead of guessing.
func TestStabilityBudgetPropagation(t *testing.T) {
	space := conf.MustSpace("a", "b")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	net := mkNet(t, space, mkTr(t, "pump", u("a"), u("a").Add(u("b"))))
	p, err := NewProtocol("pumper", net, conf.New(space), []string{"a"},
		map[string]Output{"a": Out1, "b": Out1})
	if err != nil {
		t.Fatalf("NewProtocol: %v", err)
	}
	_, err = p.IsOutputStable(u("a"), Out1, petri.Budget{MaxConfigs: 4})
	if !errors.Is(err, petri.ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}
