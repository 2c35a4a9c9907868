package core

import (
	"strings"
	"testing"

	"repro/internal/conf"
	"repro/internal/petri"
)

// example42 rebuilds the protocol of Example 4.2 of the paper for a
// given n: six states {i, ī, p, p̄, q, q̄}, leaders n·ī, width 2, stably
// computing φ_{i≥n}. It is the workhorse fixture of the core tests (the
// counting package provides the public constructor; this local copy
// keeps the core tests self-contained).
func example42(t *testing.T, n int64) *Protocol {
	t.Helper()
	space := conf.MustSpace("i", "ib", "p", "pb", "q", "qb")
	u := func(name string) conf.Config { return conf.MustUnit(space, name) }
	pair := func(a, b string) conf.Config { return u(a).Add(u(b)) }
	mkT := func(name string, pre, post conf.Config) petri.Transition {
		tr, err := petri.NewTransition(name, pre, post)
		if err != nil {
			t.Fatalf("transition %s: %v", name, err)
		}
		return tr
	}
	net, err := petri.New(space, []petri.Transition{
		mkT("t", pair("i", "ib"), pair("p", "q")),
		mkT("tp", pair("pb", "i"), pair("p", "i")),
		mkT("tpb", pair("p", "ib"), pair("pb", "ib")),
		mkT("tq", pair("qb", "i"), pair("q", "i")),
		mkT("tqb", pair("q", "ib"), pair("qb", "ib")),
		mkT("tqbar", pair("p", "qb"), pair("p", "q")),
		mkT("tpbar", pair("q", "pb"), pair("q", "p")),
	})
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	leaders := u("ib").Scale(n)
	proto, err := NewProtocol("example42", net, leaders, []string{"i"}, map[string]Output{
		"i": Out1, "p": Out1, "q": Out1,
		"ib": Out0, "pb": Out0, "qb": Out0,
	})
	if err != nil {
		t.Fatalf("NewProtocol: %v", err)
	}
	return proto
}

func TestNewProtocolValidation(t *testing.T) {
	space := conf.MustSpace("a", "b")
	net, err := petri.New(space, nil)
	if err != nil {
		t.Fatalf("net: %v", err)
	}
	leaders := conf.New(space)
	gamma := map[string]Output{"a": Out0, "b": Out1}

	tests := []struct {
		name string
		run  func() (*Protocol, error)
	}{
		{"empty name", func() (*Protocol, error) {
			return NewProtocol("", net, leaders, []string{"a"}, gamma)
		}},
		{"nil net", func() (*Protocol, error) {
			return NewProtocol("p", nil, leaders, []string{"a"}, gamma)
		}},
		{"wrong leader space", func() (*Protocol, error) {
			return NewProtocol("p", net, conf.New(conf.MustSpace("z")), []string{"a"}, gamma)
		}},
		{"no initial states", func() (*Protocol, error) {
			return NewProtocol("p", net, leaders, nil, gamma)
		}},
		{"unknown initial", func() (*Protocol, error) {
			return NewProtocol("p", net, leaders, []string{"z"}, gamma)
		}},
		{"duplicate initial", func() (*Protocol, error) {
			return NewProtocol("p", net, leaders, []string{"a", "a"}, gamma)
		}},
		{"missing gamma", func() (*Protocol, error) {
			return NewProtocol("p", net, leaders, []string{"a"}, map[string]Output{"a": Out0})
		}},
		{"invalid gamma value", func() (*Protocol, error) {
			return NewProtocol("p", net, leaders, []string{"a"}, map[string]Output{"a": 0, "b": Out1})
		}},
		{"extra gamma state", func() (*Protocol, error) {
			return NewProtocol("p", net, leaders, []string{"a"}, map[string]Output{"a": Out0, "b": Out1, "z": Out0})
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run(); err == nil {
				t.Fatal("validation passed, want error")
			}
		})
	}
}

func TestProtocolAccessors(t *testing.T) {
	p := example42(t, 2)
	if p.States() != 6 {
		t.Errorf("States = %d, want 6", p.States())
	}
	if p.Width() != 2 {
		t.Errorf("Width = %d, want 2", p.Width())
	}
	if p.NumLeaders() != 2 {
		t.Errorf("NumLeaders = %d, want 2", p.NumLeaders())
	}
	if p.Leaderless() {
		t.Error("Leaderless = true with 2 leaders")
	}
	if got := p.InitialStates(); len(got) != 1 || got[0] != "i" {
		t.Errorf("InitialStates = %v", got)
	}
	if i, ok := p.Space().Index("pb"); !ok || p.Gamma(i) != Out0 {
		t.Errorf("γ(pb) is not 0 (state found: %v)", ok)
	}
	zeros := p.OutputStates(Out0)
	if len(zeros) != 3 {
		t.Errorf("OutputStates(0) = %v", zeros)
	}
	if !strings.Contains(p.String(), "example42") {
		t.Errorf("String = %q", p.String())
	}
}

func TestOutputOf(t *testing.T) {
	p := example42(t, 1)
	space := p.Space()
	mixed := conf.MustFromMap(space, map[string]int64{"i": 1, "ib": 1})
	s := p.OutputOf(mixed)
	if s != Set0|Set1 {
		t.Errorf("OutputOf(mixed) = %v", s)
	}
	if got := p.OutputOf(conf.New(space)); got != 0 {
		t.Errorf("OutputOf(zero) = %v, want empty", got)
	}
	ones := conf.MustFromMap(space, map[string]int64{"p": 2, "q": 1})
	if got := p.OutputOf(ones); got != Set1 {
		t.Errorf("OutputOf(ones) = %v, want {1}", got)
	}
}

func TestOutputSetString(t *testing.T) {
	if got := (Set0 | Set1).String(); got != "{0,1}" {
		t.Errorf("String = %q", got)
	}
	if got := SetStar.String(); got != "{★}" {
		t.Errorf("String = %q", got)
	}
	if got := Out1.String(); got != "1" {
		t.Errorf("Out1.String = %q", got)
	}
	if got := OutStar.String(); got != "★" {
		t.Errorf("OutStar.String = %q", got)
	}
}

func TestInputAndInitialConfig(t *testing.T) {
	p := example42(t, 3)
	in, err := p.Input(map[string]int64{"i": 5})
	if err != nil {
		t.Fatalf("Input: %v", err)
	}
	init := p.InitialConfig(in)
	if init.GetName("i") != 5 || init.GetName("ib") != 3 {
		t.Errorf("InitialConfig = %v", init)
	}
	if _, err := p.Input(map[string]int64{"p": 1}); err == nil {
		t.Error("non-initial input state accepted")
	}
}

func TestKeepMask(t *testing.T) {
	p := example42(t, 1)
	mask, err := p.KeepMask([]string{"ib", "pb"})
	if err != nil {
		t.Fatalf("KeepMask: %v", err)
	}
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	if n != 2 {
		t.Errorf("mask has %d set bits, want 2", n)
	}
	if _, err := p.KeepMask([]string{"zz"}); err == nil {
		t.Error("unknown state accepted")
	}
}

func TestGammaTable(t *testing.T) {
	p := example42(t, 2)
	tbl := p.GammaTable()
	if len(tbl) != p.States() {
		t.Fatalf("GammaTable length %d, want %d", len(tbl), p.States())
	}
	for i, o := range tbl {
		if o != p.Gamma(i) {
			t.Errorf("GammaTable[%d] = %v, Gamma = %v", i, o, p.Gamma(i))
		}
	}
	// The table is a copy: mutating it must not corrupt the protocol.
	tbl[0] = Out0
	if p.Gamma(0) != Out1 {
		t.Error("GammaTable aliases the protocol's gamma")
	}
}
