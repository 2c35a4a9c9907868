// Package core implements the protocol model of Leroux, "State
// Complexity of Protocols With Leaders" (PODC 2022): population
// protocols with leaders over finite-interaction-width additive
// preorders, i.e. Petri-net reachability relations (Sections 2–3), plus
// the analyses the lower-bound proof is built on: output-stable and
// (T,F)-stabilized configurations (Section 5) and bottom configurations
// (Section 6).
package core

import (
	"errors"
	"fmt"

	"repro/internal/conf"
	"repro/internal/petri"
)

// Output is the value of the output function γ on a state: 0, ★
// (undetermined) or 1.
type Output int8

// Output values. The zero value is invalid so that forgotten outputs are
// caught by validation rather than silently meaning "reject".
const (
	Out0    Output = iota + 1 // γ(p) = 0
	OutStar                   // γ(p) = ★
	Out1                      // γ(p) = 1
)

// String renders the output value.
func (o Output) String() string {
	switch o {
	case Out0:
		return "0"
	case OutStar:
		return "★"
	case Out1:
		return "1"
	default:
		return fmt.Sprintf("Output(%d)", int8(o))
	}
}

func (o Output) valid() bool { return o == Out0 || o == OutStar || o == Out1 }

// OutputSet is a subset of {0, ★, 1}: the image γ(ρ) of a configuration.
type OutputSet uint8

// OutputSet bits.
const (
	Set0    OutputSet = 1 << iota // some agent outputs 0
	SetStar                       // some agent outputs ★
	Set1                          // some agent outputs 1
)

// String renders the output set, e.g. "{0,1}".
func (s OutputSet) String() string {
	out := "{"
	first := true
	add := func(label string) {
		if !first {
			out += ","
		}
		out += label
		first = false
	}
	if s&Set0 != 0 {
		add("0")
	}
	if s&SetStar != 0 {
		add("★")
	}
	if s&Set1 != 0 {
		add("1")
	}
	return out + "}"
}

// Protocol is a tuple (P, →*, ρ_L, I, γ) where the additive preorder →*
// is the reachability relation of a Petri net (Section 3 shows the two
// views coincide for finite interaction-width). A Protocol is
// immutable after NewProtocol, which keeps its own copy of ρ_L, and
// every accessor returns a copy or a read-only view, so one Protocol
// may be shared by any number of goroutines.
type Protocol struct {
	name    string
	net     *petri.Net
	leaders conf.Config
	initial []string
	gamma   []Output // indexed by state
}

// NewProtocol validates and builds a protocol.
//
//   - net gives the state space P and the preorder →* = —T*→;
//   - leaders is ρ_L, a configuration over P;
//   - initial lists the input states I ⊆ P;
//   - gamma assigns every state of P an output value.
func NewProtocol(name string, net *petri.Net, leaders conf.Config, initial []string, gamma map[string]Output) (*Protocol, error) {
	if name == "" {
		return nil, errors.New("core: empty protocol name")
	}
	if net == nil {
		return nil, errors.New("core: nil net")
	}
	space := net.Space()
	if space.Len() == 0 {
		return nil, fmt.Errorf("core: protocol %q: empty state space", name)
	}
	if !leaders.Space().Equal(space) {
		return nil, fmt.Errorf("core: protocol %q: leaders over wrong space", name)
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("core: protocol %q: no initial states", name)
	}
	seen := make(map[string]bool, len(initial))
	for _, s := range initial {
		if !space.Contains(s) {
			return nil, fmt.Errorf("core: protocol %q: initial state %q not in space", name, s)
		}
		if seen[s] {
			return nil, fmt.Errorf("core: protocol %q: duplicate initial state %q", name, s)
		}
		seen[s] = true
	}
	g := make([]Output, space.Len())
	for i := 0; i < space.Len(); i++ {
		o, ok := gamma[space.Name(i)]
		if !ok {
			return nil, fmt.Errorf("core: protocol %q: no output for state %q", name, space.Name(i))
		}
		if !o.valid() {
			return nil, fmt.Errorf("core: protocol %q: invalid output %d for state %q", name, o, space.Name(i))
		}
		g[i] = o
	}
	if len(gamma) != space.Len() {
		return nil, fmt.Errorf("core: protocol %q: gamma mentions %d states, space has %d", name, len(gamma), space.Len())
	}
	ini := make([]string, len(initial))
	copy(ini, initial)
	return &Protocol{name: name, net: net, leaders: leaders.Clone(), initial: ini, gamma: g}, nil
}

// Name returns the protocol's name.
func (p *Protocol) Name() string { return p.name }

// Net returns the underlying Petri net.
func (p *Protocol) Net() *petri.Net { return p.net }

// Space returns the state space P.
func (p *Protocol) Space() *conf.Space { return p.net.Space() }

// Leaders returns a copy of ρ_L, so that no caller of a shared
// protocol (registry.Make keeps built ones) can mutate it in place.
func (p *Protocol) Leaders() conf.Config { return p.leaders.Clone() }

// NumLeaders returns |ρ_L|.
func (p *Protocol) NumLeaders() int64 { return p.leaders.Agents() }

// Leaderless reports whether the protocol has no leaders.
func (p *Protocol) Leaderless() bool { return p.leaders.IsZero() }

// Width returns the interaction-width of the protocol's preorder.
func (p *Protocol) Width() int64 { return p.net.Width() }

// States returns |P|, the state count whose asymptotics the paper
// bounds.
func (p *Protocol) States() int { return p.Space().Len() }

// InitialStates returns a copy of I.
func (p *Protocol) InitialStates() []string {
	out := make([]string, len(p.initial))
	copy(out, p.initial)
	return out
}

// Gamma returns γ(p) for the state with the given index.
func (p *Protocol) Gamma(i int) Output { return p.gamma[i] }

// GammaTable returns a copy of γ as a dense slice indexed by state.
// Simulation engines use it to track γ(ρ) incrementally: maintaining a
// per-output-class count of occupied states makes the output set an
// O(changed) quantity per step instead of the O(|P|) rescan of OutputOf.
func (p *Protocol) GammaTable() []Output {
	out := make([]Output, len(p.gamma))
	copy(out, p.gamma)
	return out
}

// OutputStates returns the names of states with the given output value.
func (p *Protocol) OutputStates(o Output) []string {
	var out []string
	for i, g := range p.gamma {
		if g == o {
			out = append(out, p.Space().Name(i))
		}
	}
	return out
}

// OutputOf returns γ(ρ) = {j : ∃p, ρ(p) > 0 ∧ γ(p) = j}. The zero
// configuration yields the empty set.
func (p *Protocol) OutputOf(c conf.Config) OutputSet {
	var s OutputSet
	for i := 0; i < c.Space().Len(); i++ {
		if c.Get(i) == 0 {
			continue
		}
		switch p.gamma[i] {
		case Out0:
			s |= Set0
		case OutStar:
			s |= SetStar
		case Out1:
			s |= Set1
		}
	}
	return s
}

// Input builds an input configuration ρ ∈ ℕ^I from counts on initial
// states.
func (p *Protocol) Input(counts map[string]int64) (conf.Config, error) {
	valid := make(map[string]bool, len(p.initial))
	for _, s := range p.initial {
		valid[s] = true
	}
	for s := range counts {
		if !valid[s] {
			return conf.Config{}, fmt.Errorf("core: %q is not an initial state of %s", s, p.name)
		}
	}
	return conf.FromMap(p.Space(), counts)
}

// InitialConfig returns ρ_L + ρ|_P for an input ρ built with Input.
func (p *Protocol) InitialConfig(input conf.Config) conf.Config {
	return p.leaders.Add(input)
}

// KeepMask returns the boolean mask over state indices of the states in
// the given set F (by name). Unknown names are errors.
func (p *Protocol) KeepMask(states []string) ([]bool, error) {
	mask := make([]bool, p.Space().Len())
	for _, s := range states {
		i, ok := p.Space().Index(s)
		if !ok {
			return nil, fmt.Errorf("core: state %q not in space", s)
		}
		mask[i] = true
	}
	return mask, nil
}

// String summarizes the protocol.
func (p *Protocol) String() string {
	return fmt.Sprintf("protocol %s: %d states, width %d, %d leaders, %d transitions",
		p.name, p.States(), p.Width(), p.NumLeaders(), p.net.Len())
}
