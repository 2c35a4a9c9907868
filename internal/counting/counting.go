// Package counting builds the counting-predicate protocols the paper's
// state-complexity results are about: for each construction, a protocol
// stably computing φ_{i≥n}(ρ) = [ρ(i) ≥ n] with a different trade-off
// between states, interaction-width and leaders.
//
//	Construction     states            width  leaders  source
//	Example41        2                 n      0        paper, Ex. 4.1
//	Example42        6                 2      n        paper, Ex. 4.2
//	FlockOfBirds     n+1               2      0        folklore/[6]
//	PowerOfTwo       log₂(n)+2         2      0        [6]-style, n = 2^k
//	LeaderDoubling   log₂(n)+6         2      1        Ex. 4.2 + doubling
//	Tower            Θ(k)              2      1        [6]-style, n = 2^(2^k)
//
// All constructions except Tower are exhaustively verified in the test
// suite to stably compute their predicate on every tested input; Tower
// (package tower) reproduces the Θ(log log n) state scaling of
// Blondin–Esparza–Jaax and its stable-computation status is assessed
// empirically (see DESIGN.md, substitution 1).
package counting

import (
	"fmt"
	"math"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/petri"
)

// InputState is the canonical initial state name used by every
// construction.
const InputState = "i"

// Size is how many states and transitions a construction builds. Each
// construction states its size as arithmetic on its parameter (the
// ...Size functions below, checked against the built nets by a
// differential test), so a caller can price a construction without
// building it. A size function rejects exactly the parameters its
// constructor rejects, with the same error; a count too large for
// int64 saturates at math.MaxInt64.
type Size struct {
	States, Transitions int64
}

// atLeast is the parameter check every construction shares.
func atLeast(name string, v, lo int64) error {
	if v < lo {
		return fmt.Errorf("counting: %s = %d, want ≥ %d", name, v, lo)
	}
	return nil
}

// addSat and mulSat are non-negative int64 arithmetic saturating at
// math.MaxInt64.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func mulSat(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// Example41Size is the size of Example41(n): states i and p, one
// transition per configuration of n−1 agents.
func Example41Size(n int64) (Size, error) {
	if err := atLeast("n", n, 1); err != nil {
		return Size{}, err
	}
	return Size{States: 2, Transitions: n}, nil
}

// Example42Size is the size of Example42(n): six states and seven
// transitions whatever n (n only sets the leader count).
func Example42Size(n int64) (Size, error) {
	if err := atLeast("n", n, 1); err != nil {
		return Size{}, err
	}
	return Size{States: 6, Transitions: 7}, nil
}

// FlockOfBirdsSize is the size of FlockOfBirds(n): for n ≥ 2, n+1
// states, one merge per unordered value pair (n(n−1)/2) and one
// broadcast per state other than T (n).
func FlockOfBirdsSize(n int64) (Size, error) {
	if err := atLeast("n", n, 1); err != nil {
		return Size{}, err
	}
	if n == 1 {
		return Size{States: 1}, nil
	}
	// n(n−1)/2, halving whichever factor is even before multiplying.
	a, b := n/2, n-1
	if n%2 == 1 {
		a, b = n, (n-1)/2
	}
	return Size{States: addSat(n, 1), Transitions: addSat(mulSat(a, b), n)}, nil
}

// PowerOfTwoSize is the size of PowerOfTwo(k): k+2 states; k−1
// doublings, the saturating top merge, and k+1 broadcasts.
func PowerOfTwoSize(k int64) (Size, error) {
	if err := atLeast("k", k, 1); err != nil {
		return Size{}, err
	}
	return Size{States: addSat(k, 2), Transitions: addSat(mulSat(2, k), 1)}, nil
}

// LeaderDoublingSize is the size of LeaderDoubling(k): Example 4.2's
// six states and seven transitions plus one token state and one
// doubling per round.
func LeaderDoublingSize(k int64) (Size, error) {
	if err := atLeast("k", k, 0); err != nil {
		return Size{}, err
	}
	return Size{States: addSat(k, 6), Transitions: addSat(k, 7)}, nil
}

// Example41 builds the 2-state, width-n, leaderless protocol of
// Example 4.1: the additive preorder "convert i to p when at least n
// agents are present", materialized as the Petri net
// {(ρ+i, ρ+p) : |ρ| = n−1}.
func Example41(n int64) (*core.Protocol, error) {
	if err := atLeast("n", n, 1); err != nil {
		return nil, err
	}
	space, err := conf.NewSpace("i", "p")
	if err != nil {
		return nil, err
	}
	var trans []petri.Transition
	// ρ ranges over configurations with n−1 agents: ρ = k·i + (n−1−k)·p.
	for k := int64(0); k <= n-1; k++ {
		pre, err := conf.FromMap(space, map[string]int64{"i": k + 1, "p": n - 1 - k})
		if err != nil {
			return nil, err
		}
		post, err := conf.FromMap(space, map[string]int64{"i": k, "p": n - k})
		if err != nil {
			return nil, err
		}
		t, err := petri.NewTransition(fmt.Sprintf("t%d", k), pre, post)
		if err != nil {
			return nil, err
		}
		trans = append(trans, t)
	}
	net, err := petri.New(space, trans)
	if err != nil {
		return nil, err
	}
	return core.NewProtocol(fmt.Sprintf("example41(n=%d)", n), net, conf.New(space), []string{"i"},
		map[string]core.Output{"i": core.Out0, "p": core.Out1})
}

// Example42 builds the 6-state, width-2 protocol of Example 4.2 with n
// leaders in state ī: states {i, ī, p, p̄, q, q̄} (ASCII: ib, pb, qb)
// and the seven transitions of the paper.
func Example42(n int64) (*core.Protocol, error) {
	if err := atLeast("n", n, 1); err != nil {
		return nil, err
	}
	space, err := conf.NewSpace("i", "ib", "p", "pb", "q", "qb")
	if err != nil {
		return nil, err
	}
	pair := func(a, b string) conf.Config {
		return conf.MustUnit(space, a).Add(conf.MustUnit(space, b))
	}
	mk := func(name string, pre, post conf.Config) (petri.Transition, error) {
		return petri.NewTransition(name, pre, post)
	}
	specs := []struct {
		name      string
		pre, post conf.Config
	}{
		{"t", pair("i", "ib"), pair("p", "q")},
		{"tp", pair("pb", "i"), pair("p", "i")},
		{"tpb", pair("p", "ib"), pair("pb", "ib")},
		{"tq", pair("qb", "i"), pair("q", "i")},
		{"tqb", pair("q", "ib"), pair("qb", "ib")},
		{"tqbar", pair("p", "qb"), pair("p", "q")},
		{"tpbar", pair("q", "pb"), pair("q", "p")},
	}
	trans := make([]petri.Transition, 0, len(specs))
	for _, s := range specs {
		t, err := mk(s.name, s.pre, s.post)
		if err != nil {
			return nil, err
		}
		trans = append(trans, t)
	}
	net, err := petri.New(space, trans)
	if err != nil {
		return nil, err
	}
	leaders := conf.MustUnit(space, "ib").Scale(n)
	return core.NewProtocol(fmt.Sprintf("example42(n=%d)", n), net, leaders, []string{"i"},
		map[string]core.Output{
			"i": core.Out1, "p": core.Out1, "q": core.Out1,
			"ib": core.Out0, "pb": core.Out0, "qb": core.Out0,
		})
}

// FlockOfBirds builds the classical leaderless width-2 counting
// protocol with n+1 states: agents carry values that merge, saturating
// into a broadcast ⊤ once a pair sums to at least n.
//
// States: v1..v(n−1) (value k), z (value 0), T (saturated). For n = 1
// the protocol degenerates to a single always-accepting input state.
func FlockOfBirds(n int64) (*core.Protocol, error) {
	if err := atLeast("n", n, 1); err != nil {
		return nil, err
	}
	if n == 1 {
		space, err := conf.NewSpace("i")
		if err != nil {
			return nil, err
		}
		net, err := petri.New(space, nil)
		if err != nil {
			return nil, err
		}
		return core.NewProtocol("flock(n=1)", net, conf.New(space), []string{"i"},
			map[string]core.Output{"i": core.Out1})
	}
	names := []string{"i"} // i is v1
	for k := int64(2); k <= n-1; k++ {
		names = append(names, fmt.Sprintf("v%d", k))
	}
	names = append(names, "z", "T")
	space, err := conf.NewSpace(names...)
	if err != nil {
		return nil, err
	}
	valueState := func(k int64) string {
		if k == 1 {
			return "i"
		}
		return fmt.Sprintf("v%d", k)
	}
	u := func(name string) conf.Config { return conf.MustUnit(space, name) }
	var trans []petri.Transition
	add := func(name string, pre, post conf.Config) error {
		t, err := petri.NewTransition(name, pre, post)
		if err != nil {
			return err
		}
		trans = append(trans, t)
		return nil
	}
	// Merges: unordered value pairs (a ≤ b).
	for a := int64(1); a <= n-1; a++ {
		for b := a; b <= n-1; b++ {
			pre := u(valueState(a)).Add(u(valueState(b)))
			var post conf.Config
			if a+b >= n {
				post = u("T").Add(u("T"))
			} else {
				post = u(valueState(a + b)).Add(u("z"))
			}
			if err := add(fmt.Sprintf("m%d_%d", a, b), pre, post); err != nil {
				return nil, err
			}
		}
	}
	// Broadcast: T converts everything.
	for _, s := range names {
		if s == "T" {
			continue
		}
		if err := add("bT_"+s, u("T").Add(u(s)), u("T").Add(u("T"))); err != nil {
			return nil, err
		}
	}
	net, err := petri.New(space, trans)
	if err != nil {
		return nil, err
	}
	gamma := make(map[string]core.Output, len(names))
	for _, s := range names {
		gamma[s] = core.Out0
	}
	gamma["T"] = core.Out1
	return core.NewProtocol(fmt.Sprintf("flock(n=%d)", n), net, conf.New(space), []string{"i"}, gamma)
}

// PowerOfTwo builds the leaderless doubling protocol for n = 2^k with
// k+2 states: agents at level j hold value 2^j; equal levels merge
// upward; two agents at level k−1 saturate (their values sum to 2^k).
//
// This is the O(log n) upper-bound family for the infinitely many
// n = 2^k, in the style of [6].
func PowerOfTwo(k int64) (*core.Protocol, error) {
	if err := atLeast("k", k, 1); err != nil {
		return nil, err
	}
	names := []string{"i"} // i is level 0
	for j := int64(1); j < k; j++ {
		names = append(names, fmt.Sprintf("l%d", j))
	}
	names = append(names, "z", "T")
	space, err := conf.NewSpace(names...)
	if err != nil {
		return nil, err
	}
	level := func(j int64) string {
		if j == 0 {
			return "i"
		}
		return fmt.Sprintf("l%d", j)
	}
	u := func(name string) conf.Config { return conf.MustUnit(space, name) }
	var trans []petri.Transition
	add := func(name string, pre, post conf.Config) error {
		t, err := petri.NewTransition(name, pre, post)
		if err != nil {
			return err
		}
		trans = append(trans, t)
		return nil
	}
	for j := int64(0); j < k-1; j++ {
		pre := u(level(j)).Add(u(level(j)))
		post := u(level(j + 1)).Add(u("z"))
		if err := add(fmt.Sprintf("d%d", j), pre, post); err != nil {
			return nil, err
		}
	}
	if err := add("top", u(level(k-1)).Add(u(level(k-1))), u("T").Add(u("T"))); err != nil {
		return nil, err
	}
	for _, s := range names {
		if s == "T" {
			continue
		}
		if err := add("bT_"+s, u("T").Add(u(s)), u("T").Add(u("T"))); err != nil {
			return nil, err
		}
	}
	net, err := petri.New(space, trans)
	if err != nil {
		return nil, err
	}
	gamma := make(map[string]core.Output, len(names))
	for _, s := range names {
		gamma[s] = core.Out0
	}
	gamma["T"] = core.Out1
	return core.NewProtocol(fmt.Sprintf("power2(k=%d)", k), net, conf.New(space), []string{"i"}, gamma)
}

// LeaderDoubling builds a single-leader protocol for n = 2^k with
// k+6 states: the leader unfolds into 2^k agents in state ī by k rounds
// of doubling (using the model's agent creations), then Example 4.2
// decides the threshold against them.
func LeaderDoubling(k int64) (*core.Protocol, error) {
	if err := atLeast("k", k, 0); err != nil {
		return nil, err
	}
	names := []string{"i", "ib", "p", "pb", "q", "qb"}
	for j := int64(0); j < k; j++ {
		names = append(names, fmt.Sprintf("t%d", j))
	}
	space, err := conf.NewSpace(names...)
	if err != nil {
		return nil, err
	}
	u := func(name string) conf.Config { return conf.MustUnit(space, name) }
	pair := func(a, b string) conf.Config { return u(a).Add(u(b)) }
	tok := func(j int64) string {
		if j == k {
			return "ib"
		}
		return fmt.Sprintf("t%d", j)
	}
	var trans []petri.Transition
	add := func(name string, pre, post conf.Config) error {
		t, err := petri.NewTransition(name, pre, post)
		if err != nil {
			return err
		}
		trans = append(trans, t)
		return nil
	}
	// Doubling phase: t_j -> t_{j+1} + t_{j+1} (t_k = ī).
	for j := int64(0); j < k; j++ {
		if err := add(fmt.Sprintf("dbl%d", j), u(tok(j)), pair(tok(j+1), tok(j+1))); err != nil {
			return nil, err
		}
	}
	// Example 4.2 transitions.
	specs := []struct {
		name      string
		pre, post conf.Config
	}{
		{"t", pair("i", "ib"), pair("p", "q")},
		{"tp", pair("pb", "i"), pair("p", "i")},
		{"tpb", pair("p", "ib"), pair("pb", "ib")},
		{"tq", pair("qb", "i"), pair("q", "i")},
		{"tqb", pair("q", "ib"), pair("qb", "ib")},
		{"tqbar", pair("p", "qb"), pair("p", "q")},
		{"tpbar", pair("q", "pb"), pair("q", "p")},
	}
	for _, sp := range specs {
		if err := add(sp.name, sp.pre, sp.post); err != nil {
			return nil, err
		}
	}
	net, err := petri.New(space, trans)
	if err != nil {
		return nil, err
	}
	gamma := map[string]core.Output{
		"i": core.Out1, "p": core.Out1, "q": core.Out1,
		"ib": core.Out0, "pb": core.Out0, "qb": core.Out0,
	}
	for j := int64(0); j < k; j++ {
		gamma[fmt.Sprintf("t%d", j)] = core.Out0
	}
	leaders := u(tok(0))
	return core.NewProtocol(fmt.Sprintf("leaderdoubling(k=%d)", k), net, leaders, []string{"i"}, gamma)
}
