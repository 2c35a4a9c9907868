package counting

import (
	"fmt"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/petri"
)

// Tower builds the Θ(log log n) protocol family for n(k) = 2^(2^k): a
// single leader simulates the repeated-squaring register machine
// machine.SquaringProgram(k) on agent populations, then compares the
// produced register against the input agents. States: 6k + 13, width 3,
// one leader.
//
// Faithfulness note (DESIGN.md substitution 1): the squaring loops need
// zero-tests, which population protocols cannot perform; loop exits are
// nondeterministic guesses. Detectable inconsistencies (leftover a/b̂/c
// tokens in later phases) send the leader to an error state that wipes
// the computation and restarts it, but an early exit from the inner
// marking loop silently under-approximates the product — this is
// precisely the obstruction that restricts the Blondin–Esparza–Jaax
// O(log log n) upper bound to infinitely many specially chosen n rather
// than all n. Tower therefore reproduces the state-count scaling of [6]
// (the quantity Theorem 4.3 is matched against) while stable
// computation holds only for k = 0; the test suite demonstrates both
// facts and EXPERIMENTS.md reports them.
//
// Protocol structure, per squaring level j ∈ [0, k):
//
//	P0_j split:   (P0, r) → (P0, a, b)      copy register into a and b
//	P1_j outer:   (P1, a) → (P2)            pick a multiplicand
//	P2_j inner:   (P2, b) → (P2, b̂, c)      emit one product token per b
//	P3_j unmark:  (P3, b̂) → (P3, b)
//	P4_j drop:    (P4, b) → (P4)
//	P5_j rename:  (P5, c) → (P5, r)         (→ m at the last level)
//
// with guessed exits P0→P1, P2→P3, P3→P1, P1→P4, P4→P5, P5→next, error
// rules (phase, forbidden token) → (E, token), an error state E that
// deletes tokens and restores converted inputs before restarting, and a
// final majority-style comparison of input tokens i against register
// tokens m with tie-accepting follower dynamics.
func Tower(k int64) (*core.Protocol, error) {
	if err := towerLevel(k); err != nil {
		return nil, err
	}

	names := []string{"i", "r", "a", "b", "bp", "c", "m", "fi0", "fi1", "fm0", "fm1", "Linit", "E"}
	phase := func(j int64, p int) string { return fmt.Sprintf("P%d_%d", p, j) }
	for j := int64(0); j < k; j++ {
		for p := 0; p <= 5; p++ {
			names = append(names, phase(j, p))
		}
	}
	space, err := conf.NewSpace(names...)
	if err != nil {
		return nil, err
	}
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	var trans []petri.Transition
	next := 0
	add := func(label string, pre, post conf.Config) error {
		t, err := petri.NewTransition(fmt.Sprintf("%s#%d", label, next), pre, post)
		if err != nil {
			return err
		}
		next++
		trans = append(trans, t)
		return nil
	}
	move := func(label, from, to string) error { return add(label, u(from), u(to)) }

	// Leader start: create R = 2 and enter the first phase; for k = 0
	// the register is already the final one (m) and the leader becomes
	// an accepting follower.
	if k == 0 {
		if err := add("init", u("Linit"), u("fi1").Add(u("m")).Add(u("m"))); err != nil {
			return nil, err
		}
	} else {
		if err := add("init", u("Linit"), u(phase(0, 0)).Add(u("r")).Add(u("r"))); err != nil {
			return nil, err
		}
	}
	// Strays at Linit are errors (possible after an E → Linit restart
	// raced with cleanup).
	for _, s := range []string{"r", "a", "b", "bp", "c", "m"} {
		if err := add("initerr_"+s, u("Linit").Add(u(s)), u("E").Add(u(s))); err != nil {
			return nil, err
		}
	}

	for j := int64(0); j < k; j++ {
		last := j == k-1
		// P0: split r into a + b.
		if err := add(fmt.Sprintf("split%d", j), u(phase(j, 0)).Add(u("r")),
			u(phase(j, 0)).Add(u("a")).Add(u("b"))); err != nil {
			return nil, err
		}
		if err := move(fmt.Sprintf("x01_%d", j), phase(j, 0), phase(j, 1)); err != nil {
			return nil, err
		}
		// P1: pick one a, enter inner loop.
		if err := add(fmt.Sprintf("pick%d", j), u(phase(j, 1)).Add(u("a")), u(phase(j, 2))); err != nil {
			return nil, err
		}
		if err := move(fmt.Sprintf("x14_%d", j), phase(j, 1), phase(j, 4)); err != nil {
			return nil, err
		}
		// P2: mark each b, emitting a product token.
		if err := add(fmt.Sprintf("mark%d", j), u(phase(j, 2)).Add(u("b")),
			u(phase(j, 2)).Add(u("bp")).Add(u("c"))); err != nil {
			return nil, err
		}
		if err := move(fmt.Sprintf("x23_%d", j), phase(j, 2), phase(j, 3)); err != nil {
			return nil, err
		}
		// P3: unmark.
		if err := add(fmt.Sprintf("unmark%d", j), u(phase(j, 3)).Add(u("bp")),
			u(phase(j, 3)).Add(u("b"))); err != nil {
			return nil, err
		}
		if err := move(fmt.Sprintf("x31_%d", j), phase(j, 3), phase(j, 1)); err != nil {
			return nil, err
		}
		// P4: drop the b copies.
		if err := add(fmt.Sprintf("drop%d", j), u(phase(j, 4)).Add(u("b")), u(phase(j, 4))); err != nil {
			return nil, err
		}
		if err := move(fmt.Sprintf("x45_%d", j), phase(j, 4), phase(j, 5)); err != nil {
			return nil, err
		}
		// P5: rename product tokens into the next register (or the
		// comparison register at the last level).
		target := "r"
		if last {
			target = "m"
		}
		if err := add(fmt.Sprintf("rename%d", j), u(phase(j, 5)).Add(u("c")),
			u(phase(j, 5)).Add(u(target))); err != nil {
			return nil, err
		}
		if last {
			if err := move(fmt.Sprintf("x5f_%d", j), phase(j, 5), "fi1"); err != nil {
				return nil, err
			}
		} else {
			if err := move(fmt.Sprintf("x50_%d", j), phase(j, 5), phase(j+1, 0)); err != nil {
				return nil, err
			}
		}
		// Error rules: forbidden tokens per phase.
		forbidden := map[int][]string{
			0: {"a", "b", "bp", "c"},
			1: {"bp"},
			4: {"a", "bp"},
			5: {"a", "b", "bp"},
		}
		for p, toks := range forbidden {
			for _, s := range toks {
				if err := add(fmt.Sprintf("err%d_%d_%s", j, p, s),
					u(phase(j, p)).Add(u(s)), u("E").Add(u(s))); err != nil {
					return nil, err
				}
			}
		}
	}

	// Error state: delete computation tokens, restore converted inputs,
	// then retry from Linit.
	for _, s := range []string{"r", "a", "b", "bp", "c", "m", "fm0", "fm1"} {
		if err := add("eclean_"+s, u("E").Add(u(s)), u("E")); err != nil {
			return nil, err
		}
	}
	for _, s := range []string{"fi0", "fi1"} {
		if err := add("erestore_"+s, u("E").Add(u(s)), u("E").Add(u("i"))); err != nil {
			return nil, err
		}
	}
	if err := move("eexit", "E", "Linit"); err != nil {
		return nil, err
	}

	// Comparison: majority of i against m with ties accepting.
	if err := add("cancel", u("i").Add(u("m")), u("fi1").Add(u("fm1"))); err != nil {
		return nil, err
	}
	for _, f := range []string{"fi", "fm"} {
		if err := add("iwin_"+f, u("i").Add(u(f+"0")), u("i").Add(u(f+"1"))); err != nil {
			return nil, err
		}
		if err := add("mwin_"+f, u("m").Add(u(f+"1")), u("m").Add(u(f+"0"))); err != nil {
			return nil, err
		}
	}
	for _, f1 := range []string{"fi1", "fm1"} {
		for _, f0 := range []string{"fi0", "fm0"} {
			up := "fi1"
			if f0 == "fm0" {
				up = "fm1"
			}
			if err := add("tie_"+f1+"_"+f0, u(f1).Add(u(f0)), u(f1).Add(u(up))); err != nil {
				return nil, err
			}
		}
	}
	// Followers eat stray computation tokens left behind by a leader
	// that rushed to the comparison.
	for _, f := range []string{"fi0", "fi1", "fm0", "fm1"} {
		for _, s := range []string{"a", "b", "bp", "c", "r"} {
			if err := add("eat_"+f+"_"+s, u(f).Add(u(s)), u(f)); err != nil {
				return nil, err
			}
		}
	}

	net, err := petri.New(space, trans)
	if err != nil {
		return nil, err
	}
	gamma := map[string]core.Output{
		"i": core.Out1, "fi1": core.Out1, "fm1": core.Out1,
		"m": core.Out0, "fi0": core.Out0, "fm0": core.Out0,
	}
	for _, s := range names {
		if _, ok := gamma[s]; !ok {
			gamma[s] = core.OutStar
		}
	}
	leaders := u("Linit")
	return core.NewProtocol(fmt.Sprintf("tower(k=%d)", k), net, leaders, []string{"i"}, gamma)
}

// towerLevel is Tower's parameter check: 2^(2^k) must fit an int64.
func towerLevel(k int64) error {
	if err := atLeast("k", k, 0); err != nil {
		return err
	}
	if k > 5 {
		return fmt.Errorf("counting: k = %d makes n = 2^(2^k) exceed int64", k)
	}
	return nil
}

// TowerSize is the size of Tower(k): 13 fixed states plus six phases
// per level; 47 fixed transitions (start, strays, error cleanup and
// restore, comparison, follower clean-up) plus 22 per level (twelve
// phase steps and ten error rules).
func TowerSize(k int64) (Size, error) {
	if err := towerLevel(k); err != nil {
		return Size{}, err
	}
	return Size{States: 6*k + 13, Transitions: 22*k + 47}, nil
}

// TowerThreshold returns n(k) = 2^(2^k), the intended threshold of
// Tower(k).
func TowerThreshold(k int64) (int64, error) {
	return machine.TowerValueInt64(int(k))
}
