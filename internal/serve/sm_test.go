package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// allowedPairs enumerates the table's legal ordered edges.
func allowedPairs() [][2]JobState {
	var out [][2]JobState
	for s := JobState(0); s < numJobStates; s++ {
		for d := JobState(0); d < numJobStates; d++ {
			if jobSMConf[s].allowed&(1<<uint(d)) != 0 {
				out = append(out, [2]JobState{s, d})
			}
		}
	}
	return out
}

// The table itself must be well-formed: exactly one initial state,
// terminal states with no outgoing edges, no self-loops (a lifecycle
// phase never re-enters itself), and every state reachable from the
// initial one.
func TestSMTableWellFormed(t *testing.T) {
	var initials []JobState
	for s := JobState(0); s < numJobStates; s++ {
		c := jobSMConf[s]
		if c.name == "" {
			t.Errorf("state %d has no name", s)
		}
		if c.flags&smInitial != 0 {
			initials = append(initials, s)
		}
		if c.flags&smFinal != 0 && c.allowed != 0 {
			t.Errorf("final state %s has outgoing edges", s)
		}
		if c.flags&smFinal == 0 && c.allowed == 0 {
			t.Errorf("non-final state %s is a dead end", s)
		}
		if c.allowed&(1<<uint(s)) != 0 {
			t.Errorf("state %s allows a self-loop", s)
		}
		if c.allowed>>uint(numJobStates) != 0 {
			t.Errorf("state %s allows a transition past numJobStates", s)
		}
	}
	if len(initials) != 1 || initials[0] != StateAdmitted {
		t.Fatalf("initial states = %v, want exactly [admitted]", initials)
	}
	reached := map[JobState]bool{StateAdmitted: true}
	frontier := []JobState{StateAdmitted}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for d := JobState(0); d < numJobStates; d++ {
			if jobSMConf[s].allowed&(1<<uint(d)) != 0 && !reached[d] {
				reached[d] = true
				frontier = append(frontier, d)
			}
		}
	}
	for s := JobState(0); s < numJobStates; s++ {
		if !reached[s] {
			t.Errorf("state %s unreachable from %s", s, StateAdmitted)
		}
	}
}

// legalPaths enumerates every path from the initial state to a final
// state (the table is a DAG — TestSMTableWellFormed rejects loops at
// length one, and the enumeration would not terminate on longer ones,
// so a cycle fails this test by construction via the depth bound).
func legalPaths(t *testing.T) [][]JobState {
	var out [][]JobState
	var walk func(path []JobState)
	walk = func(path []JobState) {
		if len(path) > int(numJobStates) {
			t.Fatalf("path longer than the state count — cycle in the table: %v", path)
		}
		s := path[len(path)-1]
		if jobSMConf[s].flags&smFinal != 0 {
			out = append(out, append([]JobState(nil), path...))
			return
		}
		for d := JobState(0); d < numJobStates; d++ {
			if jobSMConf[s].allowed&(1<<uint(d)) != 0 {
				walk(append(path, d))
			}
		}
	}
	walk([]JobState{StateAdmitted})
	return out
}

// Conformance, accepting half: every legal admitted→terminal path
// must execute transition by transition. The expected path set is
// written out long-hand so a table edit shows up as a diff here, not
// just as a silently changed walk.
func TestSMWalksEveryLegalPath(t *testing.T) {
	paths := legalPaths(t)
	var got []string
	for _, p := range paths {
		m, err := newSM(nil)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		names = append(names, m.State().String())
		for _, next := range p[1:] {
			if err := m.To(next); err != nil {
				t.Fatalf("legal path %v refused at %s: %v", p, next, err)
			}
			names = append(names, next.String())
		}
		if jobSMConf[m.State()].flags&smFinal == 0 {
			t.Fatalf("path %v ended non-terminal", p)
		}
		got = append(got, strings.Join(names, "->"))
	}
	want := []string{
		"admitted->failed",
		"admitted->timed_out",
		"admitted->planned->cached",
		"admitted->planned->failed",
		"admitted->planned->timed_out",
		"admitted->planned->running->cached",
		"admitted->planned->running->failed",
		"admitted->planned->running->timed_out",
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d paths %v, want %d", len(got), got, len(want))
	}
	seen := map[string]bool{}
	for _, g := range got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("expected lifecycle path %q not derivable from the table (got %v)", w, got)
		}
	}
}

// Conformance, rejecting half: every ordered pair outside the table —
// including to/from out-of-range states — must refuse, leaving the
// state unchanged.
func TestSMRejectsEveryIllegalEdge(t *testing.T) {
	legal := map[[2]JobState]bool{}
	for _, e := range allowedPairs() {
		legal[e] = true
	}
	checked := 0
	for s := JobState(0); s < numJobStates; s++ {
		for d := JobState(0); d < numJobStates; d++ {
			if legal[[2]JobState{s, d}] {
				continue
			}
			m := SM{state: s}
			if err := m.To(d); err == nil {
				t.Errorf("illegal transition %s -> %s accepted", s, d)
			}
			if m.State() != s {
				t.Errorf("refused transition %s -> %s still moved the state to %s", s, d, m.State())
			}
			checked++
		}
	}
	// 6 states = 36 ordered pairs, 10 legal edges: 26 illegal.
	if wantIllegal := int(numJobStates*numJobStates) - len(allowedPairs()); checked != wantIllegal {
		t.Fatalf("checked %d illegal edges, want %d", checked, wantIllegal)
	}
	m, _ := newSM(nil)
	if err := m.To(numJobStates + 3); err == nil {
		t.Error("transition to out-of-range state accepted")
	}
	if err := m.To(-1); err == nil {
		t.Error("transition to negative state accepted")
	}
}

// The invariant hook fires on every transition and can veto a
// table-legal edge; a veto leaves the state unchanged.
func TestSMInvariantVetoes(t *testing.T) {
	artifactMissing := errors.New("no artifact")
	m, err := newSM(func(s JobState) error {
		if s == StateCached {
			return artifactMissing
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.To(StatePlanned); err != nil {
		t.Fatal(err)
	}
	if err := m.To(StateCached); !errors.Is(err, artifactMissing) {
		t.Fatalf("invariant not consulted: %v", err)
	}
	if m.State() != StatePlanned {
		t.Fatalf("vetoed transition moved the state to %s", m.State())
	}
	if err := m.To(StateFailed); err != nil {
		t.Fatalf("veto wedged the SM: %v", err)
	}

	// An invariant that rejects the initial state prevents construction.
	if _, err := newSM(func(s JobState) error {
		return fmt.Errorf("nothing is ever admissible")
	}); err == nil {
		t.Fatal("newSM accepted an inadmissible initial state")
	}
}
