package petri

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/conf"
)

// Net is a P-Petri net: a finite set of transitions over a shared space.
// Nets are immutable after construction.
type Net struct {
	space *conf.Space
	trans []Transition

	idxOnce sync.Once
	idx     *Index
}

// New builds a net, validating that every transition is over the given
// space and that transition names are unique. Empty spaces are allowed:
// they arise as degenerate restrictions T|∅ in the bottom-configuration
// analysis of Section 6.
func New(space *conf.Space, trans []Transition) (*Net, error) {
	seen := make(map[string]bool, len(trans))
	owned := make([]Transition, len(trans))
	for i, t := range trans {
		if !t.Pre.Space().Equal(space) || !t.Post.Space().Equal(space) {
			return nil, fmt.Errorf("petri: transition %q not over space %v", t.Name, space)
		}
		if t.Name == "" {
			return nil, fmt.Errorf("petri: unnamed transition at index %d", i)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("petri: duplicate transition name %q", t.Name)
		}
		seen[t.Name] = true
		owned[i] = t
	}
	return &Net{space: space, trans: owned}, nil
}

// Space returns the net's state space.
func (n *Net) Space() *conf.Space { return n.space }

// Index returns the net's precomputed dependency index, building it on
// first use. It is safe for concurrent callers.
func (n *Net) Index() *Index {
	n.idxOnce.Do(func() { n.idx = buildIndex(n) })
	return n.idx
}

// Len returns the number of transitions |T|.
func (n *Net) Len() int { return len(n.trans) }

// At returns the i-th transition.
func (n *Net) At(i int) Transition { return n.trans[i] }

// Transitions returns a copy of the transition list.
func (n *Net) Transitions() []Transition {
	out := make([]Transition, len(n.trans))
	copy(out, n.trans)
	return out
}

// Width returns max_t |t|, the interaction-width of the net's
// reachability relation (Section 3).
func (n *Net) Width() int64 {
	var w int64
	for _, t := range n.trans {
		if tw := t.Width(); tw > w {
			w = tw
		}
	}
	return w
}

// NormInf returns ‖T‖∞ = max_t ‖t‖∞.
func (n *Net) NormInf() int64 {
	var m int64
	for _, t := range n.trans {
		if tm := t.NormInf(); tm > m {
			m = tm
		}
	}
	return m
}

// Conservative reports whether every transition preserves the agent
// count (the classical population-protocol setting).
func (n *Net) Conservative() bool {
	for _, t := range n.trans {
		if !t.Conservative() {
			return false
		}
	}
	return true
}

// Restrict returns the Q-Petri net T|Q = {t|Q : t ∈ T} (Section 5).
// Distinct transitions whose restrictions coincide are merged, keeping
// the first name.
func (n *Net) Restrict(q *conf.Space) (*Net, error) {
	seen := make(map[string]bool, len(n.trans))
	out := make([]Transition, 0, len(n.trans))
	for _, t := range n.trans {
		r := t.Restrict(q)
		key := r.Pre.Key() + "|" + r.Post.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return New(q, out)
}

// FireWord fires the word of transition indices from c, returning the
// final configuration. It fails if any step is disabled.
func (n *Net) FireWord(c conf.Config, word []int) (conf.Config, error) {
	cur := c
	for step, i := range word {
		if i < 0 || i >= len(n.trans) {
			return conf.Config{}, fmt.Errorf("petri: word step %d: no transition %d", step, i)
		}
		next, ok := n.trans[i].Fire(cur)
		if !ok {
			return conf.Config{}, fmt.Errorf("petri: word step %d: %q disabled at %v", step, n.trans[i].Name, cur)
		}
		cur = next
	}
	return cur, nil
}

// WordNames renders a word of transition indices as names.
func (n *Net) WordNames(word []int) []string {
	out := make([]string, len(word))
	for i, t := range word {
		out[i] = n.trans[t].Name
	}
	return out
}

// String renders the net one transition per line.
func (n *Net) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "petri net over %v (%d transitions, width %d)\n", n.space, n.Len(), n.Width())
	for _, t := range n.trans {
		fmt.Fprintf(&b, "  %v\n", t)
	}
	return b.String()
}
