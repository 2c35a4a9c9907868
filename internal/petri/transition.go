// Package petri implements Petri nets over conf.Space state spaces:
// transitions, firing, budgeted reachability closures, coverability
// (backward algorithm and shortest-witness search) and the Karp–Miller
// coverability tree.
//
// Following Section 3 of Leroux (PODC 2022), a P-transition is a pair
// t = (α_t, β_t) of P-configurations, its interaction-width is
// |t| = max(|α_t|, |β_t|), and a Petri net is a finite set of
// transitions. Nets are not required to be conservative: transitions may
// create or destroy agents, as in the Angluin–Aspnes–Eisenstat model
// with creations/destructions the paper builds on.
package petri

import (
	"fmt"

	"repro/internal/conf"
)

// Transition is a P-transition t = (Pre, Post). Firing removes Pre and
// adds Post. Transitions are immutable after construction.
type Transition struct {
	// Name identifies the transition in diagnostics and witnesses.
	Name string
	// Pre is α_t, the multiset of agents consumed.
	Pre conf.Config
	// Post is β_t, the multiset of agents produced.
	Post conf.Config
}

// NewTransition builds a named transition, validating that both sides
// are over the same space.
func NewTransition(name string, pre, post conf.Config) (Transition, error) {
	if name == "" {
		return Transition{}, fmt.Errorf("petri: empty transition name")
	}
	if !pre.Space().Equal(post.Space()) {
		return Transition{}, fmt.Errorf("petri: transition %q mixes spaces", name)
	}
	return Transition{Name: name, Pre: pre, Post: post}, nil
}

// Width returns the interaction-width |t| = max(|Pre|, |Post|).
func (t Transition) Width() int64 {
	pre, post := t.Pre.Agents(), t.Post.Agents()
	if pre > post {
		return pre
	}
	return post
}

// NormInf returns ‖t‖∞ = max(‖Pre‖∞, ‖Post‖∞).
func (t Transition) NormInf() int64 {
	pre, post := t.Pre.NormInf(), t.Post.NormInf()
	if pre > post {
		return pre
	}
	return post
}

// Delta returns the displacement Δ(t)(p) = Post(p) − Pre(p) as a dense
// vector indexed by state.
func (t Transition) Delta() []int64 {
	d := make([]int64, t.Pre.Space().Len())
	for i := range d {
		d[i] = t.Post.Get(i) - t.Pre.Get(i)
	}
	return d
}

// Conservative reports whether the transition preserves the number of
// agents.
func (t Transition) Conservative() bool {
	return t.Pre.Agents() == t.Post.Agents()
}

// Fire returns the configuration reached by firing t from c, and ok
// reporting whether t was enabled.
func (t Transition) Fire(c conf.Config) (conf.Config, bool) {
	rest, ok := c.Sub(t.Pre)
	if !ok {
		return conf.Config{}, false
	}
	return rest.Add(t.Post), true
}

// Restrict returns t|Q, the transition whose sides are restricted to the
// target space (Section 5 of the paper).
func (t Transition) Restrict(q *conf.Space) Transition {
	return Transition{Name: t.Name, Pre: t.Pre.Restrict(q), Post: t.Post.Restrict(q)}
}

// String renders the transition as "name: pre -> post".
func (t Transition) String() string {
	return fmt.Sprintf("%s: %v -> %v", t.Name, t.Pre, t.Post)
}
