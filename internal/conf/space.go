// Package conf provides finite state spaces and configurations for
// population protocols and Petri nets.
//
// A Space is an interned, ordered, finite set of named states (the set P
// of the paper). A Config is a multiset over a Space, i.e. a mapping in
// ℕ^P; Config values are the fundamental objects of the protocol model:
// populations, markings, leader configurations and transition sides are
// all Configs.
//
// Terminology follows Leroux, "State Complexity of Protocols With
// Leaders" (PODC 2022), Section 2.
package conf

import (
	"fmt"
	"strings"
)

// Space is an immutable, ordered finite set of states. The zero value is
// the empty space; use NewSpace to build a non-empty one. States are
// identified by name at the API boundary and by dense index internally.
type Space struct {
	names []string
	index map[string]int
}

// NewSpace builds a space from the given state names, preserving order.
// It returns an error if a name is empty or duplicated.
func NewSpace(names ...string) (*Space, error) {
	s := &Space{
		names: make([]string, 0, len(names)),
		index: make(map[string]int, len(names)),
	}
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("conf: empty state name at position %d", len(s.names))
		}
		if _, dup := s.index[name]; dup {
			return nil, fmt.Errorf("conf: duplicate state name %q", name)
		}
		s.index[name] = len(s.names)
		s.names = append(s.names, name)
	}
	return s, nil
}

// MustSpace is NewSpace for statically known, valid name lists. It is
// intended for tests, examples and generated constructions; it panics on
// the errors NewSpace would report.
func MustSpace(names ...string) *Space {
	s, err := NewSpace(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of states |P|.
func (s *Space) Len() int {
	if s == nil {
		return 0
	}
	return len(s.names)
}

// Name returns the name of the state with the given index.
func (s *Space) Name(i int) string { return s.names[i] }

// Index returns the index of the named state and whether it exists.
func (s *Space) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Contains reports whether the named state belongs to the space.
func (s *Space) Contains(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Names returns a copy of the ordered state names.
func (s *Space) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Sub builds the sub-space consisting of the given named states, in the
// given order. It returns an error if a name is unknown or duplicated.
func (s *Space) Sub(names ...string) (*Space, error) {
	for _, name := range names {
		if !s.Contains(name) {
			return nil, fmt.Errorf("conf: state %q not in space", name)
		}
	}
	return NewSpace(names...)
}

// IndexMap returns, for each state of q in order, the index of the
// same-named state in s, or −1 when s does not contain it. It is the
// precomputed form of the per-name Index lookups behind
// Config.Restrict, for callers restricting many configurations to the
// same sub-space (Config.RestrictInto).
func (s *Space) IndexMap(q *Space) []int {
	out := make([]int, q.Len())
	for i := 0; i < q.Len(); i++ {
		if j, ok := s.Index(q.Name(i)); ok {
			out[i] = j
		} else {
			out[i] = -1
		}
	}
	return out
}

// String renders the space as {p, q, ...}.
func (s *Space) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range s.names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(name)
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether two spaces have the same states in the same order.
func (s *Space) Equal(t *Space) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i, name := range s.names {
		if t.names[i] != name {
			return false
		}
	}
	return true
}
