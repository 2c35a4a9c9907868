// Package registry names the built-in protocol constructions so CLI
// tools and examples can instantiate them uniformly. Make builds each
// protocol once per process while it fits a bounded memo; the
// protocols it returns are shared and must not be mutated.
package registry

import (
	"container/list"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/spec"
)

// Entry describes a named construction.
type Entry struct {
	// Name is the registry key.
	Name string
	// Param documents the meaning of the parameter.
	Param string
	// Input is the protocol's first input state (the x of a counting
	// predicate x ≥ n).
	Input string
	// Make builds the protocol for a parameter value and returns it
	// together with the counting threshold n it decides (0 when the
	// protocol does not decide a counting predicate).
	Make func(param int64) (*core.Protocol, int64, error)
	// Shape states, as arithmetic on the parameter, what Make would
	// return without building anything: the threshold and the size of
	// the protocol. It rejects exactly the parameters Make rejects,
	// with the same error.
	Shape func(param int64) (Shape, error)
}

// Shape is what a construction's parameter determines: the counting
// threshold n it decides (0 when it decides no counting predicate) and
// the number of states and transitions it builds.
type Shape struct {
	Threshold int64
	counting.Size
}

// Cells prices a construction's memory: Make stores every transition
// as dense pre and post vectors over the states, plus a per-transition
// constant (name, index entries) worth about eight states, so its
// allocation grows as Transitions × (States + 8). Measured: 30–60
// bytes per cell for flock, power2, leaderdoubling and example41.
// Saturates at math.MaxInt64.
func (s Shape) Cells() int64 {
	per := s.States + 8
	if s.States > math.MaxInt64-8 {
		per = math.MaxInt64
	}
	if s.Transitions != 0 && per > math.MaxInt64/s.Transitions {
		return math.MaxInt64
	}
	return s.Transitions * per
}

// sized combines a construction's size and threshold functions into
// its Shape function.
func sized(size func(int64) (counting.Size, error), threshold func(int64) (int64, error)) func(int64) (Shape, error) {
	return func(param int64) (Shape, error) {
		sz, err := size(param)
		if err != nil {
			return Shape{}, err
		}
		n, err := threshold(param)
		if err != nil {
			return Shape{}, err
		}
		return Shape{Threshold: n, Size: sz}, nil
	}
}

// identity and pow2 are the thresholds of the n- and k-parameterized
// families; pow2 is the shift Make uses, so the two agree on every k.
func identity(n int64) (int64, error) { return n, nil }
func pow2(k int64) (int64, error)     { return 1 << k, nil }

var entries = map[string]Entry{
	"example41": {
		Name: "example41", Param: "n (threshold)", Input: counting.InputState,
		Make: func(n int64) (*core.Protocol, int64, error) {
			p, err := counting.Example41(n)
			return p, n, err
		},
		Shape: sized(counting.Example41Size, identity),
	},
	"example42": {
		Name: "example42", Param: "n (threshold = leader count)", Input: counting.InputState,
		Make: func(n int64) (*core.Protocol, int64, error) {
			p, err := counting.Example42(n)
			return p, n, err
		},
		Shape: sized(counting.Example42Size, identity),
	},
	"flock": {
		Name: "flock", Param: "n (threshold)", Input: counting.InputState,
		Make: func(n int64) (*core.Protocol, int64, error) {
			p, err := counting.FlockOfBirds(n)
			return p, n, err
		},
		Shape: sized(counting.FlockOfBirdsSize, identity),
	},
	"power2": {
		Name: "power2", Param: "k (threshold 2^k)", Input: counting.InputState,
		Make: func(k int64) (*core.Protocol, int64, error) {
			p, err := counting.PowerOfTwo(k)
			if err != nil {
				return nil, 0, err
			}
			return p, 1 << k, nil
		},
		Shape: sized(counting.PowerOfTwoSize, pow2),
	},
	"leaderdoubling": {
		Name: "leaderdoubling", Param: "k (threshold 2^k)", Input: counting.InputState,
		Make: func(k int64) (*core.Protocol, int64, error) {
			p, err := counting.LeaderDoubling(k)
			if err != nil {
				return nil, 0, err
			}
			return p, 1 << k, nil
		},
		Shape: sized(counting.LeaderDoublingSize, pow2),
	},
	"tower": {
		Name: "tower", Param: "k (threshold 2^(2^k); see DESIGN.md on soundness)", Input: counting.InputState,
		Make: func(k int64) (*core.Protocol, int64, error) {
			p, err := counting.Tower(k)
			if err != nil {
				return nil, 0, err
			}
			n, err := counting.TowerThreshold(k)
			if err != nil {
				return nil, 0, err
			}
			return p, n, nil
		},
		Shape: sized(counting.TowerSize, counting.TowerThreshold),
	},
	"majority": {
		Name: "majority", Param: "(ignored) decides A > B", Input: "A",
		Make: func(int64) (*core.Protocol, int64, error) {
			p, err := spec.Majority("A", "B")
			return p, 0, err
		},
		// Inputs A and B plus the follower states a and b; one
		// transition per rule of the protocol.
		Shape: func(int64) (Shape, error) {
			return Shape{Size: counting.Size{States: 4, Transitions: 4}}, nil
		},
	},
}

// Names lists the registered constructions in sorted order.
func Names() []string {
	out := make([]string, 0, len(entries))
	for n := range entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the entry for a name.
func Lookup(name string) (Entry, error) {
	e, ok := entries[name]
	if !ok {
		return Entry{}, fmt.Errorf("registry: unknown protocol %q (have %v)", name, Names())
	}
	return e, nil
}

// ShapeOf states a named protocol's threshold and size without
// building it.
func ShapeOf(name string, param int64) (Shape, error) {
	e, err := Lookup(name)
	if err != nil {
		return Shape{}, err
	}
	return e.Shape(param)
}

// memoCells is the budget, in Shape.Cells, of the protocols Make
// keeps: 2^16 cells, a few MB of built protocols. Every protocol the
// sweep benchmark's mix runs fits at once (16 protocols, 13 108
// cells); a protocol over the whole budget is built on every call and
// never kept.
const memoCells = 1 << 16

// memoKey names one built protocol.
type memoKey struct {
	name  string
	param int64
}

// memoEntry is one kept protocol with its threshold and price.
type memoEntry struct {
	key   memoKey
	p     *core.Protocol
	n     int64
	cells int64
}

// memo keeps recently built protocols in least-recently-used order
// (front: most recent) within memoCells.
var memo = struct {
	sync.Mutex
	byKey map[memoKey]*list.Element
	lru   list.List
	cells int64
}{byKey: map[memoKey]*list.Element{}}

// Make returns a named protocol, built once per process while it stays
// in the memo: protocols are immutable after construction and their
// dependency index is built once under a sync.Once, so every caller,
// on any goroutine, can share one. Errors are never kept; a rejected
// parameter is rejected again, with the same error, on every call.
func Make(name string, param int64) (*core.Protocol, int64, error) {
	key := memoKey{name, param}
	memo.Lock()
	hit := recent(key)
	memo.Unlock()
	if hit != nil {
		return hit.p, hit.n, nil
	}
	e, err := Lookup(name)
	if err != nil {
		return nil, 0, err
	}
	p, n, err := e.Make(param)
	if err != nil {
		return nil, 0, err
	}
	sh := Shape{Size: counting.Size{States: int64(p.States()), Transitions: int64(p.Net().Len())}}
	if cells := sh.Cells(); cells <= memoCells {
		p, n = keep(&memoEntry{key: key, p: p, n: n, cells: cells})
	}
	return p, n, nil
}

// recent returns the kept entry for key, marking it most recently
// used, or nil. The caller holds the memo's lock.
func recent(key memoKey) *memoEntry {
	el, ok := memo.byKey[key]
	if !ok {
		return nil
	}
	memo.lru.MoveToFront(el)
	return el.Value.(*memoEntry)
}

// keep adds a freshly built protocol to the memo, evicting the least
// recently used ones until it fits, and returns the memo's protocol
// for its key: when another caller built and kept the same protocol
// meanwhile, that one wins, so all callers share one.
func keep(e *memoEntry) (*core.Protocol, int64) {
	memo.Lock()
	defer memo.Unlock()
	if have := recent(e.key); have != nil {
		return have.p, have.n
	}
	for memo.cells+e.cells > memoCells {
		old := memo.lru.Remove(memo.lru.Back()).(*memoEntry)
		delete(memo.byKey, old.key)
		memo.cells -= old.cells
	}
	memo.byKey[e.key] = memo.lru.PushFront(e)
	memo.cells += e.cells
	return e.p, e.n
}
