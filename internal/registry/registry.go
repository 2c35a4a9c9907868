// Package registry names the built-in protocol constructions so CLI
// tools and examples can instantiate them uniformly.
package registry

import (
	"fmt"
	"math"
	"sort"

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

// Make builds a named protocol.
func Make(name string, param int64) (*core.Protocol, int64, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, 0, err
	}
	return e.Make(param)
}
