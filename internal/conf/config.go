package conf

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Config is a multiset of agents over a Space: a mapping ρ ∈ ℕ^P.
// Configs are value-like: arithmetic methods return fresh Configs and
// never mutate their receiver unless the method name says InPlace.
//
// The zero value is not usable; construct Configs with New, FromMap,
// Unit or Parse.
type Config struct {
	space *Space
	v     []int64
}

// New returns the zero configuration over the given space.
func New(space *Space) Config {
	return Config{space: space, v: make([]int64, space.Len())}
}

// FromMap builds a configuration from state-name counts. Unknown names
// and negative counts are errors; names absent from the map count zero.
func FromMap(space *Space, counts map[string]int64) (Config, error) {
	c := New(space)
	for name, n := range counts {
		i, ok := space.Index(name)
		if !ok {
			return Config{}, fmt.Errorf("conf: state %q not in space %v", name, space)
		}
		if n < 0 {
			return Config{}, fmt.Errorf("conf: negative count %d for state %q", n, name)
		}
		c.v[i] = n
	}
	return c, nil
}

// MustFromMap is FromMap for statically valid inputs; it panics on error.
func MustFromMap(space *Space, counts map[string]int64) Config {
	c, err := FromMap(space, counts)
	if err != nil {
		panic(err)
	}
	return c
}

// FromSlice builds a configuration from per-state counts in space order.
// The slice length must equal the space size and counts must be
// non-negative.
func FromSlice(space *Space, counts []int64) (Config, error) {
	if len(counts) != space.Len() {
		return Config{}, fmt.Errorf("conf: %d counts for %d states", len(counts), space.Len())
	}
	c := New(space)
	for i, n := range counts {
		if n < 0 {
			return Config{}, fmt.Errorf("conf: negative count %d for state %q", n, space.Name(i))
		}
		c.v[i] = n
	}
	return c, nil
}

// Unit returns the configuration with a single agent in the named state
// (the mapping written p|P in the paper).
func Unit(space *Space, name string) (Config, error) {
	i, ok := space.Index(name)
	if !ok {
		return Config{}, fmt.Errorf("conf: state %q not in space %v", name, space)
	}
	c := New(space)
	c.v[i] = 1
	return c, nil
}

// MustUnit is Unit for statically valid states; it panics on error.
func MustUnit(space *Space, name string) Config {
	c, err := Unit(space, name)
	if err != nil {
		panic(err)
	}
	return c
}

// View wraps a count slice as a Config without copying: the Config
// aliases counts. It is the zero-copy complement of FromSlice for
// arena-backed closure engines handing out node views; the caller must
// keep the slice unmutated and every count non-negative. The slice
// length must equal the space size.
func View(space *Space, counts []int64) Config {
	if len(counts) != space.Len() {
		panic(fmt.Sprintf("conf: %d counts viewed over space %v", len(counts), space))
	}
	return Config{space: space, v: counts}
}

// Space returns the space the configuration is over.
func (c Config) Space() *Space { return c.space }

// Get returns the number of agents in the state with the given index.
func (c Config) Get(i int) int64 { return c.v[i] }

// GetName returns the number of agents in the named state, or 0 if the
// state is not part of the space (matching the paper's ρ|Q convention).
func (c Config) GetName(name string) int64 {
	i, ok := c.space.Index(name)
	if !ok {
		return 0
	}
	return c.v[i]
}

// Clone returns an independent copy of the configuration.
func (c Config) Clone() Config {
	out := Config{space: c.space, v: make([]int64, len(c.v))}
	copy(out.v, c.v)
	return out
}

// Agents returns |ρ|, the total number of agents.
func (c Config) Agents() int64 {
	var total int64
	for _, n := range c.v {
		total += n
	}
	return total
}

// NormInf returns ‖ρ‖∞ = max_p ρ(p).
func (c Config) NormInf() int64 {
	var m int64
	for _, n := range c.v {
		if n > m {
			m = n
		}
	}
	return m
}

// IsZero reports whether the configuration has no agents.
func (c Config) IsZero() bool {
	for _, n := range c.v {
		if n != 0 {
			return false
		}
	}
	return true
}

// Support returns the indices of states with at least one agent.
func (c Config) Support() []int {
	var out []int
	for i, n := range c.v {
		if n > 0 {
			out = append(out, i)
		}
	}
	return out
}

// RawCounts returns the configuration's backing count slice; mutating
// it mutates the configuration. Like the other in-place methods it is
// reserved for callers that own the receiver (simulation engines) and
// must keep every count non-negative.
func (c Config) RawCounts() []int64 { return c.v }

// AddDeltaInPlace adds the dense displacement d (one slot per state,
// indexed like the space, entries may be negative) to the receiver in
// place when every resulting count stays non-negative, reporting
// ok=true; otherwise it leaves the receiver unchanged and reports
// ok=false. Like the other in-place methods it is reserved for callers
// that own the receiver; batch simulation engines use it to apply an
// aggregate of many interactions at once.
func (c Config) AddDeltaInPlace(d []int64) bool {
	if len(d) != len(c.v) {
		panic(fmt.Sprintf("conf: displacement over %d states applied to space %v", len(d), c.space))
	}
	for i, n := range d {
		if c.v[i]+n < 0 {
			// Roll back the prefix already applied.
			for j := 0; j < i; j++ {
				c.v[j] -= d[j]
			}
			return false
		}
		c.v[i] += n
	}
	return true
}

// CopyFrom overwrites the receiver's counts with d's, mutating it. Both
// configurations must be over the same space; the caller owns the
// receiver.
func (c Config) CopyFrom(d Config) {
	c.mustSameSpace(d)
	copy(c.v, d.v)
}

// Add returns c + d (componentwise). Both configurations must be over
// the same space.
func (c Config) Add(d Config) Config {
	c.mustSameSpace(d)
	out := c.Clone()
	for i, n := range d.v {
		out.v[i] += n
	}
	return out
}

// Sub returns c − d and ok=true when d ≤ c; otherwise ok=false.
func (c Config) Sub(d Config) (Config, bool) {
	c.mustSameSpace(d)
	out := c.Clone()
	for i, n := range d.v {
		out.v[i] -= n
		if out.v[i] < 0 {
			return Config{}, false
		}
	}
	return out, true
}

// Scale returns n·ρ.
func (c Config) Scale(n int64) Config {
	if n < 0 {
		panic("conf: negative scale")
	}
	out := c.Clone()
	for i := range out.v {
		out.v[i] *= n
	}
	return out
}

// Leq reports whether c ≤ d componentwise.
func (c Config) Leq(d Config) bool {
	c.mustSameSpace(d)
	for i, n := range c.v {
		if n > d.v[i] {
			return false
		}
	}
	return true
}

// Equal reports whether c and d agree on every state.
func (c Config) Equal(d Config) bool {
	if !c.space.Equal(d.space) {
		return false
	}
	for i, n := range c.v {
		if n != d.v[i] {
			return false
		}
	}
	return true
}

// Restrict returns ρ|Q: the configuration over the target space q whose
// count on each state of q equals ρ's count when the state also belongs
// to ρ's space, and zero otherwise. Following Section 2 of the paper, q
// need not be a subset of ρ's space.
func (c Config) Restrict(q *Space) Config {
	out := New(q)
	for i := 0; i < q.Len(); i++ {
		if j, ok := c.space.Index(q.Name(i)); ok {
			out.v[i] = c.v[j]
		}
	}
	return out
}

// RestrictInto writes the counts of ρ|q into dst, using an index map
// previously computed with c.Space().IndexMap(q): dst[i] receives the
// count of q's i-th state, or zero when that state is not in ρ's
// space. It is the scratch-buffer form of Restrict for hot loops that
// restrict many configurations to the same sub-space; dst must have
// the target space's length.
func (c Config) RestrictInto(dst []int64, idxMap []int) {
	for i, j := range idxMap {
		if j >= 0 {
			dst[i] = c.v[j]
		} else {
			dst[i] = 0
		}
	}
}

// Embed returns the configuration over the target space p that agrees
// with c on c's states. Every state of c's space carrying agents must
// exist in p.
func (c Config) Embed(p *Space) (Config, error) {
	out := New(p)
	for i, n := range c.v {
		if n == 0 {
			continue
		}
		j, ok := p.Index(c.space.Name(i))
		if !ok {
			return Config{}, fmt.Errorf("conf: cannot embed: state %q not in target space", c.space.Name(i))
		}
		out.v[j] = n
	}
	return out, nil
}

// ZeroOutside reports whether ρ(p) = 0 for every state p whose index is
// not marked true in keep. It is the predicate used by stabilized
// configurations (Section 5).
func (c Config) ZeroOutside(keep []bool) bool {
	for i, n := range c.v {
		if n != 0 && !keep[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key identifying the configuration's
// counts. Keys are only comparable between configurations over equal
// spaces; they are intended as map keys for visited-set bookkeeping.
func (c Config) Key() string {
	buf := make([]byte, 0, len(c.v)*2)
	var tmp [binary.MaxVarintLen64]byte
	for _, n := range c.v {
		k := binary.PutUvarint(tmp[:], uint64(n))
		buf = append(buf, tmp[:k]...)
	}
	return string(buf)
}

// String renders the configuration as e.g. "2·i + 3·p"; the zero
// configuration renders as "0".
func (c Config) String() string {
	type entry struct {
		name string
		n    int64
	}
	entries := make([]entry, 0, len(c.v))
	for i, n := range c.v {
		if n != 0 {
			entries = append(entries, entry{c.space.Name(i), n})
		}
	}
	if len(entries) == 0 {
		return "0"
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var b strings.Builder
	for i, e := range entries {
		if i > 0 {
			b.WriteString(" + ")
		}
		if e.n == 1 {
			b.WriteString(e.name)
			continue
		}
		fmt.Fprintf(&b, "%d·%s", e.n, e.name)
	}
	return b.String()
}

func (c Config) mustSameSpace(d Config) {
	if !c.space.Equal(d.space) {
		panic(fmt.Sprintf("conf: mixed spaces %v and %v", c.space, d.space))
	}
}
