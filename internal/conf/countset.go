package conf

// CountSet is an arena-backed deduplicating set of count vectors: the
// visited-set substrate of the closure engines. Every distinct vector
// is stored exactly once, flat, in one growing []int64 arena, and is
// addressed by a dense integer id assigned in insertion order — the
// node ids of a reachability closure. Dedup runs through an
// open-addressing hash table over a 64-bit hash of the raw counts; no
// string key is ever materialized. Collisions are resolved by full
// count comparison, so the set is exact regardless of hash quality.
//
// A CountSet is not safe for concurrent mutation; concurrent readers
// of At slices are fine while no Insert runs.
type CountSet struct {
	width  int
	arena  []int64 // id's counts at arena[id*width : (id+1)*width]
	hashes []uint64
	table  []int32 // open addressing: 0 = empty, else id+1
	mask   uint64
}

// NewCountSet builds a set of count vectors of the given width
// (non-negative). capacityHint pre-sizes the table for about that many
// distinct vectors; the set grows beyond it transparently.
func NewCountSet(width, capacityHint int) *CountSet {
	if width < 0 {
		panic("conf: negative CountSet width")
	}
	size := 16
	for size < capacityHint*2 {
		size <<= 1
	}
	return &CountSet{
		width: width,
		table: make([]int32, size),
		mask:  uint64(size - 1),
	}
}

// Reset empties the set, keeping its arena, hashes and table for the
// vectors inserted next: ids restart at 0. Slices returned by At
// before the Reset are invalid after it.
//
// Reset costs O(Len), not O(table size): a set whose table grew for
// one big closure resets as cheaply as a small one. It clears only the
// occupied slots, in reverse id order. Every slot an id's probe passes
// before its own holds a smaller id (ids are placed in increasing
// order, by Insert and by grow alike), so when an id is cleared its
// probe sequence is still intact and leads to its slot.
func (s *CountSet) Reset() {
	for id := len(s.hashes) - 1; id >= 0; id-- {
		e := int32(id + 1)
		i := s.hashes[id] & s.mask
		for s.table[i] != e {
			i = (i + 1) & s.mask
		}
		s.table[i] = 0
	}
	s.arena = s.arena[:0]
	s.hashes = s.hashes[:0]
}

// Len returns the number of distinct vectors in the set.
func (s *CountSet) Len() int { return len(s.hashes) }

// Width returns the vector width.
func (s *CountSet) Width() int { return s.width }

// At returns the vector with the given id. The slice aliases the
// arena and must not be mutated; it stays valid (with the same
// contents) across later Inserts.
func (s *CountSet) At(id int) []int64 {
	lo := id * s.width
	return s.arena[lo : lo+s.width : lo+s.width]
}

// Lookup returns the id of the vector equal to c, if present.
func (s *CountSet) Lookup(c []int64) (int, bool) {
	id := s.find(c, HashCounts(c))
	return id, id >= 0
}

// Insert adds c to the set, copying it into the arena on first sight,
// and returns its id and whether it was newly added. The lookup and
// the insertion share one probe sequence.
func (s *CountSet) Insert(c []int64) (int, bool) {
	id, added, _ := s.InsertCapped(c, HashCounts(c), -1)
	return id, added
}

// InsertCapped is Insert with the caller-supplied HashCounts(c),
// bounded by a budget: when c is absent and the set already holds max
// vectors (max ≥ 0), nothing is inserted and full=true is reported.
// It is the closure engine's check-budget-before-commit step, in a
// single probe.
func (s *CountSet) InsertCapped(c []int64, h uint64, max int) (id int, added, full bool) {
	// Growing up front (even when c turns out to be present) keeps the
	// probe sequence usable for direct placement; the extra growth is
	// amortized exactly like the on-demand one.
	if (len(s.hashes)+1)*4 > len(s.table)*3 {
		s.grow()
	}
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		e := s.table[i]
		if e == 0 {
			if max >= 0 && len(s.hashes) >= max {
				return -1, false, true
			}
			id := len(s.hashes)
			s.hashes = append(s.hashes, h)
			s.arena = append(s.arena, c...)
			s.table[i] = int32(id + 1)
			return id, true, false
		}
		id := int(e - 1)
		if s.hashes[id] == h && equalCounts(s.At(id), c) {
			return id, false, false
		}
	}
}

// find returns the id of the vector equal to c (with hash h), or −1.
func (s *CountSet) find(c []int64, h uint64) int {
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		e := s.table[i]
		if e == 0 {
			return -1
		}
		id := int(e - 1)
		if s.hashes[id] == h && equalCounts(s.At(id), c) {
			return id
		}
	}
}

// grow doubles the table and reinserts every id by its stored hash.
// Stored vectors are pairwise distinct, so no count comparisons are
// needed.
func (s *CountSet) grow() {
	size := len(s.table) * 2
	s.table = make([]int32, size)
	s.mask = uint64(size - 1)
	for id, h := range s.hashes {
		i := h & s.mask
		for s.table[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.table[i] = int32(id + 1)
	}
}

func equalCounts(a, b []int64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// HashCounts returns a 64-bit hash of a raw count vector, mixing every
// word through a splitmix64-style finalizer. It is the integer
// replacement for Config.Key on visited-set hot paths; equal vectors
// hash equal, and CountSet resolves the (rare) collisions exactly.
func HashCounts(c []int64) uint64 {
	h := uint64(len(c))*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3
	for _, v := range c {
		h = hashMix(h ^ uint64(v))
	}
	return h
}

func hashMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
