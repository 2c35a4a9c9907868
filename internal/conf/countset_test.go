package conf

import (
	"math/rand"
	"testing"
)

func TestCountSetBasic(t *testing.T) {
	s := NewCountSet(3, 0)
	if s.Len() != 0 {
		t.Fatalf("empty set Len = %d", s.Len())
	}
	a := []int64{1, 2, 3}
	id, added := s.Insert(a)
	if id != 0 || !added {
		t.Fatalf("first Insert = (%d, %v)", id, added)
	}
	// Mutating the caller's slice must not affect the stored copy.
	a[0] = 99
	if got := s.At(0); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("At(0) = %v, want [1 2 3]", got)
	}
	if id, added := s.Insert([]int64{1, 2, 3}); id != 0 || added {
		t.Fatalf("duplicate Insert = (%d, %v)", id, added)
	}
	if id, added := s.Insert([]int64{3, 2, 1}); id != 1 || !added {
		t.Fatalf("second Insert = (%d, %v)", id, added)
	}
	if id, ok := s.Lookup([]int64{3, 2, 1}); !ok || id != 1 {
		t.Fatalf("Lookup = (%d, %v)", id, ok)
	}
	if _, ok := s.Lookup([]int64{0, 0, 0}); ok {
		t.Fatal("Lookup found absent vector")
	}
}

func TestCountSetGrowthAndIDStability(t *testing.T) {
	const n = 5000
	s := NewCountSet(2, 0) // minimal table: force many growths
	for i := 0; i < n; i++ {
		id, added := s.Insert([]int64{int64(i), int64(i % 7)})
		if id != i || !added {
			t.Fatalf("Insert %d = (%d, %v)", i, id, added)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := s.At(i); got[0] != int64(i) || got[1] != int64(i%7) {
			t.Fatalf("At(%d) = %v", i, got)
		}
		if id, ok := s.Lookup([]int64{int64(i), int64(i % 7)}); !ok || id != i {
			t.Fatalf("Lookup %d = (%d, %v)", i, id, ok)
		}
	}
}

// The set must agree with a map-based reference under random
// insert/lookup traffic, including vectors with equal hashes prefixes
// and negative-looking large values (ω markings use MaxInt64).
func TestCountSetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewCountSet(4, 0)
	ref := make(map[[4]int64]int)
	for i := 0; i < 20000; i++ {
		var k [4]int64
		for j := range k {
			k[j] = int64(rng.Intn(6))
			if rng.Intn(100) == 0 {
				k[j] = int64(^uint64(0) >> 1) // MaxInt64, ω-style
			}
		}
		id, added := s.Insert(k[:])
		refID, seen := ref[k]
		if added == seen {
			t.Fatalf("step %d: added=%v but seen=%v for %v", i, added, seen, k)
		}
		if seen && id != refID {
			t.Fatalf("step %d: id=%d, want %d", i, id, refID)
		}
		if !seen {
			ref[k] = id
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, reference %d", s.Len(), len(ref))
	}
}

func TestCountSetZeroWidth(t *testing.T) {
	s := NewCountSet(0, 0)
	id, added := s.Insert(nil)
	if id != 0 || !added {
		t.Fatalf("first zero-width Insert = (%d, %v)", id, added)
	}
	if id, added := s.Insert([]int64{}); id != 0 || added {
		t.Fatalf("second zero-width Insert = (%d, %v)", id, added)
	}
	if got := s.At(0); len(got) != 0 {
		t.Fatalf("At(0) length = %d", len(got))
	}
}

func TestHashCountsDistinguishes(t *testing.T) {
	// Not a cryptographic requirement — but the pairs the old string
	// keys distinguished must not collide trivially.
	pairs := [][2][]int64{
		{{1, 0}, {0, 1}},
		{{2, 2}, {2, 3}},
		{{0, 0, 0}, {0, 0}},
		{{256}, {1}},
	}
	for _, p := range pairs {
		if HashCounts(p[0]) == HashCounts(p[1]) {
			t.Errorf("HashCounts collision between %v and %v", p[0], p[1])
		}
	}
}

func TestViewAndRestrictInto(t *testing.T) {
	s := MustSpace("a", "b", "c")
	counts := []int64{4, 5, 6}
	v := View(s, counts)
	if v.Get(1) != 5 || v.Agents() != 15 {
		t.Fatalf("View counts wrong: %v", v)
	}
	q := MustSpace("c", "z", "a")
	idx := s.IndexMap(q)
	if idx[0] != 2 || idx[1] != -1 || idx[2] != 0 {
		t.Fatalf("IndexMap = %v", idx)
	}
	dst := make([]int64, 3)
	v.RestrictInto(dst, idx)
	want := v.Restrict(q)
	for i := range dst {
		if dst[i] != want.Get(i) {
			t.Fatalf("RestrictInto = %v, Restrict = %v", dst, want)
		}
	}
}

// A Reset set must behave exactly like a fresh one: ids restart at 0,
// nothing inserted before the Reset is found, and growth past the kept
// table still works.
func TestCountSetReset(t *testing.T) {
	s := NewCountSet(2, 0)
	for i := 0; i < 100; i++ {
		s.Insert([]int64{int64(i), 1})
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	if _, ok := s.Lookup([]int64{5, 1}); ok {
		t.Fatal("Lookup found a vector inserted before Reset")
	}
	for i := 0; i < 300; i++ {
		id, added := s.Insert([]int64{int64(i), 2})
		if id != i || !added {
			t.Fatalf("Insert %d after Reset = (%d, %v)", i, id, added)
		}
	}
	for i := 0; i < 300; i++ {
		if got := s.At(i); got[0] != int64(i) || got[1] != 2 {
			t.Fatalf("At(%d) = %v", i, got)
		}
		if id, ok := s.Lookup([]int64{int64(i), 2}); !ok || id != i {
			t.Fatalf("Lookup %d = (%d, %v)", i, id, ok)
		}
	}
	if _, ok := s.Lookup([]int64{5, 1}); ok {
		t.Fatal("Lookup found a vector inserted before Reset")
	}
}

// Reset clears only the occupied slots; after thousands of inserts,
// with growths and long probe chains among them, every slot must read
// empty, and the inserts and lookups that follow must be exact. Each
// round refills the kept table with a different number of vectors and
// is checked against a map.
func TestCountSetResetClearsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewCountSet(3, 0)
	for round, n := range []int{5000, 12, 3000, 0, 700, 9000} {
		ref := make(map[[3]int64]int)
		for len(ref) < n {
			v := [3]int64{rng.Int63n(40), rng.Int63n(40), rng.Int63n(40)}
			id, added := s.Insert(v[:])
			want, seen := ref[v]
			if !seen {
				want = len(ref)
				ref[v] = want
			}
			if id != want || added == seen {
				t.Fatalf("round %d: Insert(%v) = (%d, %v), want (%d, %v)", round, v, id, added, want, !seen)
			}
		}
		for v, want := range ref {
			if id, ok := s.Lookup(v[:]); !ok || id != want {
				t.Fatalf("round %d: Lookup(%v) = (%d, %v), want %d", round, v, id, ok, want)
			}
		}
		s.Reset()
		for i, e := range s.table {
			if e != 0 {
				t.Fatalf("round %d: slot %d of %d holds %d after Reset", round, i, len(s.table), e)
			}
		}
		for v := range ref {
			if _, ok := s.Lookup(v[:]); ok {
				t.Fatalf("round %d: Lookup(%v) found a vector inserted before Reset", round, v)
			}
		}
	}
}

// Reset costs O(Len), not O(table): emptying eight vectors out of a
// 2^20-slot table should take about as long as out of a 16-slot one.
func BenchmarkCountSetReset(b *testing.B) {
	for _, c := range []struct {
		name string
		hint int
	}{{"table=16", 0}, {"table=2^20", 1 << 19}} {
		b.Run(c.name, func(b *testing.B) {
			s := NewCountSet(4, c.hint)
			for i := 0; i < b.N; i++ {
				for v := int64(0); v < 8; v++ {
					s.Insert([]int64{v, 1, 2, 3})
				}
				s.Reset()
			}
		})
	}
}
