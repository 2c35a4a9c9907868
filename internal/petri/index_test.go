package petri

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/conf"
)

func TestIndexChain(t *testing.T) {
	n := chainNet(t) // ab: a->b, bc: b->c
	idx := n.Index()
	if idx != n.Index() {
		t.Error("Index not cached")
	}
	if got := idx.Pre(0); !reflect.DeepEqual(got, []SparseEntry{{State: 0, N: 1}}) {
		t.Errorf("Pre(ab) = %v", got)
	}
	if got := idx.Delta(0); !reflect.DeepEqual(got, []SparseEntry{{State: 0, N: -1}, {State: 1, N: 1}}) {
		t.Errorf("Delta(ab) = %v", got)
	}
	// Firing ab changes a and b, affecting both transitions; firing bc
	// changes b and c, affecting only bc (nothing depends on c).
	for ti, want := range [][]int{{0, 1}, {1}} {
		got := append([]int(nil), idx.Affected(ti)...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Affected(%d) = %v, want %v", ti, got, want)
		}
	}
}

func TestIndexAggregateDelta(t *testing.T) {
	n := chainNet(t) // ab: a->b, bc: b->c
	idx := n.Index()
	disp := make([]int64, 3)
	// 5 firings of ab and 3 of bc: a -5, b +5-3, c +3, accumulated on
	// top of whatever is already in disp.
	disp[2] = 1
	idx.AggregateDelta([]int64{5, 3}, disp)
	if want := []int64{-5, 2, 4}; !reflect.DeepEqual(disp, want) {
		t.Errorf("AggregateDelta = %v, want %v", disp, want)
	}
	// All-zero fires touch nothing.
	before := append([]int64(nil), disp...)
	idx.AggregateDelta([]int64{0, 0}, disp)
	if !reflect.DeepEqual(disp, before) {
		t.Errorf("zero fires mutated disp: %v", disp)
	}
}

func TestIndexCatalyst(t *testing.T) {
	// A catalyst state (equal pre and post counts) is in Pre but not in
	// Delta: its count never changes when the transition fires, so it
	// must not drag its dependents into the affected set.
	space := conf.MustSpace("x", "c", "y")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	cat, err := NewTransition("cat", u("x").Add(u("c")), u("y").Add(u("c")))
	if err != nil {
		t.Fatalf("NewTransition: %v", err)
	}
	onC, err := NewTransition("onC", u("c").Add(u("c")), u("x").Add(u("x")))
	if err != nil {
		t.Fatalf("NewTransition: %v", err)
	}
	n, err := New(space, []Transition{cat, onC})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	idx := n.Index()
	if got := idx.Delta(0); !reflect.DeepEqual(got, []SparseEntry{{State: 0, N: -1}, {State: 2, N: 1}}) {
		t.Errorf("Delta(cat) = %v: catalyst c must not appear", got)
	}
	// cat's delta touches x and y only; onC depends on c alone, so cat
	// affects cat itself (via x) and not onC.
	got := append([]int(nil), idx.Affected(0)...)
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Affected(cat) = %v, want [0]", got)
	}
	// onC consumes two c's and produces two x's: it affects cat (via x)
	// and itself (via c).
	got = append([]int(nil), idx.Affected(1)...)
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Affected(onC) = %v, want [0 1]", got)
	}
}

func TestIndexEmptyPre(t *testing.T) {
	// Creation-only transitions have empty preconditions: no
	// dependents entries, weight constant 1.
	space := conf.MustSpace("x")
	mk, err := NewTransition("mk", conf.New(space), conf.MustUnit(space, "x"))
	if err != nil {
		t.Fatalf("NewTransition: %v", err)
	}
	n, err := New(space, []Transition{mk})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	idx := n.Index()
	if len(idx.Pre(0)) != 0 {
		t.Errorf("Pre(mk) = %v, want empty", idx.Pre(0))
	}
	if len(idx.Affected(0)) != 0 {
		t.Errorf("Affected(mk) = %v, want empty (nothing depends on x)", idx.Affected(0))
	}
}
