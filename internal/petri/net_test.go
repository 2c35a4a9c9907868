package petri

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/conf"
)

// chainNet builds the net a -> b -> c over tSpace.
func chainNet(t *testing.T) *Net {
	t.Helper()
	n, err := New(tSpace, []Transition{
		mk(t, "ab", map[string]int64{"a": 1}, map[string]int64{"b": 1}),
		mk(t, "bc", map[string]int64{"b": 1}, map[string]int64{"c": 1}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func TestNetValidation(t *testing.T) {
	// Empty spaces are allowed (degenerate T|∅ restrictions).
	if _, err := New(conf.MustSpace(), nil); err != nil {
		t.Errorf("empty space rejected: %v", err)
	}
	dup := []Transition{
		mk(t, "t", map[string]int64{"a": 1}, map[string]int64{"b": 1}),
		mk(t, "t", map[string]int64{"b": 1}, map[string]int64{"c": 1}),
	}
	if _, err := New(tSpace, dup); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestNetAccessors(t *testing.T) {
	n := chainNet(t)
	if n.Len() != 2 || n.Width() != 1 || n.NormInf() != 1 {
		t.Errorf("Len/Width/NormInf = %d/%d/%d", n.Len(), n.Width(), n.NormInf())
	}
	if !n.Conservative() {
		t.Error("chain net not conservative")
	}
	ts := n.Transitions()
	ts[0] = Transition{}
	if n.At(0).Name != "ab" {
		t.Error("Transitions() exposed internal slice")
	}
}

func TestSuccessorsAndFireWord(t *testing.T) {
	n := chainNet(t)
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 1, "b": 1})
	succ := 0
	for _, tr := range n.Transitions() {
		if tr.Pre.Leq(from) {
			succ++
		}
	}
	if succ != 2 {
		t.Fatalf("successors = %d, want 2", succ)
	}
	got, err := n.FireWord(from, []int{0, 1, 1})
	if err != nil {
		t.Fatalf("FireWord: %v", err)
	}
	want := conf.MustFromMap(tSpace, map[string]int64{"c": 2})
	if !got.Equal(want) {
		t.Errorf("FireWord = %v, want %v", got, want)
	}
	if _, err := n.FireWord(from, []int{1, 1}); err == nil {
		t.Error("disabled word accepted")
	}
	if _, err := n.FireWord(from, []int{7}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestNetRestrict(t *testing.T) {
	n := chainNet(t)
	q := conf.MustSpace("a", "b")
	r, err := n.Restrict(q)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	// ab restricts to a->b; bc restricts to b->0 (c vanishes).
	if r.Len() != 2 {
		t.Fatalf("restricted net has %d transitions, want 2", r.Len())
	}
	if !r.Space().Equal(q) {
		t.Error("restricted net over wrong space")
	}
}

func TestNetRestrictMerges(t *testing.T) {
	n, err := New(tSpace, []Transition{
		mk(t, "t1", map[string]int64{"a": 1}, map[string]int64{"b": 1, "c": 1}),
		mk(t, "t2", map[string]int64{"a": 1}, map[string]int64{"b": 1, "c": 2}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := conf.MustSpace("a", "b")
	r, err := n.Restrict(q)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("restriction kept %d transitions, want 1 (merged)", r.Len())
	}
}

func TestReach(t *testing.T) {
	n := chainNet(t)
	from := conf.MustFromMap(tSpace, map[string]int64{"a": 2})
	rs, err := n.Reach(from, Budget{})
	if err != nil {
		t.Fatalf("Reach: %v", err)
	}
	if !rs.Complete {
		t.Fatal("closure incomplete")
	}
	// Configurations: all (a,b,c) with a+b+c=2 reachable monotonically:
	// {2a},{a+b},{a+c},{2b},{b+c},{2c} = 6.
	if rs.Len() != 6 {
		t.Errorf("closure size = %d, want 6", rs.Len())
	}
	target := conf.MustFromMap(tSpace, map[string]int64{"c": 2})
	id, ok := NodeID(rs, target)
	if !ok {
		t.Fatal("2c not reached")
	}
	word := rs.PathTo(id)
	if len(word) != 4 {
		t.Errorf("shortest word length = %d, want 4", len(word))
	}
	end, err := n.FireWord(from, word)
	if err != nil || !end.Equal(target) {
		t.Errorf("witness word does not replay: %v, %v", end, err)
	}
}

func TestReachBudget(t *testing.T) {
	// Unbounded net: a -> a + b.
	n, err := New(tSpace, []Transition{
		mk(t, "pump", map[string]int64{"a": 1}, map[string]int64{"a": 1, "b": 1}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	from := conf.MustUnit(tSpace, "a")
	rs, err := n.Reach(from, Budget{MaxConfigs: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if rs == nil || rs.Complete {
		t.Fatal("truncated closure not flagged")
	}

	if rs.Len() != 10 {
		t.Errorf("truncated closure size = %d, want exactly the budget 10", rs.Len())
	}
}

func TestReachWrongSpace(t *testing.T) {
	n := chainNet(t)
	if _, err := n.Reach(conf.New(conf.MustSpace("z")), Budget{}); err == nil {
		t.Error("wrong-space initial accepted")
	}
}

func TestReachCancel(t *testing.T) {
	// Unbounded net again; without the budget the walk never ends, so
	// only cancellation can stop it.
	n, err := New(tSpace, []Transition{
		mk(t, "pump", map[string]int64{"a": 1}, map[string]int64{"a": 1, "b": 1}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	from := conf.MustUnit(tSpace, "a")

	// A context cancelled up front aborts at the first level boundary,
	// in fresh storage and in the storage of a finished closure.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	var old *ReachSet
	for _, reuse := range []bool{false, true} {
		rs, err := n.ReachReusing(pre, old, from, Budget{MaxConfigs: 1 << 20})
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("reuse=%v: err = %v, want ErrCancelled", reuse, err)
		}
		if rs == nil || rs.Complete || rs.Len() != 1 {
			t.Fatalf("reuse=%v: pre-cancelled closure = %+v, want the root alone, incomplete", reuse, rs)
		}
		if rs.exp.done != nil {
			t.Fatalf("reuse=%v: ended closure still holds its caller's Done channel", reuse)
		}
		old = rs
	}

	// Cancelling mid-walk stops it promptly even with a huge budget:
	// the walk is past its first checkpoints when the cancel lands.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *ReachSet, 1)
	var walkErr error
	go func() {
		rs, err := n.ReachReusing(ctx, nil, from, Budget{MaxConfigs: 1 << 30})
		walkErr = err
		done <- rs
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case rs := <-done:
		if !errors.Is(walkErr, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", walkErr)
		}
		if rs.Complete || rs.Len() < 2 {
			t.Fatalf("mid-walk cancel: Complete=%v after %d nodes, want a partial closure", rs.Complete, rs.Len())
		}
		// The partial closure is exactly a truncation: the same walk
		// capped at its length reports the same nodes.
		capped, _ := n.Reach(from, Budget{MaxConfigs: rs.Len()})
		for id := 0; id < rs.Len(); id++ {
			if !rs.Config(id).Equal(capped.Config(id)) {
				t.Fatalf("node %d: cancelled %v, capped %v", id, rs.Config(id), capped.Config(id))
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled exploration still running")
	}
}

// NodeID returns the node id of a configuration in the closure, if
// present, through the arena's hash lookup.
func NodeID(rs *ReachSet, c conf.Config) (int, bool) {
	counts := c.RawCounts()
	if len(counts) != rs.set.Width() {
		return 0, false
	}
	return rs.set.Lookup(counts)
}
