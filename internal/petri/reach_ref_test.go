// Property tests pinning the arena-backed closure engine to a naive
// seed-era reference: a []conf.Config slice deduplicated through a
// map[string]int over Config.Key, firing with Transition.Fire. The
// arena closure must be node-for-node and edge-for-edge identical on
// the E4/E8 nets — including explorations truncated by MaxConfigs —
// and neither a live context nor a concurrent walk over the same net
// may change a ReachSet.
package petri_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/conf"
	"repro/internal/counting"
	"repro/internal/petri"
)

// refReach is the seed implementation of Reach, kept as the oracle.
type refReach struct {
	configs  []conf.Config
	index    map[string]int
	edges    [][]petri.Edge
	parent   []int
	via      []int
	depth    []int
	complete bool
	err      bool // budget error reported
}

func referenceReach(n *petri.Net, from conf.Config, budget petri.Budget) *refReach {
	rs := &refReach{index: make(map[string]int), complete: true}
	add := func(c conf.Config, parent, via, depth int) int {
		id := len(rs.configs)
		rs.configs = append(rs.configs, c)
		rs.index[c.Key()] = id
		rs.edges = append(rs.edges, nil)
		rs.parent = append(rs.parent, parent)
		rs.via = append(rs.via, via)
		rs.depth = append(rs.depth, depth)
		return id
	}
	add(from, -1, -1, 0)
	maxConfigs := budget.MaxConfigs
	if maxConfigs <= 0 {
		maxConfigs = petri.DefaultMaxConfigs
	}
	for head := 0; head < len(rs.configs); head++ {
		cur := rs.configs[head]
		for ti := 0; ti < n.Len(); ti++ {
			next, ok := n.At(ti).Fire(cur)
			if !ok {
				continue
			}
			id, exists := rs.index[next.Key()]
			if !exists {
				if len(rs.configs) >= maxConfigs {
					rs.complete = false
					rs.err = true
					return rs
				}
				id = add(next, head, ti, rs.depth[head]+1)
			}
			rs.edges[head] = append(rs.edges[head], petri.Edge{Trans: ti, To: id})
		}
	}
	return rs
}

// assertEqualToReference checks node-for-node, edge-for-edge equality
// between an arena ReachSet and the reference closure.
func assertEqualToReference(t *testing.T, rs *petri.ReachSet, err error, ref *refReach) {
	t.Helper()
	if (err != nil) != ref.err {
		t.Fatalf("err = %v, reference err = %v", err, ref.err)
	}
	if err != nil && !errors.Is(err, petri.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if rs.Complete != ref.complete {
		t.Fatalf("Complete = %v, reference %v", rs.Complete, ref.complete)
	}
	if rs.Len() != len(ref.configs) {
		t.Fatalf("Len = %d, reference %d", rs.Len(), len(ref.configs))
	}
	for id := 0; id < rs.Len(); id++ {
		if !rs.Config(id).Equal(ref.configs[id]) {
			t.Fatalf("node %d: %v, reference %v", id, rs.Config(id), ref.configs[id])
		}
		if rs.Depth(id) != ref.depth[id] {
			t.Fatalf("node %d depth = %d, reference %d", id, rs.Depth(id), ref.depth[id])
		}
		got, want := rs.Edges(id), ref.edges[id]
		if len(got) != len(want) {
			t.Fatalf("node %d: %d edges, reference %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d edge %d = %+v, reference %+v", id, i, got[i], want[i])
			}
		}
		// Shortest words replay through the same tree.
		word := rs.PathTo(id)
		if len(word) != ref.depth[id] {
			t.Fatalf("node %d word length %d, depth %d", id, len(word), ref.depth[id])
		}
		refWord := refPathTo(ref, id)
		for i := range word {
			if word[i] != refWord[i] {
				t.Fatalf("node %d word %v, reference %v", id, word, refWord)
			}
		}
	}
}

func refPathTo(ref *refReach, id int) []int {
	var rev []int
	for cur := id; ref.parent[cur] >= 0; cur = ref.parent[cur] {
		rev = append(rev, ref.via[cur])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// e4e8Instances returns the (net, initial) pairs of the E4 and E8
// experiment families.
func e4e8Instances(t *testing.T) map[string]struct {
	net  *petri.Net
	from conf.Config
} {
	t.Helper()
	out := make(map[string]struct {
		net  *petri.Net
		from conf.Config
	})
	add := func(name string, net *petri.Net, from conf.Config) {
		out[name] = struct {
			net  *petri.Net
			from conf.Config
		}{net, from}
	}
	{
		p, err := counting.Example42(2)
		if err != nil {
			t.Fatal(err)
		}
		add("example42(2)x3", p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 3})))
	}
	{
		p, err := counting.Example42(3)
		if err != nil {
			t.Fatal(err)
		}
		add("example42(3)x5", p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 5})))
	}
	{
		p, err := counting.FlockOfBirds(4)
		if err != nil {
			t.Fatal(err)
		}
		add("flock(4)x6", p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 6})))
	}
	{
		p, err := counting.PowerOfTwo(3)
		if err != nil {
			t.Fatal(err)
		}
		add("power2(3)x8", p.Net(), p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 8})))
	}
	{
		// E8's unbounded pump net: truncation is guaranteed.
		space := conf.MustSpace("a", "b")
		u := func(n string) conf.Config { return conf.MustUnit(space, n) }
		pump, err := petri.NewTransition("pump", u("a"), u("a").Add(u("b")))
		if err != nil {
			t.Fatal(err)
		}
		net, err := petri.New(space, []petri.Transition{pump})
		if err != nil {
			t.Fatal(err)
		}
		add("pump(unbounded)", net, u("a"))
	}
	{
		net, from := wideSplitNet(t, 40)
		add("split40(wide)", net, from)
	}
	return out
}

// wideSplitNet builds n·a under a→b, a→c: its BFS levels are up to n+1
// nodes wide (the protocol closures above are deep and narrow).
func wideSplitNet(t *testing.T, n int64) (*petri.Net, conf.Config) {
	t.Helper()
	space := conf.MustSpace("a", "b", "c")
	u := func(s string) conf.Config { return conf.MustUnit(space, s) }
	ab, err := petri.NewTransition("ab", u("a"), u("b"))
	if err != nil {
		t.Fatal(err)
	}
	ac, err := petri.NewTransition("ac", u("a"), u("c"))
	if err != nil {
		t.Fatal(err)
	}
	net, err := petri.New(space, []petri.Transition{ab, ac})
	if err != nil {
		t.Fatal(err)
	}
	return net, u("a").Scale(n)
}

func TestReachMatchesReference(t *testing.T) {
	budgets := map[string]petri.Budget{
		"default":   {MaxConfigs: 1 << 16},
		"truncated": {MaxConfigs: 100},
		"tiny":      {MaxConfigs: 3},
	}
	for name, inst := range e4e8Instances(t) {
		for bname, budget := range budgets {
			t.Run(fmt.Sprintf("%s/%s", name, bname), func(t *testing.T) {
				if name == "pump(unbounded)" && bname == "default" {
					budget.MaxConfigs = 1 << 10 // keep the infinite closure finite
				}
				ref := referenceReach(inst.net, inst.from, budget)
				rs, err := inst.net.Reach(inst.from, budget)
				if rs == nil {
					t.Fatalf("Reach returned nil set (err %v)", err)
				}
				assertEqualToReference(t, rs, err, ref)
			})
		}
	}
}

// Every closure of one net is built sequentially and shares nothing
// mutable with another: verify.Range builds closures of one protocol
// on several workers at once, each under the request's context. So a
// walk run on w goroutines at once (the wN subtests), each through
// ReachReusing under a live context that is never cancelled, must
// yield the ReachSet sequential Reach builds, byte for byte, including
// truncated searches.
func TestReachParallelMatchesSequential(t *testing.T) {
	budgets := map[string]petri.Budget{
		"default":   {MaxConfigs: 1 << 16},
		"truncated": {MaxConfigs: 500},
		"capped":    {MaxConfigs: 7},
	}
	for name, inst := range e4e8Instances(t) {
		for bname, budget := range budgets {
			if name == "pump(unbounded)" && bname == "default" {
				budget.MaxConfigs = 1 << 10
			}
			seq, seqErr := inst.net.Reach(inst.from, budget)
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, bname, workers), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					got := make([]*petri.ReachSet, workers)
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							got[w], errs[w] = inst.net.ReachReusing(ctx, nil, inst.from, budget)
						}()
					}
					wg.Wait()
					for w := range workers {
						if fmt.Sprint(errs[w]) != fmt.Sprint(seqErr) {
							t.Fatalf("walk %d: err %v, sequential %v", w, errs[w], seqErr)
						}
						if err := closureDiff(got[w], seq); err != nil {
							t.Fatalf("walk %d of %d: %v", w, workers, err)
						}
					}
				})
			}
		}
	}
}

// closureDiff reports the first way got differs from want: Complete,
// size, CSR, or a node's configuration, depth, parent, edges or
// shortest word.
func closureDiff(got, want *petri.ReachSet) error {
	if got.Complete != want.Complete || got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("(Complete %v, %d nodes, %d edges), want (%v, %d, %d)",
			got.Complete, got.Len(), got.NumEdges(), want.Complete, want.Len(), want.NumEdges())
	}
	gc, wc := got.CSR(), want.CSR()
	if !slices.Equal(gc.Off, wc.Off) || !slices.Equal(gc.Dst, wc.Dst) {
		return errors.New("CSR differs")
	}
	for id := 0; id < want.Len(); id++ {
		if !got.Config(id).Equal(want.Config(id)) || got.Depth(id) != want.Depth(id) ||
			got.Parent(id) != want.Parent(id) || !slices.Equal(got.Edges(id), want.Edges(id)) ||
			!slices.Equal(got.PathTo(id), want.PathTo(id)) {
			return fmt.Errorf("node %d differs", id)
		}
	}
	return nil
}

// Growing a closure one BFS level at a time, with every accessor read
// between levels, must end in the closure one-shot Reach builds — and
// so in the reference. The wN subtests grow N closures of the root at
// once, one per goroutine over the one net, and check each. Between
// levels the CSR must already cover every node: expanded nodes with
// their final edges, the frontier with none.
func TestGrowMatchesReach(t *testing.T) {
	budgets := map[string]petri.Budget{
		"default":   {MaxConfigs: 1 << 14},
		"truncated": {MaxConfigs: 100},
		"tiny":      {MaxConfigs: 3},
	}
	for name, inst := range e4e8Instances(t) {
		for bname, budget := range budgets {
			if name == "pump(unbounded)" && bname == "default" {
				budget.MaxConfigs = 1 << 10
			}
			whole, wholeErr := inst.net.Reach(inst.from, budget)
			if whole == nil {
				t.Fatalf("Reach returned nil set (err %v)", wholeErr)
			}
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, bname, workers), func(t *testing.T) {
					grown := make([]*petri.ReachSet, workers)
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							grown[w], errs[w] = growChecked(inst.net, inst.from, budget, whole)
						}()
					}
					wg.Wait()
					ref := referenceReach(inst.net, inst.from, budget)
					for w, rs := range grown {
						if errs[w] != nil {
							t.Fatalf("closure %d of %d: %v", w, workers, errs[w])
						}
						assertEqualToReference(t, rs, wholeErr, ref)
					}
				})
			}
		}
	}
}

// growChecked grows the closure of from level by level, checking at
// every pause that it agrees with whole, the closure Reach built.
func growChecked(net *petri.Net, from conf.Config, budget petri.Budget, whole *petri.ReachSet) (*petri.ReachSet, error) {
	rs, err := net.StartReach(from, budget)
	if err != nil {
		return nil, err
	}
	levelLo, levelHi := 0, 1 // the level Grow expands next
	for done := false; !done; {
		done = rs.Grow()
		if !done && rs.Complete {
			return nil, errors.New("Complete while the closure is still growing")
		}
		csr := rs.CSR()
		if len(csr.Off) != rs.Len()+1 || int(csr.Off[rs.Len()]) != rs.NumEdges() {
			return nil, fmt.Errorf("paused CSR has %d offsets ending at %d, want %d ending at %d",
				len(csr.Off), csr.Off[len(csr.Off)-1], rs.Len()+1, rs.NumEdges())
		}
		for id := levelLo; id < levelHi; id++ {
			got := csr.Dst[csr.Off[id]:csr.Off[id+1]]
			want := whole.Edges(id)
			if len(got) != len(want) {
				return nil, fmt.Errorf("node %d: %d edges mid-growth, %d in Reach", id, len(got), len(want))
			}
			for i := range got {
				if int(got[i]) != want[i].To {
					return nil, fmt.Errorf("node %d edge %d: %d mid-growth, %+v in Reach", id, i, got[i], want[i])
				}
			}
		}
		for id := levelHi; id < rs.Len(); id++ {
			if csr.Off[id] != csr.Off[id+1] {
				return nil, fmt.Errorf("frontier node %d has edges before its expansion", id)
			}
			if !rs.Config(id).Equal(whole.Config(id)) {
				return nil, fmt.Errorf("node %d: %v mid-growth, %v in Reach", id, rs.Config(id), whole.Config(id))
			}
			if w, ww := rs.PathTo(id), whole.PathTo(id); fmt.Sprint(w) != fmt.Sprint(ww) {
				return nil, fmt.Errorf("node %d word %v mid-growth, %v in Reach", id, w, ww)
			}
		}
		levelLo, levelHi = levelHi, rs.Len()
	}
	if !rs.Grow() {
		return nil, errors.New("Grow after the end reports growth; want a no-op")
	}
	if rs.Complete != whole.Complete {
		return nil, fmt.Errorf("Complete = %v, Reach %v", rs.Complete, whole.Complete)
	}
	return rs, nil
}

// A chain of ReachReusing calls, each building in the previous
// closure's storage, must give exactly what a fresh Reach gives for the
// same root — node order, edges, depths, parents, Complete and the
// error — while closures grow, shrink, end on MaxConfigs, and switch
// to a net of another width and back.
func TestReachReusingMatchesReach(t *testing.T) {
	p, err := counting.FlockOfBirds(4)
	if err != nil {
		t.Fatal(err)
	}
	flock := func(x int64) conf.Config {
		return p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": x}))
	}
	split, splitFrom := wideSplitNet(t, 12)
	full := petri.Budget{MaxConfigs: 1 << 16}
	steps := []struct {
		name      string
		net       *petri.Net
		from      conf.Config
		budget    petri.Budget
		truncated bool
		grows     int // +1: more nodes than the step before, −1: fewer, 0: either
	}{
		{"x=2", p.Net(), flock(2), full, false, +1},
		{"x=6", p.Net(), flock(6), full, false, +1},
		{"x=9", p.Net(), flock(9), full, false, +1},
		{"shrink x=3", p.Net(), flock(3), full, false, -1},
		{"maxConfigs", p.Net(), flock(9), petri.Budget{MaxConfigs: 20}, true, 0},
		{"maxConfigs again", p.Net(), flock(8), petri.Budget{MaxConfigs: 50}, true, +1},
		{"other width", split, splitFrom, full, false, 0},
		{"back x=7", p.Net(), flock(7), full, false, 0},
		{"x=0", p.Net(), flock(0), full, false, -1},
	}
	var ws *petri.ReachSet
	prev := 0
	for _, s := range steps {
		want, wantErr := s.net.Reach(s.from, s.budget)
		got, gotErr := s.net.ReachReusing(context.Background(), ws, s.from, s.budget)
		if got == nil || want == nil {
			t.Fatalf("%s: nil closure (reused err %v, fresh err %v)", s.name, gotErr, wantErr)
		}
		if (wantErr != nil) != s.truncated || s.grows*(want.Len()-prev) < 0 || s.grows != 0 && want.Len() == prev {
			t.Fatalf("%s: %d nodes after %d, err %v: the step no longer covers its case", s.name, want.Len(), prev, wantErr)
		}
		prev = want.Len()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err %v, fresh Reach %v", s.name, gotErr, wantErr)
		}
		if err := closureDiff(got, want); err != nil {
			t.Fatalf("%s: %v, against fresh Reach", s.name, err)
		}
		if id, ok := petri.NodeID(got, s.from); !ok || id != 0 {
			t.Fatalf("%s: root lookup = (%d, %v), want (0, true)", s.name, id, ok)
		}
		assertEqualToReference(t, got, gotErr, referenceReach(s.net, s.from, s.budget))
		ws = got
	}
}
