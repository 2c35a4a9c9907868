// Property tests pinning the arena-backed closure engine to a naive
// seed-era reference: a []conf.Config slice deduplicated through a
// map[string]int over Config.Key, firing with Transition.Fire. The
// arena closure must be node-for-node and edge-for-edge identical on
// the E4/E8 nets — including truncated-budget, agent-capped and
// depth-capped explorations — and the parallel BFS must produce
// byte-identical ReachSets for every worker count.
package petri_test

import (
	"errors"
	"fmt"
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
		if budget.MaxDepth > 0 && rs.depth[head] >= budget.MaxDepth {
			rs.complete = false
			continue
		}
		cur := rs.configs[head]
		for ti := 0; ti < n.Len(); ti++ {
			next, ok := n.At(ti).Fire(cur)
			if !ok {
				continue
			}
			if budget.MaxAgents > 0 && next.Agents() > budget.MaxAgents {
				rs.complete = false
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
	rs.err = !rs.complete
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
// nodes wide, so the level-synchronized parallel fan-out engages (the
// protocol closures above are deep and narrow).
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
		"default":     {MaxConfigs: 1 << 16},
		"truncated":   {MaxConfigs: 100},
		"tiny":        {MaxConfigs: 3},
		"agentCapped": {MaxConfigs: 1 << 16, MaxAgents: 5},
		"depthCapped": {MaxConfigs: 1 << 16, MaxDepth: 4},
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

// The parallel BFS must yield byte-identical ReachSets to the
// sequential exploration for every worker count, including truncated
// searches, because frontiers merge in worker-index order.
func TestReachParallelMatchesSequential(t *testing.T) {
	budgets := map[string]petri.Budget{
		"default":   {MaxConfigs: 1 << 16},
		"truncated": {MaxConfigs: 500},
		"capped":    {MaxConfigs: 1 << 16, MaxAgents: 7},
	}
	for name, inst := range e4e8Instances(t) {
		for bname, budget := range budgets {
			if name == "pump(unbounded)" && bname == "default" {
				budget.MaxConfigs = 1 << 10
			}
			seqBudget := budget
			seqBudget.Workers = 1 // force the sequential exploration as baseline
			seq, seqErr := inst.net.Reach(inst.from, seqBudget)
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, bname, workers), func(t *testing.T) {
					b := budget
					b.Workers = workers
					par, parErr := inst.net.Reach(inst.from, b)
					if (seqErr != nil) != (parErr != nil) {
						t.Fatalf("err: sequential %v, parallel %v", seqErr, parErr)
					}
					if par.Complete != seq.Complete || par.Len() != seq.Len() {
						t.Fatalf("Complete/Len: parallel (%v, %d), sequential (%v, %d)",
							par.Complete, par.Len(), seq.Complete, seq.Len())
					}
					for id := 0; id < seq.Len(); id++ {
						if !par.Config(id).Equal(seq.Config(id)) {
							t.Fatalf("node %d: parallel %v, sequential %v", id, par.Config(id), seq.Config(id))
						}
						if par.Depth(id) != seq.Depth(id) {
							t.Fatalf("node %d depth: parallel %d, sequential %d", id, par.Depth(id), seq.Depth(id))
						}
						pe, se := par.Edges(id), seq.Edges(id)
						if len(pe) != len(se) {
							t.Fatalf("node %d: %d edges parallel, %d sequential", id, len(pe), len(se))
						}
						for i := range pe {
							if pe[i] != se[i] {
								t.Fatalf("node %d edge %d: parallel %+v, sequential %+v", id, i, pe[i], se[i])
							}
						}
						pw, sw := par.PathTo(id), seq.PathTo(id)
						if len(pw) != len(sw) {
							t.Fatalf("node %d word: parallel %v, sequential %v", id, pw, sw)
						}
						for i := range pw {
							if pw[i] != sw[i] {
								t.Fatalf("node %d word: parallel %v, sequential %v", id, pw, sw)
							}
						}
					}
				})
			}
		}
	}
}

// The level-synchronized fan-out must engage on wide closures (the
// test would vacuously pass if every level stayed under the parallel
// threshold), so pin a case known to have wide levels.
func TestReachParallelEngagesOnWideClosure(t *testing.T) {
	net, from := wideSplitNet(t, 80)
	seq, err := net.Reach(from, petri.Budget{MaxConfigs: 1 << 18, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	maxWidth := 0
	width, depth := 0, 0
	for id := 0; id < seq.Len(); id++ {
		if seq.Depth(id) != depth {
			depth, width = seq.Depth(id), 0
		}
		width++
		if width > maxWidth {
			maxWidth = width
		}
	}
	if maxWidth < 64 {
		t.Fatalf("widest level %d: instance too small to exercise the parallel path", maxWidth)
	}
	par, err := net.Reach(from, petri.Budget{MaxConfigs: 1 << 18, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Len() != seq.Len() || par.NumEdges() != seq.NumEdges() {
		t.Fatalf("parallel (%d nodes, %d edges) != sequential (%d nodes, %d edges)",
			par.Len(), par.NumEdges(), seq.Len(), seq.NumEdges())
	}
}

// A spill-enabled Reach must produce a ReachSet node-for-node
// identical to the in-RAM one — same ids, depths, edges and shortest
// words — for every worker count, while actually paging the arena to
// disk (the threshold is set far below the closure's footprint).
func TestReachSpilledMatchesRAM(t *testing.T) {
	for name, inst := range e4e8Instances(t) {
		budget := petri.Budget{MaxConfigs: 1 << 14, Workers: 1}
		if name == "pump(unbounded)" {
			budget.MaxConfigs = 1 << 10
		}
		ram, ramErr := inst.net.Reach(inst.from, budget)
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				b := budget
				b.Workers = workers
				b.SpillDir = t.TempDir()
				b.SpillThreshold = 8 << 10
				sp, spErr := inst.net.Reach(inst.from, b)
				if sp != nil {
					defer sp.Release()
				}
				if (ramErr != nil) != (spErr != nil) {
					t.Fatalf("err: ram %v, spilled %v", ramErr, spErr)
				}
				if sp.Complete != ram.Complete || sp.Len() != ram.Len() {
					t.Fatalf("Complete/Len: spilled (%v, %d), ram (%v, %d)",
						sp.Complete, sp.Len(), ram.Complete, ram.Len())
				}
				if ram.ArenaBytes() > b.SpillThreshold {
					if ev, _ := sp.SpillStats(); ev == 0 {
						t.Errorf("arena of %d bytes exceeds threshold %d but never spilled",
							sp.ArenaBytes(), b.SpillThreshold)
					}
				}
				for id := 0; id < ram.Len(); id++ {
					if !sp.Config(id).Equal(ram.Config(id)) {
						t.Fatalf("node %d: spilled %v, ram %v", id, sp.Config(id), ram.Config(id))
					}
					if sp.Depth(id) != ram.Depth(id) {
						t.Fatalf("node %d depth: spilled %d, ram %d", id, sp.Depth(id), ram.Depth(id))
					}
					se, re := sp.Edges(id), ram.Edges(id)
					if len(se) != len(re) {
						t.Fatalf("node %d: %d edges spilled, %d ram", id, len(se), len(re))
					}
					for i := range se {
						if se[i] != re[i] {
							t.Fatalf("node %d edge %d: spilled %+v, ram %+v", id, i, se[i], re[i])
						}
					}
					sw, rw := sp.PathTo(id), ram.PathTo(id)
					if len(sw) != len(rw) {
						t.Fatalf("node %d word: spilled %v, ram %v", id, sw, rw)
					}
					for i := range sw {
						if sw[i] != rw[i] {
							t.Fatalf("node %d word: spilled %v, ram %v", id, sw, rw)
						}
					}
				}
			})
		}
	}
}

// Growing a closure one BFS level at a time, with every accessor read
// between levels, must end in the closure one-shot Reach builds — and
// so in the reference — at every worker count and under spill. Between
// levels the CSR must already cover every node: expanded nodes with
// their final edges, the frontier with none.
func TestGrowMatchesReach(t *testing.T) {
	budgets := map[string]petri.Budget{
		"default":     {MaxConfigs: 1 << 14},
		"truncated":   {MaxConfigs: 100},
		"tiny":        {MaxConfigs: 3},
		"agentCapped": {MaxConfigs: 1 << 14, MaxAgents: 5},
		"depthCapped": {MaxConfigs: 1 << 14, MaxDepth: 4},
	}
	for name, inst := range e4e8Instances(t) {
		for bname, budget := range budgets {
			if name == "pump(unbounded)" && bname == "default" {
				budget.MaxConfigs = 1 << 10
			}
			for _, mode := range []string{"w1", "w2", "spill"} {
				t.Run(fmt.Sprintf("%s/%s/%s", name, bname, mode), func(t *testing.T) {
					b := budget
					b.Workers = 1
					if mode == "w2" {
						b.Workers = 2
					}
					if mode == "spill" {
						b.SpillDir = t.TempDir()
						b.SpillThreshold = 8 << 10
					}
					whole, wholeErr := inst.net.Reach(inst.from, b)
					if whole == nil {
						t.Fatalf("Reach returned nil set (err %v)", wholeErr)
					}
					defer whole.Release()
					rs, err := inst.net.StartReach(inst.from, b)
					if err != nil {
						t.Fatal(err)
					}
					defer rs.Release()
					levelLo, levelHi := 0, 1 // the level Grow expands next
					for done := false; !done; {
						if done, err = rs.Grow(); err != nil {
							t.Fatalf("Grow: %v", err)
						}
						if !done && rs.Complete {
							t.Fatal("Complete while the closure is still growing")
						}
						csr := rs.CSR()
						if len(csr.Off) != rs.Len()+1 || int(csr.Off[rs.Len()]) != rs.NumEdges() {
							t.Fatalf("paused CSR has %d offsets ending at %d, want %d ending at %d",
								len(csr.Off), csr.Off[len(csr.Off)-1], rs.Len()+1, rs.NumEdges())
						}
						for id := levelLo; id < levelHi; id++ {
							got := csr.Dst[csr.Off[id]:csr.Off[id+1]]
							want := whole.Edges(id)
							if len(got) != len(want) {
								t.Fatalf("node %d: %d edges mid-growth, %d in Reach", id, len(got), len(want))
							}
							for i := range got {
								if int(got[i]) != want[i].To {
									t.Fatalf("node %d edge %d: %d mid-growth, %+v in Reach", id, i, got[i], want[i])
								}
							}
						}
						for id := levelHi; id < rs.Len(); id++ {
							if csr.Off[id] != csr.Off[id+1] {
								t.Fatalf("frontier node %d has edges before its expansion", id)
							}
							if !rs.Config(id).Equal(whole.Config(id)) {
								t.Fatalf("node %d: %v mid-growth, %v in Reach", id, rs.Config(id), whole.Config(id))
							}
							if w, ww := rs.PathTo(id), whole.PathTo(id); fmt.Sprint(w) != fmt.Sprint(ww) {
								t.Fatalf("node %d word %v mid-growth, %v in Reach", id, w, ww)
							}
						}
						levelLo, levelHi = levelHi, rs.Len()
					}
					if done, err := rs.Grow(); !done || err != nil {
						t.Fatalf("Grow after the end = %v, %v; want a no-op", done, err)
					}
					if rs.Complete != whole.Complete {
						t.Fatalf("Complete = %v, Reach %v", rs.Complete, whole.Complete)
					}
					assertEqualToReference(t, rs, wholeErr, referenceReach(inst.net, inst.from, budget))
				})
			}
		}
	}
}
