package petri

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/conf"
	"repro/internal/faultfs"
	"repro/internal/graph"
)

// ErrBudget is reported (wrapped) when an exploration exceeds its budget.
var ErrBudget = errors.New("petri: exploration budget exhausted")

// Budget bounds an exploration. The zero value applies defaults.
type Budget struct {
	// MaxConfigs caps the number of distinct configurations visited.
	// Zero means DefaultMaxConfigs.
	MaxConfigs int
	// MaxAgents prunes configurations with more agents. Zero means
	// unlimited. Pruning makes the closure incomplete, which Reach
	// records rather than hiding.
	MaxAgents int64
	// MaxDepth caps the exploration depth (word length). Zero means
	// unlimited.
	MaxDepth int
	// Workers sets the worker count of the level-synchronized parallel
	// BFS: levels of the closure wide enough to amortize the fan-out
	// are expanded by this many workers, with frontiers merged in
	// worker-index order so node ids — and hence the whole ReachSet,
	// including truncation points — are byte-identical for every worker
	// count. 0 means auto-detect (GOMAXPROCS); 1 forces the sequential
	// exploration.
	Workers int
	// SpillDir, when non-empty, runs the closure's count arena
	// out-of-core: arena pages are flushed to bucket files under a
	// private subdirectory of SpillDir once the resident footprint
	// exceeds SpillThreshold, and reloaded on demand. The resulting
	// ReachSet is node-for-node identical to the in-RAM one; call its
	// Release method to delete the spill files.
	SpillDir string
	// SpillThreshold is the resident-arena byte budget for spill mode.
	// Zero means conf.DefaultSpillThreshold.
	SpillThreshold int64
	// SpillFS is the filesystem seam spill bucket I/O goes through;
	// nil means the real OS. Fault-injection tests pass a
	// faultfs.Faulty here to exercise the degraded paths (disk full,
	// torn buckets) without a real broken disk.
	SpillFS faultfs.FS
	// Cancel, when non-nil, aborts the exploration once the channel is
	// closed (typically a serving request's ctx.Done()): Reach stops at
	// the next cancellation checkpoint and returns the partial closure
	// with Complete=false and an error wrapping ErrCancelled, so a
	// timed-out or disconnected caller frees its workers promptly
	// instead of finishing a closure nobody will read. Cancellation
	// never corrupts the partial set — it is exactly a truncation.
	Cancel <-chan struct{}
}

// cancelled polls the Cancel channel without blocking.
func (b Budget) cancelled() bool {
	if b.Cancel == nil {
		return false
	}
	select {
	case <-b.Cancel:
		return true
	default:
		return false
	}
}

// EffectiveWorkers resolves the Workers field: 0 auto-detects
// GOMAXPROCS, anything else is clamped below at 1.
func (b Budget) EffectiveWorkers() int {
	if b.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if b.Workers < 1 {
		return 1
	}
	return b.Workers
}

// DefaultMaxConfigs is the visited-set cap used when Budget.MaxConfigs
// is zero.
const DefaultMaxConfigs = 1 << 20

func (b Budget) maxConfigs() int {
	if b.MaxConfigs <= 0 {
		return DefaultMaxConfigs
	}
	// Node ids live in int32 arrays across every search (Reach, the
	// covering-word BFS); a budget past that cannot be represented (or
	// fit in memory), so clamp instead of silently wrapping.
	if b.MaxConfigs > maxInt32 {
		return maxInt32
	}
	return b.MaxConfigs
}

// Edge is one explored firing: transition index and target node id.
type Edge struct {
	Trans int
	To    int
}

// ReachSet is the (possibly truncated) forward reachability closure of
// a configuration, with enough structure to reconstruct shortest firing
// words and to run SCC analyses.
//
// Internally the closure lives in a flat arena: node counts in a
// conf.CountSet (node id = insertion order, dedup via an
// open-addressing table over integer hashes — no string keys), edges in
// CSR form (one offset array, flat target/transition arrays), and the
// BFS tree in dense int32 arrays. No per-node allocation happens on the
// exploration hot path.
//
// A closure is either built whole by Reach, or started by StartReach
// and grown one BFS level at a time by Grow. Both run the same BFS, so
// node ids, edges and the truncation point do not depend on how the
// closure was grown.
type ReachSet struct {
	net     *Net
	set     *conf.CountSet
	edgeOff []int32 // CSR offsets; padded to length Len()+1 whenever growth pauses
	edgeTo  []int32
	edgeVia []int32
	parent  []int32 // BFS tree parent node, −1 at the root
	via     []int32 // transition fired from parent, −1 at the root
	depth   []int32

	// grow is the BFS driver; nil once growth has ended.
	grow *expander
	// trunc is the error a truncated closure reports: a wrapped
	// ErrBudget or ErrCancelled, set when growth ends.
	trunc error

	// Complete reports that growth has ended with the exact closure: no
	// budget, depth or agent truncation occurred. It is false while the
	// closure is still growing. Analyses that require exactness must
	// check it.
	Complete bool
}

// Reach computes the forward closure of from under the net, breadth
// first, within the budget. A truncated closure is still returned (with
// Complete=false) together with a wrapped ErrBudget, so callers can
// inspect partial results while being unable to mistake them for exact
// ones.
//
// When the closure runs out-of-core (SpillDir), spill-layer failures —
// a bucket write hitting a full disk, a bucket read, or a read-back
// CRC verification catching a torn or rotted bucket — surface as a
// returned *conf.SpillError (errors.Is sees through it to the
// underlying errno, e.g. syscall.ENOSPC), with the spill files
// released; they never crash the process even though the arena's hot
// paths report them by panicking.
func (n *Net) Reach(from conf.Config, budget Budget) (*ReachSet, error) {
	rs, err := n.StartReach(from, budget)
	if err != nil {
		return nil, err
	}
	if _, err := rs.growLevels(-1); err != nil {
		return nil, err
	}
	return rs, rs.trunc
}

// StartReach returns the closure of from that holds only the root,
// ready to be grown by Grow within the budget. Callers that may stop
// before growth ends must still Release the closure.
func (n *Net) StartReach(from conf.Config, budget Budget) (*ReachSet, error) {
	if !from.Space().Equal(n.space) {
		return nil, errors.New("petri: initial configuration over wrong space")
	}
	d := n.space.Len()
	set := conf.NewCountSet(d, 256)
	if budget.SpillDir != "" {
		var err error
		set, err = conf.NewSpillingCountSet(d, 256, conf.SpillOptions{
			Dir: budget.SpillDir, Threshold: budget.SpillThreshold, FS: budget.SpillFS,
		})
		if err != nil {
			return nil, err
		}
	}
	// The first vector opens the arena's first page: no spill I/O.
	set.Insert(from.RawCounts())
	rs := &ReachSet{net: n, set: set}
	rs.parent = append(rs.parent, -1)
	rs.via = append(rs.via, -1)
	rs.depth = append(rs.depth, 0)
	rs.edgeOff = append(rs.edgeOff, 0, 0) // padded for the unexpanded root
	rs.grow = &expander{
		rs:         rs,
		idx:        n.Index(),
		budget:     budget,
		maxConfigs: budget.maxConfigs(), // int32-clamped
		workers:    budget.EffectiveWorkers(),
		scratch:    make([]int64, d),
	}
	return rs, nil
}

// Grow expands the closure's next BFS level. It reports done once
// growth has ended, either because the frontier is empty or because a
// budget, depth or agent cap or Budget.Cancel truncated the closure
// (Complete=false); Grow on an ended closure is a no-op. Between calls
// every accessor, CSR included, sees the closure grown so far; a CSR
// taken before a Grow is invalid after it.
//
// A spill-layer failure is returned as a *conf.SpillError, with the
// closure released; truncation is not an error of Grow.
func (rs *ReachSet) Grow() (done bool, err error) { return rs.growLevels(1) }

// growLevels expands up to levels BFS levels (all of them when levels
// is negative) and pads the CSR offsets for the unexpanded frontier.
func (rs *ReachSet) growLevels(levels int) (done bool, err error) {
	e := rs.grow
	if e == nil {
		return true, nil
	}
	if rs.set.Spilling() {
		// Spill flushes and loads only run on this goroutine (parallel
		// workers read pinned, resident pages exclusively), so one
		// recovery point at the growth boundary converts every
		// spill-layer panic into the typed error.
		defer func() {
			if r := recover(); r != nil {
				se, ok := r.(*conf.SpillError)
				if !ok {
					panic(r)
				}
				rs.set.Release()
				rs.grow = nil
				done, err = true, se
			}
		}()
	}
	// Drop the padding of the previous pause: the frontier's offsets
	// are appended as it is expanded.
	rs.edgeOff = rs.edgeOff[:e.next+1]
	if !e.run(levels) {
		rs.grow = nil
		rs.Complete = rs.trunc == nil
	}
	rs.finalizeEdges()
	return rs.grow == nil, nil
}

// run expands up to levels BFS levels (all of them when levels is
// negative) from the queue head e.next. It reports false once growth
// has ended, recording a truncation in rs.trunc. The BFS queue is the
// node id sequence itself; depths are monotone, so each level is a
// contiguous id range.
func (e *expander) run(levels int) bool {
	rs := e.rs
	budget := e.budget
	for level := e.next; levels != 0; levels-- {
		if budget.cancelled() {
			return e.stop(errCancelled("reach", rs.set.Len()))
		}
		depth := rs.depth[level]
		if budget.MaxDepth > 0 && int(depth) >= budget.MaxDepth {
			// Unexpanded frontier: the closure may be missing deeper
			// configurations.
			return e.stop(errBudget("reach", rs.set.Len()))
		}
		levelEnd := level + 1
		for levelEnd < len(rs.depth) && rs.depth[levelEnd] == depth {
			levelEnd++
		}
		// Under spill, hold the level's pages resident through the
		// expansion: concurrent workers read At on exactly this range,
		// and the sequential path keeps a head's slice live across the
		// resolve calls that could otherwise evict its page.
		rs.set.PinRange(level, levelEnd)
		var ok bool
		if e.workers > 1 && levelEnd-level >= parallelWidth(e.workers) {
			ok = e.expandLevelParallel(level, levelEnd, e.workers)
		} else {
			ok = true
			for head := level; head < levelEnd && ok; head++ {
				// Wide sequential levels re-check cancellation every
				// 1024 nodes so a deadline lands mid-level, not only
				// at level boundaries.
				if head&1023 == 1023 && budget.cancelled() {
					return e.stop(errCancelled("reach", rs.set.Len()))
				}
				ok = e.expandNode(head)
			}
		}
		if !ok {
			return e.stop(errBudget("reach", rs.set.Len()))
		}
		level = levelEnd
		if level == rs.set.Len() {
			if e.pruned {
				// MaxAgents pruned a successor somewhere.
				return e.stop(errBudget("reach", rs.set.Len()))
			}
			return false
		}
		e.next = level
	}
	return true
}

// stop ends growth as a truncation reporting err.
func (e *expander) stop(err error) bool {
	e.rs.trunc = err
	return false
}

// parallelWidth is the minimal level width worth fanning out to the
// given worker count.
func parallelWidth(workers int) int {
	if w := 2 * workers; w > 32 {
		return w
	}
	return 32
}

// expander carries the BFS state of one growing closure.
type expander struct {
	rs         *ReachSet
	idx        *Index
	budget     Budget
	maxConfigs int
	workers    int
	next       int  // BFS queue head: the first unexpanded node id
	pruned     bool // MaxAgents dropped a successor
	scratch    []int64

	// Per-worker buffers of the parallel BFS, reused across levels.
	wrecs    [][]fireRec
	wbufs    [][]int64
	wscratch [][]int64
}

// fireRec is one successful firing computed by a parallel worker,
// resolved against the visited set during the serial merge.
type fireRec struct {
	head int32
	ti   int32
	over bool // MaxAgents exceeded: prune, marking the closure incomplete
	hash uint64
}

// expandNode expands one node sequentially. It reports false when the
// configuration budget was exhausted mid-expansion (exploration stops
// with exactly maxConfigs nodes, the offending successor not added).
func (e *expander) expandNode(head int) bool {
	rs := e.rs
	nt := len(rs.net.trans)
	rs.checkEdgeCapacity(nt)
	cur := rs.set.At(head)
	for ti := 0; ti < nt; ti++ {
		if !e.idx.FireInto(ti, cur, e.scratch) {
			continue
		}
		if e.budget.MaxAgents > 0 && sumCounts(e.scratch) > e.budget.MaxAgents {
			e.pruned = true
			continue
		}
		if !e.resolve(int32(head), int32(ti), e.scratch, conf.HashCounts(e.scratch)) {
			return false
		}
	}
	rs.edgeOff = append(rs.edgeOff, int32(len(rs.edgeTo)))
	return true
}

// resolve commits one successful firing against the visited set: dedup
// or admit the successor (budget permitting) and record the edge. It
// reports false on budget exhaustion. Both the sequential path and the
// parallel merge run through this single implementation — the
// byte-identical-for-any-worker-count guarantee depends on them
// resolving successors identically.
func (e *expander) resolve(head, ti int32, counts []int64, hash uint64) bool {
	rs := e.rs
	id, added, full := rs.set.InsertCapped(counts, hash, e.maxConfigs)
	if full {
		return false
	}
	if added {
		rs.parent = append(rs.parent, head)
		rs.via = append(rs.via, ti)
		rs.depth = append(rs.depth, rs.depth[head]+1)
	}
	rs.edgeTo = append(rs.edgeTo, int32(id))
	rs.edgeVia = append(rs.edgeVia, ti)
	return true
}

// expandLevelParallel expands the level [lo, hi) with the given worker
// count: workers fire every transition of contiguous head chunks into
// private buffers (reads only — the arena is immutable during the
// fan-out), then a serial merge resolves the records against the
// visited set in (head, transition) order, which is exactly the
// sequential exploration order. Node ids, edges and truncation points
// are therefore byte-identical to the sequential BFS.
func (e *expander) expandLevelParallel(lo, hi, workers int) bool {
	rs := e.rs
	d := rs.set.Width()
	for len(e.wrecs) < workers {
		e.wrecs = append(e.wrecs, nil)
		e.wbufs = append(e.wbufs, nil)
		e.wscratch = append(e.wscratch, make([]int64, d))
	}
	chunk := (hi - lo + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wlo := lo + w*chunk
		whi := wlo + chunk
		if whi > hi {
			whi = hi
		}
		if wlo >= whi {
			e.wrecs[w] = e.wrecs[w][:0]
			e.wbufs[w] = e.wbufs[w][:0]
			continue
		}
		wg.Add(1)
		go func(w, wlo, whi int) {
			defer wg.Done()
			recs := e.wrecs[w][:0]
			buf := e.wbufs[w][:0]
			scratch := e.wscratch[w]
			nt := len(rs.net.trans)
			for head := wlo; head < whi; head++ {
				cur := rs.set.At(head)
				for ti := 0; ti < nt; ti++ {
					if !e.idx.FireInto(ti, cur, scratch) {
						continue
					}
					if e.budget.MaxAgents > 0 && sumCounts(scratch) > e.budget.MaxAgents {
						recs = append(recs, fireRec{head: int32(head), ti: int32(ti), over: true})
						continue
					}
					recs = append(recs, fireRec{head: int32(head), ti: int32(ti), hash: conf.HashCounts(scratch)})
					buf = append(buf, scratch...)
				}
			}
			e.wrecs[w] = recs
			e.wbufs[w] = buf
		}(w, wlo, whi)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		wlo := lo + w*chunk
		whi := wlo + chunk
		if whi > hi {
			whi = hi
		}
		if wlo >= whi {
			continue
		}
		recs := e.wrecs[w]
		buf := e.wbufs[w]
		ri, off := 0, 0
		for head := wlo; head < whi; head++ {
			rs.checkEdgeCapacity(len(rs.net.trans))
			for ri < len(recs) && int(recs[ri].head) == head {
				rec := recs[ri]
				ri++
				if rec.over {
					e.pruned = true
					continue
				}
				counts := buf[off*d : (off+1)*d]
				off++
				if !e.resolve(rec.head, rec.ti, counts, rec.hash) {
					return false
				}
			}
			rs.edgeOff = append(rs.edgeOff, int32(len(rs.edgeTo)))
		}
	}
	return true
}

const maxInt32 = 1<<31 - 1

// checkEdgeCapacity fails loudly if recording one more node's edges
// could overflow the int32 CSR offsets — a closure past 2³¹ edges is
// beyond any realistic budget (and memory), but it must not wrap
// silently.
func (rs *ReachSet) checkEdgeCapacity(nt int) {
	if len(rs.edgeTo) > maxInt32-nt {
		panic("petri: closure exceeds int32 edge capacity")
	}
}

// finalizeEdges pads the CSR offset array for nodes not expanded (yet,
// or ever on a truncated frontier), so it has Len()+1 entries.
func (rs *ReachSet) finalizeEdges() {
	for len(rs.edgeOff) <= rs.set.Len() {
		rs.edgeOff = append(rs.edgeOff, int32(len(rs.edgeTo)))
	}
}

func sumCounts(c []int64) int64 {
	var total int64
	for _, v := range c {
		total += v
	}
	return total
}

func errBudget(op string, visited int) error {
	return &BudgetError{Op: op, Visited: visited}
}

// ErrCancelled is reported (wrapped) when an exploration is aborted by
// Budget.Cancel. It is a truncation, not a failure of the net: the
// caller asked the search to stop.
var ErrCancelled = errors.New("petri: exploration cancelled")

func errCancelled(op string, visited int) error {
	return fmt.Errorf("petri: %s cancelled after %d configurations: %w", op, visited, ErrCancelled)
}

// BudgetError reports a truncated exploration. It wraps ErrBudget.
type BudgetError struct {
	Op      string
	Visited int
}

func (e *BudgetError) Error() string {
	return "petri: " + e.Op + ": exploration budget exhausted"
}

// Unwrap makes errors.Is(err, ErrBudget) succeed.
func (e *BudgetError) Unwrap() error { return ErrBudget }

// Len returns the number of configurations in the closure.
func (rs *ReachSet) Len() int { return rs.set.Len() }

// Release deletes the closure's spill files when the exploration ran
// out-of-core (Budget.SpillDir); the ReachSet must not be used
// afterwards. For in-RAM closures it is a no-op, so callers can
// defer it unconditionally.
func (rs *ReachSet) Release() { rs.set.Release() }

// SpillStats reports the closure arena's spill traffic (pages
// evicted, pages loaded); both zero for in-RAM closures.
func (rs *ReachSet) SpillStats() (evictions, loads int) { return rs.set.SpillStats() }

// ArenaBytes returns the closure arena's total footprint in bytes
// (resident + spilled).
func (rs *ReachSet) ArenaBytes() int64 { return rs.set.ArenaBytes() }

// Config returns the configuration with the given node id as a
// zero-copy view into the closure arena. The counts must not be
// mutated. For in-RAM closures the view stays valid for the life of
// the ReachSet; for spilled closures it is only valid until the next
// Config/ID/Contains call, which may evict the page behind it — use
// Clone to detach a configuration that must outlive the iteration.
func (rs *ReachSet) Config(id int) conf.Config {
	return conf.View(rs.net.space, rs.set.At(id))
}

// ID returns the node id of a configuration, if present.
func (rs *ReachSet) ID(c conf.Config) (int, bool) {
	counts := c.RawCounts()
	if len(counts) != rs.set.Width() {
		return 0, false
	}
	return rs.set.Lookup(counts)
}

// Contains reports whether the configuration is in the closure.
func (rs *ReachSet) Contains(c conf.Config) bool {
	_, ok := rs.ID(c)
	return ok
}

// NumEdges returns the number of explored edges.
func (rs *ReachSet) NumEdges() int { return len(rs.edgeTo) }

// Edges returns the outgoing explored edges of a node. The slice is
// freshly allocated; hot paths should use CSR instead.
func (rs *ReachSet) Edges(id int) []Edge {
	lo, hi := rs.edgeOff[id], rs.edgeOff[id+1]
	if lo == hi {
		return nil
	}
	out := make([]Edge, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, Edge{Trans: int(rs.edgeVia[i]), To: int(rs.edgeTo[i])})
	}
	return out
}

// CSR returns the closure's edge structure as a compressed sparse row
// graph sharing the ReachSet's backing arrays — no per-node slices are
// allocated. Node ids match the closure's.
func (rs *ReachSet) CSR() graph.CSR {
	return graph.CSR{Off: rs.edgeOff, Dst: rs.edgeTo}
}

// Depth returns the BFS depth of a node (shortest word length from the
// root).
func (rs *ReachSet) Depth(id int) int { return int(rs.depth[id]) }

// Parent returns the BFS tree parent of a node: the node whose
// expansion discovered it, −1 at the root.
func (rs *ReachSet) Parent(id int) int { return int(rs.parent[id]) }

// PathTo returns a shortest firing word (as transition indices) from the
// root to the given node.
func (rs *ReachSet) PathTo(id int) []int {
	var rev []int
	for cur := id; rs.parent[cur] >= 0; cur = int(rs.parent[cur]) {
		rev = append(rev, int(rs.via[cur]))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ForEach calls fn for every node id in BFS order, stopping early if fn
// returns false. The configurations are arena views, valid for the life
// of the ReachSet.
func (rs *ReachSet) ForEach(fn func(id int, c conf.Config) bool) {
	for id := 0; id < rs.set.Len(); id++ {
		if !fn(id, rs.Config(id)) {
			return
		}
	}
}

// AdjacencyLists returns the closure's edge structure as plain
// adjacency lists. It allocates one slice per node; graph algorithms
// on the hot path should use CSR instead.
func (rs *ReachSet) AdjacencyLists() [][]int {
	adj := make([][]int, rs.set.Len())
	for id := range adj {
		lo, hi := rs.edgeOff[id], rs.edgeOff[id+1]
		if lo == hi {
			continue
		}
		adj[id] = make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			adj[id] = append(adj[id], int(rs.edgeTo[i]))
		}
	}
	return adj
}
