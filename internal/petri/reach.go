package petri

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/conf"
	"repro/internal/graph"
)

// ErrBudget is reported (wrapped) when an exploration exceeds its budget.
var ErrBudget = errors.New("petri: exploration budget exhausted")

// Budget bounds an exploration. The zero value applies defaults.
type Budget struct {
	// MaxConfigs caps the number of distinct configurations visited.
	// Zero means DefaultMaxConfigs.
	MaxConfigs int
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
// A closure is either built whole by Reach (or ReachReusing, in the
// storage of a closure the caller is done with), or started by
// StartReach and grown one BFS level at a time by Grow. All run the
// same BFS, so node ids, edges and the truncation point do not depend
// on how the closure was grown.
type ReachSet struct {
	net     *Net
	set     *conf.CountSet
	edgeOff []int32 // CSR offsets; padded to length Len()+1 whenever growth pauses
	edgeTo  []int32
	edgeVia []int32
	parent  []int32 // BFS tree parent node, −1 at the root
	via     []int32 // transition fired from parent, −1 at the root
	depth   []int32

	// grow is the BFS driver; nil once growth has ended. It points to
	// exp, which outlives growth so that ReachReusing can reuse its
	// scratch buffer.
	grow *expander
	exp  expander
	// trunc is the error a truncated closure reports: a wrapped
	// ErrBudget or ErrCancelled, set when growth ends.
	trunc error

	// Complete reports that growth has ended with the exact closure: no
	// budget or cancellation truncated it. It is false while the
	// closure is still growing. Analyses that require exactness must
	// check it.
	Complete bool
}

// Reach computes the forward closure of from under the net, breadth
// first, within the budget. A truncated closure is still returned (with
// Complete=false) together with a wrapped ErrBudget, so callers can
// inspect partial results while being unable to mistake them for exact
// ones.
func (n *Net) Reach(from conf.Config, budget Budget) (*ReachSet, error) {
	return n.ReachReusing(context.Background(), nil, from, budget)
}

// ReachReusing is Reach building the closure in the storage of old, a
// closure the caller is done with; nil builds fresh, as Reach does.
// After the call old and every view taken from it (Config, CSR, Edges)
// are invalid: its arrays hold the new closure. The new closure does
// not depend on old; reuse only saves allocations.
//
// Once ctx is done the walk stops at its next cancellation checkpoint
// and returns the partial closure, with Complete=false and an error
// wrapping ErrCancelled, so a timed-out or disconnected caller frees
// its worker instead of finishing a closure nobody will read. The
// partial closure is exactly a truncation.
func (n *Net) ReachReusing(ctx context.Context, old *ReachSet, from conf.Config, budget Budget) (*ReachSet, error) {
	rs, err := n.startReach(ctx, old, from, budget)
	if err != nil {
		return nil, err
	}
	rs.growLevels(-1)
	return rs, rs.trunc
}

// StartReach returns the closure of from that holds only the root,
// ready to be grown by Grow within the budget. Its growth is never
// cancelled.
func (n *Net) StartReach(from conf.Config, budget Budget) (*ReachSet, error) {
	return n.startReach(context.Background(), nil, from, budget)
}

// startReach is the one set-up path of every closure: the root alone,
// in old's emptied arrays when old is not nil, in fresh ones
// otherwise, growing until ctx is done.
func (n *Net) startReach(ctx context.Context, old *ReachSet, from conf.Config, budget Budget) (*ReachSet, error) {
	if !from.Space().Equal(n.space) {
		return nil, errors.New("petri: initial configuration over wrong space")
	}
	d := n.space.Len()
	rs := old
	if rs == nil {
		rs = &ReachSet{}
	}
	set := rs.set
	if set == nil || set.Width() != d {
		set = conf.NewCountSet(d, 16)
	} else {
		set.Reset()
	}
	set.Insert(from.RawCounts())
	scratch := rs.exp.scratch
	if cap(scratch) < d {
		scratch = make([]int64, d)
	}
	*rs = ReachSet{
		net:     n,
		set:     set,
		edgeOff: append(rs.edgeOff[:0], 0, 0), // padded for the unexpanded root
		edgeTo:  rs.edgeTo[:0],
		edgeVia: rs.edgeVia[:0],
		parent:  append(rs.parent[:0], -1),
		via:     append(rs.via[:0], -1),
		depth:   append(rs.depth[:0], 0),
	}
	rs.exp = expander{
		rs:         rs,
		idx:        n.Index(),
		done:       ctx.Done(),
		maxConfigs: budget.maxConfigs(), // int32-clamped
		scratch:    scratch[:d],
	}
	rs.grow = &rs.exp
	return rs, nil
}

// Grow expands the closure's next BFS level. It reports done once
// growth has ended, either because the frontier is empty or because
// Budget.MaxConfigs truncated the closure (Complete=false); Grow on
// an ended closure is a no-op. Between calls every accessor, CSR
// included, sees the closure grown so far; a CSR taken before a Grow
// is invalid after it. Truncation is not an error of Grow: it shows as
// done with Complete=false.
func (rs *ReachSet) Grow() (done bool) { return rs.growLevels(1) }

// growLevels expands up to levels BFS levels (all of them when levels
// is negative), pads the CSR offsets for the unexpanded frontier and
// reports whether growth has ended.
func (rs *ReachSet) growLevels(levels int) bool {
	e := rs.grow
	if e == nil {
		return true
	}
	// Drop the padding of the previous pause: the frontier's offsets
	// are appended as it is expanded.
	rs.edgeOff = rs.edgeOff[:e.next+1]
	if !e.run(levels) {
		rs.grow = nil
		e.done = nil // a reused closure keeps no finished caller's context
		rs.Complete = rs.trunc == nil
	}
	rs.finalizeEdges()
	return rs.grow == nil
}

// run expands up to levels BFS levels (all of them when levels is
// negative) from the queue head e.next. It reports false once growth
// has ended, recording a truncation in rs.trunc. The BFS queue is the
// node id sequence itself; depths are monotone, so each level is a
// contiguous id range.
func (e *expander) run(levels int) bool {
	rs := e.rs
	for level := e.next; levels != 0; levels-- {
		if e.cancelled() {
			return e.stop(errCancelled("reach", rs.set.Len()))
		}
		depth := rs.depth[level]
		levelEnd := level + 1
		for levelEnd < len(rs.depth) && rs.depth[levelEnd] == depth {
			levelEnd++
		}
		for head := level; head < levelEnd; head++ {
			// Wide levels re-check cancellation every 1024 nodes so a
			// deadline lands mid-level, not only at level boundaries.
			if head&1023 == 1023 && e.cancelled() {
				return e.stop(errCancelled("reach", rs.set.Len()))
			}
			if !e.expandNode(head) {
				return e.stop(errBudget("reach", rs.set.Len()))
			}
		}
		level = levelEnd
		if level == rs.set.Len() {
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

// expander carries the BFS state of one growing closure.
type expander struct {
	rs         *ReachSet
	idx        *Index
	done       <-chan struct{} // the caller's ctx.Done(); nil never cancels
	maxConfigs int
	next       int // BFS queue head: the first unexpanded node id
	scratch    []int64
}

// cancelled polls the caller's context without blocking.
func (e *expander) cancelled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// expandNode fires every transition of one node in transition order,
// committing each successor against the visited set: dedup or admit
// it (budget permitting) and record the edge. It reports false when
// the configuration budget was exhausted mid-expansion (exploration
// stops with exactly maxConfigs nodes, the offending successor not
// added).
func (e *expander) expandNode(head int) bool {
	rs := e.rs
	nt := len(rs.net.trans)
	rs.checkEdgeCapacity(nt)
	cur := rs.set.At(head)
	for ti := 0; ti < nt; ti++ {
		if !e.idx.FireInto(ti, cur, e.scratch) {
			continue
		}
		id, added, full := rs.set.InsertCapped(e.scratch, conf.HashCounts(e.scratch), e.maxConfigs)
		if full {
			return false
		}
		if added {
			rs.parent = append(rs.parent, int32(head))
			rs.via = append(rs.via, int32(ti))
			rs.depth = append(rs.depth, rs.depth[head]+1)
		}
		rs.edgeTo = append(rs.edgeTo, int32(id))
		rs.edgeVia = append(rs.edgeVia, int32(ti))
	}
	rs.edgeOff = append(rs.edgeOff, int32(len(rs.edgeTo)))
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
// its caller's context. It is a truncation, not a failure of the net:
// the caller asked the search to stop.
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

// Release is a no-op, kept for callers that release closures
// explicitly: a closure lives in RAM and the garbage collector
// reclaims it.
func (rs *ReachSet) Release() {}

// Config returns the configuration with the given node id as a
// zero-copy view into the closure arena. The counts must not be
// mutated. The view stays valid for the life of the ReachSet, until
// the ReachSet is handed to ReachReusing; use Clone to detach a
// configuration that must outlive it or not keep the arena alive.
func (rs *ReachSet) Config(id int) conf.Config {
	return conf.View(rs.net.space, rs.set.At(id))
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
