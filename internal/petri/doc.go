// Package petri implements P-Petri nets and the arena-backed closure
// engine — forward reachability (ReachSet), backward coverability,
// Karp–Miller trees — that the verification experiments run on.
//
// The engine's performance contract (established in PR 4, pinned by
// reach_ref_test.go against a string-keyed reference implementation)
// rests on three invariants:
//
//   - Arena ownership. Every configuration discovered by a closure
//     lives once, flat, in a conf.CountSet arena; node id equals
//     insertion order, which equals BFS discovery order. Firing runs
//     through reusable scratch buffers (Index.FireInto,
//     Index.BackFireInto and the ω-aware variant Karp–Miller uses), so
//     the search path allocates nothing per step.
//   - CSR edge sharing. ReachSet records edges in compressed-sparse-
//     row form and ReachSet.CSR hands the offset/target/transition
//     arrays to internal/graph zero-copy: graph algorithms (SCC,
//     reverse reachability) read the closure's memory, they do not
//     copy it. The arrays are owned by the ReachSet and immutable once
//     exploration finishes.
//   - Sequential exploration order. One driver, on one goroutine,
//     expands every closure in RAM: nodes in id order, each node's
//     transitions in index order. Node ids, edges, shortest-word trees
//     and truncation points therefore depend only on the net, the
//     root and Budget.MaxConfigs; callers that explore many closures
//     at once (verify.Range) run one sequential walk per worker.
//
// A closure can also be grown lazily: StartReach returns it holding
// only the root, and each ReachSet.Grow expands one BFS level through
// the same driver Reach runs to the end, so node ids, edges and the
// truncation point do not depend on where growth paused.
//
// A closure owns its arrays until its caller hands them over:
// Net.ReachReusing(ctx, old, from, budget) builds the closure of from in
// old's CountSet (emptied by CountSet.Reset, its table kept) and in
// old's edge and tree arrays, and from then on old and every view
// taken from it — Config, CSR, Edges, the configurations ForEach
// passes — read the new closure's memory and are invalid; the BFS
// driver and its scratch buffer are reused with them. Reuse is the
// caller's choice alone: Reach and StartReach always build fresh
// (they are ReachReusing's set-up with old = nil), Release does not
// recycle anything, and petri pools nothing. A caller that reuses
// copies out whatever must outlive the next build. verify keeps its
// closures in a private pool of workspaces that never hands storage
// out: its reports copy their input and counterexample.
//
// Budget.MaxConfigs truncates deterministically: the closure returns
// with exactly the budgeted node count and an error that says the
// budget, not the instance, ended the search. The ctx of ReachReusing
// truncates once it is done, at the next cancellation checkpoint (each
// BFS level boundary and every 1024 nodes), with an error wrapping
// ErrCancelled; a closure keeps no reference to ctx after its growth
// ends. Reach and StartReach are never cancelled.
package petri
