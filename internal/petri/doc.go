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
//     through reusable scratch buffers (Index.FireInto, BackFireInto,
//     and the ω-aware variant Karp–Miller uses), so the search path
//     allocates nothing per step.
//   - CSR edge sharing. ReachSet records edges in compressed-sparse-
//     row form and ReachSet.CSR hands the offset/target/transition
//     arrays to internal/graph zero-copy: graph algorithms (SCC,
//     condensation, reverse reachability) read the closure's memory,
//     they do not copy it. The arrays are owned by the ReachSet and
//     immutable once exploration finishes.
//   - Deterministic parallel merge order. The optional parallel BFS
//     (Budget.Workers) expands wide levels with N workers firing into
//     private buffers, then merges their records serially in
//     (head, transition) order — exactly sequential exploration
//     order — so node ids, edges, shortest-word trees and truncation
//     points are byte-identical for every worker count, including
//     budget-truncated runs.
//
// A closure can also be grown lazily: StartReach returns it holding
// only the root, and each ReachSet.Grow expands one BFS level through
// the same driver Reach runs to the end, so node ids, edges and the
// truncation point do not depend on where growth paused.
//
// Budgets (Budget.MaxConfigs, depth and agent caps) truncate
// deterministically: the closure returns with exactly the budgeted
// node count and an error that says the budget, not the instance,
// ended the search.
package petri
