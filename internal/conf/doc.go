// Package conf provides configurations — multisets of agents over a
// state Space (ρ ∈ ℕ^P) — and the arena-backed set structures the
// simulation and verification engines dedup them with.
//
// Two ownership conventions are invariants the engines above rely on:
//
//   - Configs are value-like. Arithmetic methods return fresh Configs
//     and never mutate their receiver unless the method name says so:
//     the InPlace suffix (AddDeltaInPlace), CopyFrom and the RawCounts
//     backing-slice accessor are the explicit mutation surface the hot
//     paths use; everything else is safe to share.
//   - CountSet owns its counts. Every distinct count vector inserted
//     into a CountSet is copied once into a single flat int64 arena;
//     the node id is its insertion order, and At returns a view into
//     the arena that is stable for the set's lifetime but owned by
//     it — callers must copy before mutating. Deduplication runs
//     through an open-addressing table over splitmix64-mixed integer
//     hashes of the raw counts (HashCounts), with collisions resolved
//     by exact comparison, so membership is exact regardless of hash
//     quality and no string key exists anywhere. InsertCapped folds
//     lookup, budget check and insertion into one probe sequence;
//     insertion order — and therefore every id handed out — is
//     deterministic in the insertion sequence, which is what makes
//     the closure engines' node ids reproducible.
//
// Enumerate and Space provide the bounded enumeration and index
// machinery (IndexMap, RestrictInto) the verifiers restrict
// configurations with.
package conf
