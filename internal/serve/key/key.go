// Package key derives the content-addressed cache keys of the
// ppserve daemon: every query is reduced to a canonical form and
// hashed, so two requests that mean the same computation — whatever
// their JSON formatting, member order, or omitted-default spelling —
// land on the same key, and any semantic difference (protocol spec,
// parameters, seed, budget, or the key schema version itself) lands
// on a different one. Keys address the persistent result store, so a
// key collision would serve one query's result for another and a key
// split would silently recompute (or, worse, poison a restored cache):
// both directions are pinned by a golden-file test
// (testdata/key.golden.json) that fails on any canonicalization or
// schema drift.
//
// Derivation: the query is normalized (defaults filled in explicitly,
// parameters validated against the registry and scheduler tables; the
// registry states each protocol's threshold as arithmetic, so no
// protocol is built to key a query),
// wrapped in an envelope carrying SchemaVersion, marshaled, and
// canonicalized by internal/canon (sorted keys, compact, number-exact).
// The canonical bytes are hashed twice: SHA-256 is the store address
// (collision-resistant against distinct queries), CRC-32C is the
// short display/correlation form used in job ids and logs. Bump
// SchemaVersion whenever the canonical form or the meaning of any
// field changes — old store entries then miss rather than mislead.
package key

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/canon"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/verify"
)

// SchemaVersion versions the key derivation itself. It is hashed into
// every key, so bumping it invalidates the whole cache at once —
// which is the point: a schema change means old results may no longer
// answer new queries.
const SchemaVersion = 1

// Query kinds, one per serving endpoint.
const (
	KindSimulate = "simulate"
	KindVerify   = "verify"
	KindBounds   = "bounds"
	KindSweep    = "sweep"
)

// Spec names a protocol construction: a registry entry plus its
// parameter. It is the "protocol spec" component of every cache key.
type Spec struct {
	// Protocol is the registry name (example41, flock, power2, ...).
	Protocol string `json:"protocol"`
	// Param is the construction parameter (threshold n or level k).
	Param int64 `json:"param"`
}

// SimulateParams are the /v1/simulate parameters: one sim.Query, the
// run ppsim prints. Normalize fills its zero members, so the key
// always hashes the explicit form.
type SimulateParams = sim.Query

// VerifyParams are the /v1/verify parameters: one verify.Query, the
// bounded verification ppverify prints.
type VerifyParams = verify.Query

// BoundsParams are the /v1/bounds parameters: one bounds.Query, the
// evaluation a ppbounds subcommand prints. Only the fields of the
// selected Op are hashed (the rest must be zero).
type BoundsParams = bounds.Query

// SweepParams are the /v1/sweep parameters: a multi-size anytime
// sweep over the shard planner, streamed as NDJSON cell deltas and
// cached whole under the plan-content key.
type SweepParams struct {
	// Sizes are the population sizes swept (required, no duplicates —
	// they are the merge keys).
	Sizes []int64 `json:"sizes"`
	// Trials is the per-size trial ceiling (default 10); an enabled
	// stop rule may cancel the tail.
	Trials int `json:"trials"`
	// RunParams are the run members a sweep shares with a simulate
	// query; per-(size, trial) seeds derive positionally from Seed.
	sim.RunParams
	// Block is the trial-axis dice: every streamed delta and every
	// stopping checkpoint covers Block trials (the last block ragged).
	// Default ⌈Trials/4⌉, so a sweep streams at least ~4 deltas per
	// size. Always explicit in the canonical form: the block size
	// changes the stream and the stopping boundaries, hence the key.
	Block int `json:"block"`
	// CITarget enables sequential stopping: a size stops once its 95%
	// CI half-width is ≤ CITarget × mean steps (after MinTrials).
	// 0 disables stopping and omits both fields from the key.
	CITarget  float64 `json:"ci_target,omitempty"`
	MinTrials int     `json:"min_trials,omitempty"`
}

// Query is one canonicalized request: a kind, a protocol spec (unused
// by bounds queries), and exactly the parameter block of its kind.
type Query struct {
	Kind     string          `json:"kind"`
	Spec     Spec            `json:"spec"`
	Simulate *SimulateParams `json:"simulate,omitempty"`
	Verify   *VerifyParams   `json:"verify,omitempty"`
	Bounds   *BoundsParams   `json:"bounds,omitempty"`
	Sweep    *SweepParams    `json:"sweep,omitempty"`
}

// envelope is the hashed document: the schema version rides inside,
// so a derivation change can never collide with an old key.
type envelope struct {
	Schema int   `json:"schema"`
	Query  Query `json:"query"`
}

// Normalize validates q and fills every defaulted field with its
// explicit value, so the canonical form is independent of which
// defaults the client spelled out. A protocol spec is validated
// against the registry's arithmetic shape (registry.ShapeOf): the
// parameter is checked as the construction would check it, and the
// threshold read, without building the protocol. It is idempotent: normalizing a
// normalized query changes nothing, which is what keeps a re-posted
// cached response keying back to itself.
func (q *Query) Normalize() error {
	switch q.Kind {
	case KindSimulate:
		if q.Simulate == nil || q.Verify != nil || q.Bounds != nil || q.Sweep != nil {
			return fmt.Errorf("key: %s query must carry exactly the simulate parameter block", q.Kind)
		}
		if _, err := registry.ShapeOf(q.Spec.Protocol, q.Spec.Param); err != nil {
			return err
		}
		return q.Simulate.Normalize()
	case KindVerify:
		if q.Verify == nil || q.Simulate != nil || q.Bounds != nil || q.Sweep != nil {
			return fmt.Errorf("key: %s query must carry exactly the verify parameter block", q.Kind)
		}
		sh, err := registry.ShapeOf(q.Spec.Protocol, q.Spec.Param)
		if err != nil {
			return err
		}
		return q.Verify.Normalize(sh.Threshold)
	case KindBounds:
		if q.Bounds == nil || q.Simulate != nil || q.Verify != nil || q.Sweep != nil {
			return fmt.Errorf("key: %s query must carry exactly the bounds parameter block", q.Kind)
		}
		if q.Spec != (Spec{}) {
			return fmt.Errorf("key: bounds queries take no protocol spec (got %+v)", q.Spec)
		}
		return q.Bounds.Normalize()
	case KindSweep:
		if q.Sweep == nil || q.Simulate != nil || q.Verify != nil || q.Bounds != nil {
			return fmt.Errorf("key: %s query must carry exactly the sweep parameter block", q.Kind)
		}
		// Sweeps score Correct against a counting threshold, like the
		// ppsweep pipeline: non-counting protocols have no per-size
		// expected value.
		sh, err := registry.ShapeOf(q.Spec.Protocol, q.Spec.Param)
		if err != nil {
			return err
		}
		if n := sh.Threshold; n <= 0 {
			return fmt.Errorf("key: %s decides no counting predicate; sweeps need a threshold", q.Spec.Protocol)
		}
		p := q.Sweep
		if len(p.Sizes) == 0 {
			return fmt.Errorf("key: sweep needs a non-empty size list")
		}
		seen := make(map[int64]bool, len(p.Sizes))
		for _, x := range p.Sizes {
			if x < 0 {
				return fmt.Errorf("key: negative sweep size %d", x)
			}
			if seen[x] {
				return fmt.Errorf("key: duplicate sweep size %d (sizes are merge keys)", x)
			}
			seen[x] = true
		}
		if p.Trials == 0 {
			p.Trials = 10
		}
		if p.Trials < 0 {
			return fmt.Errorf("key: negative trials %d", p.Trials)
		}
		if err := p.RunParams.Normalize(); err != nil {
			return err
		}
		if p.Block < 0 {
			return fmt.Errorf("key: negative trial block %d", p.Block)
		}
		if p.Block == 0 {
			// ≥ ~4 deltas per size by default; the dice is key material,
			// so the default is spelled out explicitly.
			p.Block = (p.Trials + 3) / 4
			if p.Block < 1 {
				p.Block = 1
			}
		}
		// Stop-rule normalization mirrors sim.StopRule.WithDefaults so a
		// defaulted floor and a spelled-out one share a key.
		rule := sim.StopRule{TargetRelCI: p.CITarget, MinTrials: p.MinTrials}
		if err := rule.Validate(); err != nil {
			return err
		}
		if rule.Enabled() {
			p.MinTrials = rule.WithDefaults().MinTrials
		}
	default:
		return fmt.Errorf("key: unknown query kind %q", q.Kind)
	}
	return nil
}

// Key is the content address of one normalized query: SHA-256 of the
// canonical envelope addresses the store; CRC-32C of the same bytes
// is the short correlation form in job ids, headers and logs.
type Key struct {
	// SHA is 64 hex digits of SHA-256 over the canonical envelope.
	SHA string
	// CRC is the short "crc32c:%08x" rendering of the same bytes.
	CRC string
}

// String renders the store-addressing form.
func (k Key) String() string { return "sha256:" + k.SHA }

// Short is the 8-hex correlation tag used in job ids.
func (k Key) Short() string { return k.CRC[len("crc32c:"):] }

// Of normalizes q in place and derives its key. The error cases are
// exactly Normalize's: a derivable key implies a valid query.
func Of(q *Query) (Key, error) {
	if err := q.Normalize(); err != nil {
		return Key{}, err
	}
	return OfNormalized(q)
}

// OfNormalized derives the key of a query Normalize already accepted,
// for a caller that normalized it earlier (to price it) and should
// not pay for normalization twice. On any other query the key is
// meaningless.
func OfNormalized(q *Query) (Key, error) {
	data, err := json.Marshal(envelope{Schema: SchemaVersion, Query: *q})
	if err != nil {
		return Key{}, err
	}
	canonical, err := canon.Canonicalize(data)
	if err != nil {
		return Key{}, err
	}
	sum := sha256.Sum256(canonical)
	return Key{
		SHA: hex.EncodeToString(sum[:]),
		CRC: canon.FormatChecksum(canon.CRC32C(canonical)),
	}, nil
}
