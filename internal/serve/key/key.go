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
// parameters validated against the registry and scheduler tables),
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

	"repro/internal/canon"
	"repro/internal/registry"
	"repro/internal/sim"
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

// SimulateParams are the /v1/simulate parameters. Zero values are
// filled in by Normalize so the key always hashes the explicit form.
type SimulateParams struct {
	// X and Y are the initial counts of the first and second input
	// state (Y is meaningful for two-input protocols like majority).
	X int64 `json:"x"`
	Y int64 `json:"y,omitempty"`
	// Trials is the number of runs (default 1); per-trial seeds are
	// derived positionally from Seed.
	Trials int `json:"trials"`
	// Seed is the base PRNG seed (default 1).
	Seed int64 `json:"seed"`
	// MaxSteps caps interactions per run (default 1<<20).
	MaxSteps int `json:"max_steps"`
	// Patience is the consensus patience in steps; 0 runs to MaxSteps.
	Patience int `json:"patience"`
	// Scheduler is weighted, uniform, countbatch or auto (default
	// weighted).
	Scheduler string `json:"scheduler"`
	// Batch is the countbatch/auto aggregation threshold (0 = the
	// default); other schedulers take none.
	Batch int `json:"batch,omitempty"`
	// Eps is the countbatch/auto drift tolerance in (0, 1) (0 = the
	// default); other schedulers take none.
	Eps float64 `json:"eps,omitempty"`
}

// VerifyParams are the /v1/verify parameters.
type VerifyParams struct {
	// MaxX bounds the verified inputs x ∈ [0, MaxX]; 0 means the
	// protocol's n+3 (resolved to its explicit value by Normalize).
	MaxX int64 `json:"max_x"`
	// Budget caps each input's closure size (default 1<<20). It also
	// drives admission control: closure memory is the resource the
	// daemon's token bucket guards.
	Budget int `json:"budget"`
}

// BoundsParams are the /v1/bounds parameters: one of the ppbounds
// subcommand evaluations. Fields mirror the CLI flags; only the
// fields of the selected Op are hashed (the rest must be zero).
type BoundsParams struct {
	// Op is thm43, minstates, cor44, rackoff or section8.
	Op string `json:"op"`
	// D is the state count (thm43: max; minstates/rackoff/section8: |P|).
	D int `json:"d,omitempty"`
	// W and L are interaction width and leader norms (thm43, section8).
	W int64 `json:"w,omitempty"`
	L int64 `json:"l,omitempty"`
	// T and R are ‖T‖∞ and ‖target‖∞ (rackoff, section8).
	T int64 `json:"t,omitempty"`
	R int64 `json:"r,omitempty"`
	// Log10N and M parameterize minstates; H and M cor44, with KMax rows.
	Log10N float64 `json:"log10n,omitempty"`
	H      float64 `json:"h,omitempty"`
	M      int64   `json:"m,omitempty"`
	KMax   int     `json:"kmax,omitempty"`
}

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
	// Seed is the sweep's base seed (default 1); per-(size, trial)
	// seeds derive positionally.
	Seed int64 `json:"seed"`
	// MaxSteps and Patience mirror SimulateParams.
	MaxSteps int `json:"max_steps"`
	Patience int `json:"patience"`
	// Scheduler/Batch/Eps mirror SimulateParams.
	Scheduler string  `json:"scheduler"`
	Batch     int     `json:"batch,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
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
// defaults the client spelled out. It is idempotent: normalizing a
// normalized query changes nothing, which is what keeps a re-posted
// cached response keying back to itself.
func (q *Query) Normalize() error {
	switch q.Kind {
	case KindSimulate:
		if q.Simulate == nil || q.Verify != nil || q.Bounds != nil || q.Sweep != nil {
			return fmt.Errorf("key: %s query must carry exactly the simulate parameter block", q.Kind)
		}
		if err := q.normalizeSpec(); err != nil {
			return err
		}
		p := q.Simulate
		if p.X < 0 || p.Y < 0 {
			return fmt.Errorf("key: negative input counts x=%d y=%d", p.X, p.Y)
		}
		if p.Trials == 0 {
			p.Trials = 1
		}
		if p.Trials < 0 {
			return fmt.Errorf("key: negative trials %d", p.Trials)
		}
		if err := normalizeRun(&p.Seed, &p.MaxSteps, &p.Patience, &p.Scheduler, &p.Batch, &p.Eps); err != nil {
			return err
		}
	case KindVerify:
		if q.Verify == nil || q.Simulate != nil || q.Bounds != nil || q.Sweep != nil {
			return fmt.Errorf("key: %s query must carry exactly the verify parameter block", q.Kind)
		}
		if err := q.normalizeSpec(); err != nil {
			return err
		}
		_, n, err := registry.Make(q.Spec.Protocol, q.Spec.Param)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("key: %s does not decide a counting predicate; verify handles counting protocols", q.Spec.Protocol)
		}
		p := q.Verify
		if p.MaxX == 0 {
			p.MaxX = n + 3
		}
		if p.MaxX < 0 {
			return fmt.Errorf("key: negative max_x %d", p.MaxX)
		}
		if p.Budget == 0 {
			p.Budget = 1 << 20
		}
		if p.Budget < 0 {
			return fmt.Errorf("key: negative budget %d", p.Budget)
		}
	case KindBounds:
		if q.Bounds == nil || q.Simulate != nil || q.Verify != nil || q.Sweep != nil {
			return fmt.Errorf("key: %s query must carry exactly the bounds parameter block", q.Kind)
		}
		if q.Spec != (Spec{}) {
			return fmt.Errorf("key: bounds queries take no protocol spec (got %+v)", q.Spec)
		}
		return q.Bounds.normalize()
	case KindSweep:
		if q.Sweep == nil || q.Simulate != nil || q.Verify != nil || q.Bounds != nil {
			return fmt.Errorf("key: %s query must carry exactly the sweep parameter block", q.Kind)
		}
		if err := q.normalizeSpec(); err != nil {
			return err
		}
		// Sweeps score Correct against a counting threshold, like the
		// ppsweep pipeline: non-counting protocols have no per-size
		// expected value.
		_, n, err := registry.Make(q.Spec.Protocol, q.Spec.Param)
		if err != nil {
			return err
		}
		if n <= 0 {
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
		if err := normalizeRun(&p.Seed, &p.MaxSteps, &p.Patience, &p.Scheduler, &p.Batch, &p.Eps); err != nil {
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

// normalizeRun fills and validates the run parameters simulate and
// sweep queries share. The scheduler's batch/eps defaults are spelled
// out, so "default batch" and the written-out default share a key;
// which scheduler takes them, and in what range, is sim's rule.
func normalizeRun(seed *int64, maxSteps, patience *int, scheduler *string, batch *int, eps *float64) error {
	if *seed == 0 {
		*seed = 1
	}
	if *maxSteps == 0 {
		*maxSteps = 1 << 20
	}
	if *maxSteps < 0 || *patience < 0 {
		return fmt.Errorf("key: negative step budget (max_steps=%d patience=%d)", *maxSteps, *patience)
	}
	if *scheduler == "" {
		*scheduler = "weighted"
	}
	var err error
	*batch, *eps, err = sim.SchedulerParams(*scheduler, *batch, *eps)
	return err
}

func (q *Query) normalizeSpec() error {
	if _, err := registry.Lookup(q.Spec.Protocol); err != nil {
		return err
	}
	return nil
}

// normalize fills the selected bounds op's defaults and rejects
// parameters that belong to a different op: a stray member would
// otherwise split the cache between equal evaluations.
func (p *BoundsParams) normalize() error {
	allowed := map[string][]string{
		"thm43":     {"d", "w", "l"},
		"minstates": {"log10n", "m"},
		"cor44":     {"kmax", "h", "m"},
		"rackoff":   {"d", "t", "r"},
		"section8":  {"d", "t", "l"},
	}
	fields, ok := allowed[p.Op]
	if !ok {
		return fmt.Errorf("key: unknown bounds op %q (have thm43, minstates, cor44, rackoff, section8)", p.Op)
	}
	// Defaults mirror the ppbounds flag defaults.
	defaults := BoundsParams{Op: p.Op}
	switch p.Op {
	case "thm43":
		defaults.D, defaults.W, defaults.L = 10, 2, 2
	case "minstates":
		defaults.Log10N, defaults.M = 9, 2
	case "cor44":
		defaults.KMax, defaults.H, defaults.M = 20, 0.49, 2
	case "rackoff":
		defaults.D, defaults.T, defaults.R = 5, 1, 1
	case "section8":
		defaults.D, defaults.T, defaults.L = 4, 2, 2
	}
	set := map[string]bool{}
	for _, f := range fields {
		set[f] = true
	}
	type field struct {
		name string
		val  any
		def  func()
	}
	for _, f := range []field{
		{"d", p.D, func() { p.D = defaults.D }},
		{"w", p.W, func() { p.W = defaults.W }},
		{"l", p.L, func() { p.L = defaults.L }},
		{"t", p.T, func() { p.T = defaults.T }},
		{"r", p.R, func() { p.R = defaults.R }},
		{"log10n", p.Log10N, func() { p.Log10N = defaults.Log10N }},
		{"h", p.H, func() { p.H = defaults.H }},
		{"m", p.M, func() { p.M = defaults.M }},
		{"kmax", p.KMax, func() { p.KMax = defaults.KMax }},
	} {
		zero := f.val == any(0) || f.val == any(int64(0)) || f.val == any(0.0)
		switch {
		case set[f.name] && zero:
			f.def()
		case !set[f.name] && !zero:
			return fmt.Errorf("key: bounds op %s does not take %q", p.Op, f.name)
		}
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
