// Package shard turns a single-process population-protocol sweep into
// a fan-out/fan-in pipeline: Plan deterministically partitions a sweep
// (protocol × population sizes × trial blocks) into self-contained
// shard specs any process on any machine can execute, Run executes one
// shard on the sim engine and emits a partial-result artifact, and
// Merge folds any set of partial artifacts back into exactly the
// Stats/SweepPoints a single-process run would have produced.
//
// There is one executor, one fold and one retry policy. Run,
// RunResumable, RunResumableStop, Dispatch and ppserve's /v1/sweep all
// run cells through one unexported cell executor: in plan order, it
// loads a verified partial when given a partials directory, skips a
// cell when the stop rule already holds on the size's folded prefix,
// and hands the remaining cells to one sim.SweepCells trial pool —
// the whole shard at once without a stop rule — then persists (given
// a directory) and emits each result in plan order as it is
// delivered; without a directory it touches no file. Every merge is
// the MergePartial fold — the strict Merge is MergePartial behind a
// tiling check that rejects duplicate, overlapping and missing trial
// ranges. Every queue-directory operation retries under
// faultfs.Retrier.
//
// The exactness contract rests on two invariants:
//
//   - Seed derivation is positional, not sequential. A trial's seed is
//     DeriveSeed(DeriveSeedK(base, x), trial): a pure function of the
//     sweep's base seed, the population size, and the absolute trial
//     index — independent of which shard runs it, in what order, or on
//     which host.
//   - Statistics are mergeable accumulators. sim.Stats carries exact
//     integer counts, sums (128-bit for Σsteps²), and extrema, never
//     precomputed means, so folding partials is associative and
//     bit-identical to direct aggregation.
//
// On top of the plan/run/merge core sit the scaling layers: PlanCost
// cuts shards at equal expected cost under a pluggable CostModel so
// large-population cells don't straggle; RunResumable persists each
// completed cell by atomic rename so a killed worker loses at most
// the cells in flight (those holding one of its ≤ workers running
// trials, and any finished behind the oldest of them); and Dispatch
// turns a shared directory into a work queue — lease files with
// heartbeats, expired-lease stealing with per-shard attempt caps —
// whose every interleaving of kills, resumes and redispatches still
// merges bit-identically to the single-process sweep, because
// execution is idempotent under the two invariants above.
//
// The queue is hardened for lossy shared filesystems. Every artifact
// the queue trades in (cell partials, shard artifacts, lease files)
// carries a canonical-JSON CRC-32C checksum verified on every read;
// a document that fails its checksum — torn write, bit rot, stray
// editor — is moved to a corrupt/ quarantine beside a .reason file
// and its work recomputed, never silently merged and never re-read
// in a loop. (The final Merged output deliberately has no checksum,
// so byte-diffing merged files across runs stays meaningful.) Queue
// I/O retries transient errors (the ESTALE/EINTR family) with
// faultfs.Retrier's exponential backoff and full jitter before giving
// up with ErrQueueIO, and lease liveness is judged by each observer's own
// clock watching the lease's monotonic heartbeat sequence — never by
// comparing wall-clock stamps across hosts — so clock skew can
// neither rob a live owner nor keep a dead one's lease. All I/O goes
// through the faultfs seam, so every one of these failure paths is
// exercised by seeded, reproducible fault schedules.
//
// Sweeps are anytime computations. PlanCostBlock dices each size's
// trial axis into fixed blocks, making the cell grid a pure function
// of the spec and the block size — independent of the shard count —
// so cells from any cut of the same sweep interoperate. MergePartial
// folds any subset of shard artifacts and cell partials into a valid
// document with per-point trials_done/trials_planned completeness;
// with every cell present its bytes equal the strict Merge's. A
// sim.StopRule adds sequential stopping: a size stops once the
// gap-free prefix of its trials meets the CI target, and the
// canonical stopping boundary is decided at merge time — MergePartial
// truncates each size at the first satisfied block boundary — so the
// stopped document is a pure function of (spec, block, rule). Workers
// that skip cells past the boundary at run time are an optimization,
// never a semantic: racing workers, shard cuts and worker counts all
// produce byte-identical stopped documents.
package shard

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
)

// ManifestSchema versions the plan format; ArtifactSchema versions the
// partial-result format. Merge refuses artifacts whose schema it does
// not understand rather than silently misfolding them.
const (
	ManifestSchema = 1
	ArtifactSchema = 1
)

// SweepSpec is the full description of a sweep: everything a worker
// needs to reproduce its slice of the work, with no reference to the
// planning process. The zero values of MaxSteps and Patience inherit
// the sim defaults (1<<20 cap, whole-run convergence).
type SweepSpec struct {
	// Protocol and Param name a registry construction.
	Protocol string `json:"protocol"`
	Param    int64  `json:"param"`
	// InputState is the state holding the swept agent count.
	InputState string `json:"input_state"`
	// Sizes are the population sizes (input counts) swept, in report
	// order. Duplicates are rejected: a size is the merge key.
	Sizes []int64 `json:"sizes"`
	// Trials is the number of runs per size; shards cover sub-ranges of
	// [0, Trials).
	Trials int `json:"trials"`
	// Seed is the sweep's base seed; per-(size, trial) seeds derive
	// from it positionally.
	Seed int64 `json:"seed"`
	// MaxSteps and Patience mirror sim.Options.
	MaxSteps int `json:"max_steps,omitempty"`
	Patience int `json:"patience,omitempty"`
	// Scheduler, Batch and Epsilon mirror the ppsim flags; an empty
	// scheduler means weighted.
	Scheduler string  `json:"scheduler,omitempty"`
	Batch     int     `json:"batch,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
}

// Validate checks the spec without instantiating the protocol.
func (sw *SweepSpec) Validate() error {
	if _, err := registry.Lookup(sw.Protocol); err != nil {
		return err
	}
	if sw.InputState == "" {
		return errors.New("shard: empty input state")
	}
	if len(sw.Sizes) == 0 {
		return errors.New("shard: empty size list")
	}
	seen := make(map[int64]bool, len(sw.Sizes))
	for _, x := range sw.Sizes {
		if x < 0 {
			return fmt.Errorf("shard: negative size %d", x)
		}
		if seen[x] {
			return fmt.Errorf("shard: duplicate size %d (sizes are merge keys)", x)
		}
		seen[x] = true
	}
	if sw.Trials <= 0 {
		return errors.New("shard: trials must be positive")
	}
	if sw.MaxSteps < 0 || sw.Patience < 0 {
		return errors.New("shard: negative max_steps/patience")
	}
	// Only checked: the manifest keeps batch/eps as written.
	_, _, err := sim.SchedulerParams(sw.Scheduler, sw.Batch, sw.Epsilon)
	return err
}

// Build instantiates the protocol and returns it with the counting
// threshold n it decides (the expected predicate is x ≥ n). Sweeps are
// defined for counting protocols only: without a threshold there is no
// per-size expected value to score Correct against.
func (sw *SweepSpec) Build() (*core.Protocol, int64, error) {
	if err := sw.Validate(); err != nil {
		return nil, 0, err
	}
	p, n, err := registry.Make(sw.Protocol, sw.Param)
	if err != nil {
		return nil, 0, err
	}
	if n <= 0 {
		return nil, 0, fmt.Errorf("shard: %s decides no counting predicate; sweeps need a threshold", sw.Protocol)
	}
	return p, n, nil
}

// Options translates the spec into sim.Options. Workers bounds the
// per-point trial pool and the scheduler's span-parallel draw (0 =
// GOMAXPROCS); results are byte-identical for any value.
func (sw *SweepSpec) Options(workers int) (sim.Options, error) {
	sched, err := sim.SchedulerByName(sw.Scheduler, sw.Batch, sw.Epsilon, workers)
	if err != nil {
		return sim.Options{}, err
	}
	return sim.Options{
		Seed:           sw.Seed,
		MaxSteps:       sw.MaxSteps,
		StablePatience: sw.Patience,
		Scheduler:      sched,
		Workers:        workers,
	}, nil
}

// Cell is one shard's slice of one population size: the trial range
// [TrialLo, TrialHi) of size X. It is the simulator's sweep cell, so a
// shard's cells go to sim.SweepCells as they are.
type Cell = sim.Cell

// Spec is one self-contained shard: a set of cells. Together with the
// manifest's SweepSpec it fully determines the shard's work and seeds.
type Spec struct {
	ID    string `json:"id"`
	Cells []Cell `json:"cells"`
}

// Trials is the shard's total trial count across cells.
func (s *Spec) Trials() int {
	total := 0
	for _, c := range s.Cells {
		total += c.TrialHi - c.TrialLo
	}
	return total
}

// Manifest is the plan document: the sweep and its partition.
// CostModel records the model a cost-weighted plan was cut with —
// provenance only (execution and merging never read it; empty means
// uniform, so legacy manifests are unchanged).
type Manifest struct {
	Schema    int       `json:"schema"`
	Sweep     SweepSpec `json:"sweep"`
	CostModel string    `json:"cost_model,omitempty"`
	// Block records the trial-axis dice of PlanCostBlock: every cell
	// boundary lands on a multiple of Block (plus the ragged end of
	// the trial range), so the cell grid — and with it every anytime
	// stopping checkpoint — is independent of the shard count. 0
	// means the legacy cut, where boundaries follow the cost
	// quantiles. Provenance only: it does not enter the sweep spec,
	// so diced and undiced runs of one sweep merge together.
	Block  int    `json:"block,omitempty"`
	Shards []Spec `json:"shards"`
}

// Shard returns the spec with the given id.
func (m *Manifest) Shard(id string) (*Spec, error) {
	for i := range m.Shards {
		if m.Shards[i].ID == id {
			return &m.Shards[i], nil
		}
	}
	ids := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		ids[i] = s.ID
	}
	return nil, fmt.Errorf("shard: no shard %q in manifest (have %v)", id, ids)
}

// Validate checks the manifest's schema and sweep, and that the shards
// exactly tile the (size × trial) grid.
func (m *Manifest) Validate() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("shard: manifest schema %d, this build understands %d", m.Schema, ManifestSchema)
	}
	if err := m.Sweep.Validate(); err != nil {
		return err
	}
	covered := make(map[int64][]Cell, len(m.Sweep.Sizes))
	ids := make(map[string]bool, len(m.Shards))
	for _, s := range m.Shards {
		if s.ID == "" || ids[s.ID] {
			return fmt.Errorf("shard: missing or duplicate shard id %q", s.ID)
		}
		ids[s.ID] = true
		for _, c := range s.Cells {
			covered[c.X] = append(covered[c.X], c)
		}
	}
	for x, cells := range covered {
		if err := checkTiling(x, cells, m.Sweep.Trials); err != nil {
			return err
		}
	}
	for _, x := range m.Sweep.Sizes {
		if covered[x] == nil {
			return fmt.Errorf("shard: size %d not covered by any shard", x)
		}
	}
	if len(covered) != len(m.Sweep.Sizes) {
		return fmt.Errorf("shard: shards cover %d sizes, sweep has %d", len(covered), len(m.Sweep.Sizes))
	}
	return nil
}

// Plan deterministically partitions the sweep into at most shards
// specs of near-equal trial count. The (size × trial) grid is walked
// size-major and cut into contiguous runs, so a shard covers a trial
// block of one size, whole sizes, or a mix — never an interleaving.
// The same (spec, shards) input always yields the identical manifest.
// Plan is PlanCost under UniformCost; sweeps over geometric size
// ranges should prefer PlanCost with a workload-matched model so
// large-x shards don't straggle.
func Plan(sw SweepSpec, shards int) (*Manifest, error) {
	return PlanCost(sw, shards, UniformCost{})
}
