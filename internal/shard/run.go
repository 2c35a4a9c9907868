package shard

import (
	"context"

	"repro/internal/hostmeta"
	"repro/internal/sim"
)

// PartialPoint is one cell's aggregated result: the partial statistics
// of trials [TrialLo, TrialHi) at size X.
type PartialPoint struct {
	X       int64     `json:"x"`
	TrialLo int       `json:"trial_lo"`
	TrialHi int       `json:"trial_hi"`
	Stats   sim.Stats `json:"stats"`
}

// Artifact is one shard's partial-result document. It echoes the full
// sweep spec so Merge can verify that artifacts gathered from many
// hosts belong to the same sweep, and stamps the producing host's
// metadata (same conventions as the BENCH_*.json timing artifacts).
type Artifact struct {
	Schema int            `json:"schema"`
	Sweep  SweepSpec      `json:"sweep"`
	Shard  Spec           `json:"shard"`
	Points []PartialPoint `json:"points"`
	Host   hostmeta.Meta  `json:"host"`
	// Checksum is the content checksum ("crc32c:…") over the
	// document's canonical form; absent in pre-checksum artifacts,
	// which load on schema checks alone.
	Checksum string `json:"checksum,omitempty"`
}

// Run executes one shard of the manifest and returns its artifact:
// RunResumableStop with no partials directory, no stop rule and no
// sink. workers bounds the shard's trial pool (0 = GOMAXPROCS).
// Cancelling ctx stops the underlying sim workers promptly and
// returns ctx.Err().
func Run(ctx context.Context, m *Manifest, shardID string, workers int) (*Artifact, error) {
	art, _, err := RunResumableStop(ctx, m, shardID, workers, "", sim.StopRule{}, nil)
	return art, err
}
