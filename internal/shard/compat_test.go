package shard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The pre-checksum format, written before artifacts were sealed, is
// rejected: a document without a checksum is corrupt. The goldens in testdata/ were generated by the
// last pre-checksum build over testSpec(); they have no checksum
// member. Rejecting them costs a recompute and nothing else, since
// every cell is a pure function of its sweep spec.

// A pre-checksum cell partial is quarantined and its cell recomputed,
// and the finished shard matches a fresh run bit for bit.
func TestLegacyCellPartialResumes(t *testing.T) {
	m, err := PlanCostBlock(testSpec(), 1, UniformCost{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "cell-x2-t0-6.prechecksum.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cell := Cell{X: 2, TrialLo: 0, TrialHi: 6}
	if err := os.WriteFile(filepath.Join(dir, cellFileName(cell)), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	res, counters, err := RunResumableStop(context.Background(), m, "s000", 0, dir, sim.StopRule{}, nil)
	if err != nil {
		t.Fatalf("resume over pre-checksum partial: %v", err)
	}
	if counters.CellsLoaded != 0 || counters.Quarantined != 1 {
		t.Errorf("counters %+v, want the pre-checksum cell quarantined (1) and none loaded", counters)
	}
	plain, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Points, res.Points) {
		t.Errorf("resume over legacy partial differs from fresh run:\n%+v\nvs\n%+v", plain.Points, res.Points)
	}
}

// A pre-checksum shard artifact is reported corrupt, and the error
// names the missing checksum.
func TestLegacyShardArtifactLoads(t *testing.T) {
	path := filepath.Join("testdata", "part-s000.prechecksum.golden.json")
	_, err := ReadArtifact(path)
	var corrupt *corruptError
	if !errors.As(err, &corrupt) {
		t.Fatalf("pre-checksum artifact: %v, want a corrupt error", err)
	}
	if !strings.Contains(err.Error(), "no checksum") {
		t.Errorf("rejection does not name the missing checksum: %v", err)
	}
}
