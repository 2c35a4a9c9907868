package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/hostmeta"
	"repro/internal/sim"
)

// goldenHost is a fixed host stamp, so sealed test documents do not
// depend on the machine running the test.
var goldenHost = hostmeta.Meta{Hostname: "golden", OS: "linux", Arch: "amd64", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "0123abc"}

// goldenStats exercises every accumulator, including sums past 2^53
// that a float64 round trip would change.
var goldenStats = sim.Stats{Trials: 3, Converged: 3, Correct: 2, SumSteps: 1<<53 + 1,
	SumStepsSqHi: 7, SumStepsSqLo: 1<<64 - 1, MinSteps: 10, MaxSteps: 1 << 40, SumLastChange: 12345}

// The sealed bytes of every queue document type are pinned: a cell
// partial file and its NDJSON delta line, a shard artifact and a
// lease. Documents already on disk must keep verifying, and a new
// seal of the same value must not change a byte, so any change to how
// documents are sealed shows up as a diff here. -update rewrites the
// files, only for a declared format change.
func TestSealedGolden(t *testing.T) {
	cell := Cell{X: 4, TrialLo: 3, TrialHi: 6}
	ca := CellArtifact{Schema: ArtifactSchema, Sweep: testSpec(), Cell: cell, Stats: goldenStats, Host: goldenHost}
	art := Artifact{Schema: ArtifactSchema, Sweep: testSpec(),
		Shard:  Spec{ID: "s001", Cells: []Cell{cell}},
		Points: []PartialPoint{{X: cell.X, TrialLo: cell.TrialLo, TrialHi: cell.TrialHi, Stats: goldenStats}},
		Host:   goldenHost}
	stamp := time.Date(2026, 1, 2, 3, 4, 5, 678901234, time.UTC)
	lease := Lease{Schema: ManifestSchema, Shard: "s001", Token: "00112233445566778899aabbccddeeff", Attempt: 2, Seq: 17,
		Owner:      hostmeta.Process{Meta: goldenHost, PID: 4242, StartedAt: stamp.Add(-time.Hour)},
		AcquiredAt: stamp, HeartbeatAt: stamp.Add(90 * time.Second)}

	cellFile, err := canon.Seal(&ca, &ca.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	cellLine, err := SealCellLine(&ca)
	if err != nil {
		t.Fatal(err)
	}
	artFile, err := canon.Seal(&art, &art.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	leaseFile, err := canon.Seal(&lease, &lease.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	sealed := []struct {
		name string
		got  []byte
		open func([]byte) error
	}{
		{"cell.json", cellFile, func(b []byte) error { _, err := decodeCell(b, "cell.json"); return err }},
		{"cell.ndjson", cellLine, func(b []byte) error { _, err := DecodeCellLine(b); return err }},
		{"part.json", artFile, func(b []byte) error { _, err := decodeArtifact(b, "part.json"); return err }},
		{"lease.json", leaseFile, func(b []byte) error {
			if _, ok := decodeLease(b); !ok {
				t.Errorf("lease.json: golden lease does not verify")
			}
			return nil
		}},
	}
	for _, s := range sealed {
		golden := filepath.Join("testdata", "sealed", s.name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, s.got, 0o644); err != nil {
				t.Fatalf("update golden: %v", err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden (run with -update to create): %v", err)
		}
		if !bytes.Equal(s.got, want) {
			t.Errorf("%s: sealed bytes drifted from the golden:\n got %s\nwant %s", s.name, s.got, want)
		}
		if err := s.open(want); err != nil {
			t.Errorf("%s: golden document does not verify: %v", s.name, err)
		}
	}
}
