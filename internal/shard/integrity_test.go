package shard

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/sim"
)

// A sealed document verifies, and its checksum survives any
// reformatting that preserves content: whitespace, key order, even
// hand-editing the file through a pretty-printer.
func TestSealVerifyRoundTrip(t *testing.T) {
	ca := &CellArtifact{
		Schema: ArtifactSchema,
		Sweep:  testSpec(),
		Cell:   Cell{X: 4, TrialLo: 0, TrialHi: 6},
		Stats:  sim.Stats{Trials: 6, Converged: 6, Correct: 6, SumSteps: 42},
	}
	data, err := canon.Seal(ca, &ca.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Checksum == "" || !strings.HasPrefix(ca.Checksum, "crc32c:") {
		t.Fatalf("seal left checksum %q", ca.Checksum)
	}
	if err := openSealed(data, "sealed", new(CellArtifact)); err != nil {
		t.Fatalf("sealed document: %v", err)
	}
	// Reformat: strip all the indentation the canonical form ignores.
	reformatted := bytes.ReplaceAll(bytes.ReplaceAll(data, []byte("\n"), nil), []byte("  "), nil)
	if err := openSealed(reformatted, "reformatted", new(CellArtifact)); err != nil {
		t.Errorf("reformatting broke verification: %v", err)
	}
}

// Any content change under an unchanged checksum is corruption: a
// flipped digit, a truncated tail, a swapped field value.
func TestVerifyDetectsMutation(t *testing.T) {
	ca := &CellArtifact{Schema: ArtifactSchema, Sweep: testSpec(),
		Cell: Cell{X: 4, TrialLo: 0, TrialHi: 6}, Stats: sim.Stats{Trials: 6}}
	data, err := canon.Seal(ca, &ca.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	var corrupt *corruptError
	mutated := bytes.Replace(data, []byte(`"x": 4`), []byte(`"x": 5`), 1)
	if bytes.Equal(mutated, data) {
		t.Fatal("mutation did not apply")
	}
	for name, doc := range map[string][]byte{
		"flipped digit":      mutated,
		"truncated document": data[:len(data)/2],
		"non-string sum":     []byte(`{"checksum": 7}`),
		"unparseable":        []byte(`{"checksum": "crc32c:`),
	} {
		if err := openSealed(doc, name, new(CellArtifact)); !errors.As(err, &corrupt) {
			t.Errorf("%s not flagged as corrupt: %v", name, err)
		}
	}
}

// The canonical form re-emits numbers digit for digit: two sums that
// collide as float64 (beyond 2^53) must checksum differently.
func TestChecksumExactBigIntegers(t *testing.T) {
	a := []byte(`{"sum": 9007199254740993}`)
	b := []byte(`{"sum": 9007199254740992}`) // same float64, different integer
	ca, err := canon.Checksum(a, "checksum")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canon.Checksum(b, "checksum")
	if err != nil {
		t.Fatal(err)
	}
	if ca == cb {
		t.Error("sums differing only beyond float64 precision checksum identically")
	}
}

// A checksum-less document is corrupt, like every unsealed document:
// the format written before artifacts were sealed is not accepted.
func TestVerifyLegacyDocument(t *testing.T) {
	err := openSealed([]byte(`{"schema": 1, "stats": {"trials": 3}}`), "old", new(CellArtifact))
	var corrupt *corruptError
	if !errors.As(err, &corrupt) || !errors.Is(canon.Verify([]byte(`{"schema": 1}`)), canon.ErrUnsealed) {
		t.Fatalf("checksum-less document: %v, want corrupt", err)
	}
	if !strings.Contains(err.Error(), "no checksum") {
		t.Errorf("rejection does not name the missing checksum: %v", err)
	}
}
