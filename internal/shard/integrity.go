package shard

import (
	"encoding/json"
	"fmt"

	"repro/internal/canon"
	"repro/internal/faultfs"
)

// Artifact integrity: every document the queue pipeline persists —
// cell partials, shard part-*.json, lease files — is sealed by
// internal/canon: it carries a content checksum ("crc32c:xxxxxxxx")
// over its canonical JSON form with the checksum member removed.
// Canonical means whitespace- and key-order-insensitive and
// number-exact, so reformatting an artifact by hand does not
// invalidate it, while any content change — a torn write, a truncated
// tail, a flipped bit, an edited field — does.
//
// Verification runs on every read. A document that does not parse,
// carries no checksum, or whose checksum mismatches is corrupt: the
// reader quarantines it (faultfs.Quarantine: moved to a corrupt/
// sibling directory with a .reason file) and recomputes, never merges
// it and never re-reads it forever. Recomputing is always safe, since
// every cell is a pure function of its sweep spec.

// corruptError classifies a document as corrupt: unreadable,
// unsealed, checksum-mismatched, or internally inconsistent in a way
// that makes recomputation the only safe recovery. Readers
// quarantine-and-retry on it instead of failing; every other load
// error (foreign sweep, unknown schema) stays loud, because
// recomputing would mask an operator or build mismatch.
type corruptError struct{ reason string }

func (e *corruptError) Error() string { return "corrupt artifact: " + e.reason }

// openSealed verifies data's seal and decodes it into v. Every
// failure is a corruptError naming origin.
func openSealed(data []byte, origin string, v any) error {
	if err := canon.Verify(data); err != nil {
		return &corruptError{reason: fmt.Sprintf("%s: %v", origin, err)}
	}
	if err := json.Unmarshal(data, v); err != nil {
		return &corruptError{reason: fmt.Sprintf("%s: %v", origin, err)}
	}
	return nil
}

// Counters aggregates the degradation events of one resumable run or
// dispatch: operators read them on exit to see how hard the queue
// directory fought back.
type Counters struct {
	// Steals counts expired leases this process took over.
	Steals int `json:"steals"`
	// Retries counts transient queue-I/O errors absorbed by backoff.
	Retries int `json:"retries"`
	// Quarantined counts corrupt artifacts moved to corrupt/.
	Quarantined int `json:"quarantined"`
	// CellsLoaded / CellsComputed split resumable cells by provenance.
	CellsLoaded   int `json:"cells_loaded"`
	CellsComputed int `json:"cells_computed"`
	// CellsStopped counts cells skipped because the point's stop rule
	// was already satisfied by its folded prefix: budget the anytime
	// sweep handed back to the fleet.
	CellsStopped int `json:"cells_stopped,omitempty"`
}

// String renders the counters the way ppsweep prints them on exit.
func (c Counters) String() string {
	s := fmt.Sprintf("steals %d, transient retries %d, quarantined %d, cells %d computed / %d resumed",
		c.Steals, c.Retries, c.Quarantined, c.CellsComputed, c.CellsLoaded)
	if c.CellsStopped > 0 {
		s += fmt.Sprintf(" / %d stopped early", c.CellsStopped)
	}
	return s
}

// ReadArtifact loads one shard artifact file, verifying its content
// checksum. Corruption is reported as an error naming the reason;
// quarantining is the dispatcher's job, not this reader's.
func ReadArtifact(path string) (*Artifact, error) {
	data, err := faultfs.OS().ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := decodeArtifact(data, path)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// decodeArtifact parses and integrity-checks one shard artifact
// document. Corruption comes back as *corruptError.
func decodeArtifact(data []byte, path string) (*Artifact, error) {
	var a Artifact
	if err := openSealed(data, path, &a); err != nil {
		return nil, err
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("%s: artifact schema %d, this build understands %d", path, a.Schema, ArtifactSchema)
	}
	return &a, nil
}

// WriteArtifact seals a (stamping its content checksum) and persists
// it durably: temp file fsynced, atomic rename, directory synced — a
// host crash leaves either the old state or the complete new
// document, never a torn part-*.json.
func WriteArtifact(path string, a *Artifact) error {
	data, err := canon.Seal(a, &a.Checksum, true)
	if err != nil {
		return err
	}
	return faultfs.AtomicWrite(faultfs.OS(), path, data)
}
