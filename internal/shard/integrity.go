package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"sync"

	"repro/internal/canon"
	"repro/internal/faultfs"
)

// Artifact integrity: every document the queue pipeline persists —
// cell partials, shard part-*.json, lease files — carries a content
// checksum ("crc32c:xxxxxxxx") computed over the document's canonical
// JSON form with the checksum member removed. Canonical means
// whitespace- and key-order-insensitive and number-exact (numbers are
// re-emitted digit for digit via json.Number, so 64-bit accumulator
// sums above 2^53 survive), so reformatting an artifact by hand does
// not invalidate it, while any content change — a torn write, a
// truncated tail, a flipped bit, an edited field — does.
//
// Verification runs on every read. A document with no checksum member
// is a pre-checksum artifact (PRs 3–6): it is accepted after the
// schema checks alone, logged once per process. A document whose
// checksum mismatches, or which does not parse at all, is corrupt: the
// reader quarantines it (moved to a corrupt/ sibling directory with a
// .reason file) and recomputes, never merges it and never re-reads it
// forever.

// ChecksumOf computes the canonical content checksum of one artifact
// document: its canonical JSON (exact numbers, compact, sorted keys)
// with the top-level "checksum" member dropped, then CRC-32C. The
// machinery is the shared internal/canon implementation, which the
// serve result store and cache keys also build on; shard keeps this
// named wrapper because the queue-document convention (which member
// is dropped) is part of its artifact schema.
func ChecksumOf(doc []byte) (string, error) {
	return canon.Checksum(doc, "checksum")
}

// sealable is implemented by every persisted document type carrying a
// checksum field.
type sealable interface{ setChecksum(string) }

func (a *Artifact) setChecksum(s string)      { a.Checksum = s }
func (ca *CellArtifact) setChecksum(s string) { ca.Checksum = s }
func (l *Lease) setChecksum(s string)         { l.Checksum = s }

// sealJSON marshals v with its content checksum stamped in: the sum
// is computed with the checksum field cleared, then embedded, and the
// final document re-marshaled (indented, trailing newline — the
// repo-wide artifact convention).
func sealJSON(v sealable) ([]byte, error) {
	v.setChecksum("")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	sum, err := ChecksumOf(data)
	if err != nil {
		return nil, err
	}
	v.setChecksum(sum)
	data, err = json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// corruptError classifies a document as corrupt: unreadable,
// checksum-mismatched, or internally inconsistent in a way that makes
// recomputation the only safe recovery. Readers quarantine-and-retry
// on it instead of failing; every other load error (foreign sweep,
// unknown schema) stays loud, because recomputing would mask an
// operator or build mismatch.
type corruptError struct{ reason string }

func (e *corruptError) Error() string { return "corrupt artifact: " + e.reason }

// verifyDoc checks data's embedded checksum. It returns a
// corruptError for unparseable documents and mismatched sums; legacy
// reports a parseable document with no checksum member (pre-checksum
// format), which the caller accepts after schema checks alone.
func verifyDoc(data []byte, path string) (legacy bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return false, &corruptError{reason: fmt.Sprintf("%s: unparseable JSON: %v", path, err)}
	}
	raw, ok := m["checksum"]
	if !ok {
		logLegacyOnce(path)
		return true, nil
	}
	want, ok := raw.(string)
	if !ok {
		return false, &corruptError{reason: fmt.Sprintf("%s: non-string checksum field", path)}
	}
	got, err := ChecksumOf(data)
	if err != nil {
		return false, &corruptError{reason: fmt.Sprintf("%s: %v", path, err)}
	}
	if got != want {
		return false, &corruptError{reason: fmt.Sprintf("%s: checksum %s, content is %s (torn write or bit rot)", path, want, got)}
	}
	return false, nil
}

var legacyLogOnce sync.Once

// logLegacyOnce notes — once per process, to avoid drowning fleets in
// per-file noise — that a pre-checksum artifact was accepted on
// schema checks alone.
func logLegacyOnce(path string) {
	legacyLogOnce.Do(func() {
		log.Printf("shard: %s carries no content checksum (pre-checksum artifact); verified by schema only", path)
	})
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

func (c *Counters) add(o Counters) {
	c.Steals += o.Steals
	c.Retries += o.Retries
	c.Quarantined += o.Quarantined
	c.CellsLoaded += o.CellsLoaded
	c.CellsComputed += o.CellsComputed
	c.CellsStopped += o.CellsStopped
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
// checksum (pre-checksum artifacts are verified by schema alone and
// logged once). Corruption is reported as an error naming the reason;
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
// document. Corruption (including a schema-field type mismatch under
// a missing checksum) comes back as *corruptError.
func decodeArtifact(data []byte, path string) (*Artifact, error) {
	if _, err := verifyDoc(data, path); err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, &corruptError{reason: fmt.Sprintf("%s: %v", path, err)}
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
	data, err := sealJSON(a)
	if err != nil {
		return err
	}
	return faultfs.AtomicWrite(faultfs.OS(), path, data)
}
