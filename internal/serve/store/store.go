// Package store is ppserve's persistent, content-addressed result
// store: one sealed JSON artifact per cache key, laid out
// objects/<sha[:2]>/<sha>.json under the store root, so a repeated
// query is an O(1) file lookup that survives daemon restarts.
//
// Durability and integrity follow the shard-queue conventions. Every
// artifact is published fsync-temp → atomic rename → dir-sync through
// the injectable faultfs seam, so readers never observe a torn
// document and a host crash leaves either nothing or the complete
// file. Every artifact is sealed by internal/canon (canon.Seal) and
// verified on each read (canon.Verify); a corrupted artifact (torn
// write that beat the rename discipline, bit rot, hand edit, no
// checksum at all) is quarantined to corrupt/ with a .reason file
// (faultfs.Quarantine) and reported as a miss — recomputed, never
// served, never re-read in a loop. A key mismatch between file name
// and sealed content is corruption too: a renamed artifact must not
// answer someone else's query.
//
// Concurrent identical queries compute once: GetOrCompute runs a
// per-key singleflight. The first caller becomes the leader (it
// re-checks disk, then computes and publishes); every concurrent
// caller for the same key blocks on the leader's flight and shares
// its artifact or error. Errors are never persisted — a failed
// compute leaves no artifact, so the next request retries.
//
// The store is self-healing rather than fail-stop. All seam I/O runs
// under the faultfs bounded-retry policy (transient errno taxonomy,
// exponential backoff + jitter); when a publish still fails — disk
// full, persistent EIO — the store flips to a degraded, compute-only
// mode: results are served without persisting, reads keep answering
// warm hits, and a background probe re-tests writability on a backoff
// schedule until the store heals. Requests never fail because the
// cache underneath them is sick.
//
// Growth is bounded (Options.MaxBytes): every access is recorded in
// an append-only journal (journal.log, crash-tolerant — the tail is a
// recency hint, reconciled against the objects tree at Open and by
// GC) feeding strict-LRU eviction. Eviction never removes an artifact
// whose key has an open singleflight, nor the artifact whose own
// publish triggered the pass, so the footprint is bounded by MaxBytes
// plus the artifacts currently in flight. Footprint is an
// incrementally maintained counter: Size is O(1) in the store size.
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/faultfs"
	"repro/internal/hostmeta"
	"repro/internal/serve/key"
)

// ArtifactSchema versions the stored artifact document.
const ArtifactSchema = 1

// Artifact is one sealed store entry: the query's result document
// plus the provenance of the daemon incarnation that computed it.
type Artifact struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"`
	Kind   string `json:"kind"`
	// Server and Instance identify the computing daemon (hostmeta
	// identity; telemetry, not protocol state).
	Server   hostmeta.Meta   `json:"server"`
	Instance string          `json:"instance"`
	Result   json.RawMessage `json:"result"`
	// Checksum is the content checksum over the artifact's canonical
	// form (canon.Seal); an artifact without it is corrupt.
	Checksum string `json:"checksum"`
}

// compactResult normalizes the embedded result document to compact
// JSON: sealing indents the whole artifact (re-indenting the raw
// message), so without this a computed artifact and its re-read would
// differ byte-wise in Result — same content, different whitespace.
func (a *Artifact) compactResult() error {
	var buf bytes.Buffer
	if err := json.Compact(&buf, a.Result); err != nil {
		return fmt.Errorf("store: result is not valid JSON: %w", err)
	}
	a.Result = json.RawMessage(buf.Bytes())
	return nil
}

// Counters aggregates the store's cache-traffic and degradation
// telemetry; /metrics exposes a snapshot. Hits + Dedups over total
// lookups is the cache hit rate the serve-smoke drill asserts on.
type Counters struct {
	// Hits counts disk lookups answered by an existing artifact.
	Hits int64 `json:"hits"`
	// Dedups counts callers who shared a concurrent leader's compute
	// instead of running their own (singleflight followers).
	Dedups int64 `json:"dedups"`
	// Misses counts leader computes actually run.
	Misses int64 `json:"misses"`
	// Quarantined counts corrupt artifacts moved to corrupt/.
	Quarantined int64 `json:"quarantined"`
	// Evictions counts artifacts removed by the LRU size bound.
	Evictions int64 `json:"evictions"`
	// IORetries counts transient seam errors absorbed by backoff.
	IORetries int64 `json:"io_retries"`
	// PutFailures counts publishes that failed even after retries —
	// each one trips (or re-confirms) degraded mode.
	PutFailures int64 `json:"put_failures"`
	// PutSkipped counts computes served without persisting because the
	// store was degraded when they finished.
	PutSkipped int64 `json:"put_skipped"`
	// ReadErrors counts lookups whose read failed after retries and
	// were served by recomputing instead.
	ReadErrors int64 `json:"read_errors"`
	// Healed counts degraded→healthy transitions won by the probe.
	Healed int64 `json:"healed"`
}

// flight is one in-progress compute; followers block on done.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// Options sizes one store.
type Options struct {
	// FS is the filesystem seam (nil = the real OS); chaos tests
	// inject fault schedules here.
	FS faultfs.FS
	// MaxBytes bounds the objects/ footprint; 0 = unbounded. When a
	// publish pushes the footprint past the bound, least-recently-
	// accessed artifacts are evicted (in-flight and just-published
	// artifacts excepted).
	MaxBytes int64
	// RetryAttempts and RetryBase shape the transient-I/O retry policy
	// (0 = the faultfs defaults: 5 attempts from 20ms).
	RetryAttempts int
	RetryBase     time.Duration
	// ProbeBase is the first self-heal probe delay after the store
	// degrades, doubling up to 30s (0 = 250ms).
	ProbeBase time.Duration
}

// Store is the content-addressed artifact store. Safe for concurrent
// use by any number of goroutines.
type Store struct {
	root     string
	fsys     faultfs.FS
	identity hostmeta.Process
	opts     Options

	mu      sync.Mutex
	flights map[string]*flight

	// lifecycle guards the object index, LRU order, footprint
	// counters and journal (lifecycle.go).
	lifecycle lifecycle

	// health owns the degraded flag and the self-heal probe
	// (health.go).
	health health

	hits        atomic.Int64
	dedups      atomic.Int64
	misses      atomic.Int64
	quarantined atomic.Int64
	evictions   atomic.Int64
	ioRetries   atomic.Int64
	putFailures atomic.Int64
	putSkipped  atomic.Int64
	readErrors  atomic.Int64
	retrySeq    atomic.Uint64
}

// Open prepares a store rooted at dir (created if missing): the
// objects tree is scanned once to rebuild the footprint counters and
// object index, and the access journal is replayed to restore LRU
// recency across restarts.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	s := &Store{
		root:     dir,
		fsys:     fsys,
		identity: hostmeta.CollectProcess(),
		opts:     opts,
		flights:  map[string]*flight{},
	}
	s.health.init(s)
	if err := s.retrier().Do(context.Background(), "mkdir objects/", func() error {
		return fsys.MkdirAll(s.objectsDir(), 0o755)
	}); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if err := s.lifecycle.init(s); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return s, nil
}

// retrier builds one per-operation bounded-retry policy over the
// store's seam, with a fresh jitter stream per call (Retrier is not
// concurrency-safe) and the absorbed-error counter wired in.
func (s *Store) retrier() *faultfs.Retrier {
	return &faultfs.Retrier{
		Attempts: s.opts.RetryAttempts,
		Base:     s.opts.RetryBase,
		Seed:     s.retrySeq.Add(0x9e3779b97f4a7c15),
		Count:    &s.ioRetries,
	}
}

func (s *Store) objectsDir() string { return filepath.Join(s.root, "objects") }

// ObjectPath is the artifact file of one key: two-hex fan-out
// directories keep any one directory from ballooning.
func (s *Store) ObjectPath(k key.Key) string {
	return filepath.Join(s.objectsDir(), k.SHA[:2], k.SHA+".json")
}

// Get looks k up on disk. A missing artifact is (nil, nil): absence
// is a normal cache state. A corrupt artifact is quarantined and
// likewise reported as a miss — the caller recomputes; it is never
// served. A read that still fails after the transient-retry budget is
// also a miss (counted in ReadErrors): a sick disk degrades the cache
// to recomputation, never the request to an error.
func (s *Store) Get(ctx context.Context, k key.Key) (*Artifact, error) {
	path := s.ObjectPath(k)
	var data []byte
	err := s.retrier().Do(ctx, "read "+k.Short(), func() error {
		var rerr error
		data, rerr = s.fsys.ReadFile(path)
		if rerr != nil && errors.Is(rerr, fs.ErrNotExist) {
			data = nil
			return nil
		}
		return rerr
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.readErrors.Add(1)
		log.Printf("store: read %s failed after retries, recomputing: %v", path, err)
		return nil, nil
	}
	if data == nil {
		return nil, nil
	}
	art, reason := decode(data, k)
	if art == nil {
		s.quarantine(ctx, path, reason, int64(len(data)))
		return nil, nil
	}
	s.lifecycle.noteGet(k.SHA, art.Kind, int64(len(data)))
	return art, nil
}

// decode verifies (canon.Verify) and decodes one artifact document; a
// nil artifact comes back with the quarantine reason.
func decode(data []byte, k key.Key) (*Artifact, string) {
	if err := canon.Verify(data); err != nil {
		return nil, err.Error()
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Sprintf("not an artifact document: %v", err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Sprintf("artifact schema %d, this build understands %d", a.Schema, ArtifactSchema)
	}
	if a.Key != k.String() {
		return nil, fmt.Sprintf("sealed key %s under address %s (misfiled artifact)", a.Key, k)
	}
	if err := a.compactResult(); err != nil {
		return nil, err.Error()
	}
	return &a, ""
}

// quarantine moves a corrupt artifact to <root>/corrupt/ with a
// .reason sibling (faultfs.Quarantine, retried as one unit), removing
// it from the cache namespace so it is recomputed instead of served
// and never re-read in a loop. An artifact another caller already
// moved is neither counted nor dropped from the index twice.
func (s *Store) quarantine(ctx context.Context, path, reason string, size int64) {
	base := filepath.Base(path)
	var dst string
	err := s.retrier().Do(ctx, "quarantine "+base, func() (err error) {
		dst, err = faultfs.Quarantine(s.fsys, path, faultfs.CorruptDir(s.root), reason)
		return err
	})
	if err != nil {
		log.Printf("store: quarantine %s: %v", base, err)
		return
	}
	if dst == "" {
		return
	}
	s.quarantined.Add(1)
	s.lifecycle.noteRemoved(shaOfObjectFile(base), size, "quarantine")
	log.Printf("store: quarantined %s: %s", dst, reason)
}

// put seals and publishes one artifact durably (fsync-temp → rename →
// dir-sync through the seam), with transient failures of the whole
// sequence retried as one unit (a re-run of a sequence whose rename
// already landed is idempotent: same content, same target).
func (s *Store) put(ctx context.Context, k key.Key, a *Artifact) (int64, error) {
	path := s.ObjectPath(k)
	data, err := canon.Seal(a, &a.Checksum, true)
	if err != nil {
		return 0, err
	}
	err = s.retrier().Do(ctx, "put "+k.Short(), func() error {
		if merr := s.fsys.MkdirAll(filepath.Dir(path), 0o755); merr != nil {
			return merr
		}
		return faultfs.AtomicWrite(s.fsys, path, data)
	})
	if err != nil {
		return 0, fmt.Errorf("store: put %s: %w", k, err)
	}
	return int64(len(data)), nil
}

// GetOrCompute returns k's artifact, computing and persisting it
// exactly once per key across any number of concurrent callers: a
// disk hit is served as-is; otherwise the first caller computes while
// concurrent callers for the same key wait and share the outcome.
// hit reports whether this caller avoided a compute (disk hit or
// shared flight). A compute error is returned to every waiting
// caller and nothing is persisted; ctx cancels this caller's wait
// (the leader's compute sees the leader's ctx), freeing the follower
// immediately — the flight itself completes or dies with its leader.
//
// A publish failure is NOT a request failure: if the store is
// degraded (or this publish trips degradation), the computed artifact
// is served without persisting and the store heals in the background.
func (s *Store) GetOrCompute(ctx context.Context, k key.Key, kind string, compute func(context.Context) (json.RawMessage, error)) (art *Artifact, hit bool, err error) {
	s.mu.Lock()
	if f, ok := s.flights[k.SHA]; ok {
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			return nil, false, f.err
		}
		s.dedups.Add(1)
		return f.art, true, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[k.SHA] = f
	s.mu.Unlock()

	defer func() {
		f.art, f.err = art, err
		s.mu.Lock()
		delete(s.flights, k.SHA)
		s.mu.Unlock()
		close(f.done)
	}()

	// Leader: the disk check happens *inside* the flight, so a caller
	// racing past a concurrent leader's completion re-reads the disk
	// instead of recomputing.
	if art, err = s.Get(ctx, k); err != nil {
		return nil, false, err
	}
	if art != nil {
		s.hits.Add(1)
		return art, true, nil
	}
	s.misses.Add(1)
	result, cerr := compute(ctx)
	if cerr != nil {
		return nil, false, cerr
	}
	art = &Artifact{
		Schema:   ArtifactSchema,
		Key:      k.String(),
		Kind:     kind,
		Server:   s.identity.Meta,
		Instance: s.identity.Instance(),
		Result:   result,
	}
	if err = art.compactResult(); err != nil {
		return nil, false, err
	}
	if s.Degraded() {
		// Compute-only mode: serve without persisting; the probe owns
		// re-testing the disk, the request path never hammers it.
		s.putSkipped.Add(1)
		return art, false, nil
	}
	size, perr := s.put(ctx, k, art)
	if perr != nil {
		if ctx.Err() != nil {
			// The client is gone or out of time; nothing to degrade over.
			return nil, false, ctx.Err()
		}
		s.putFailures.Add(1)
		s.health.degrade(fmt.Sprintf("publish failed: %v", perr))
		return art, false, nil
	}
	s.lifecycle.notePut(k.SHA, kind, size)
	return art, false, nil
}

// Counters snapshots the cache-traffic telemetry.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:        s.hits.Load(),
		Dedups:      s.dedups.Load(),
		Misses:      s.misses.Load(),
		Quarantined: s.quarantined.Load(),
		Evictions:   s.evictions.Load(),
		IORetries:   s.ioRetries.Load(),
		PutFailures: s.putFailures.Load(),
		PutSkipped:  s.putSkipped.Load(),
		ReadErrors:  s.readErrors.Load(),
		Healed:      s.health.healed.Load(),
	}
}

// Root returns the store directory (for logs and /metrics).
func (s *Store) Root() string { return s.root }
