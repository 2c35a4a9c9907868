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
// verified on each read by the same pass that locates its members
// (canon.VerifyMembers); the result is served as the bytes the seal
// wrote, never decoded or re-encoded, by a miss and by every hit of
// its key alike. A corrupted artifact (torn
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
	"unicode"
	"unicode/utf8"

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
	Server   hostmeta.Meta `json:"server"`
	Instance string        `json:"instance"`
	// Result is the query's result document. In an artifact read from
	// a sealed document it is the bytes of the document's result member,
	// exactly as they stand: canon.Seal writes files in MarshalIndent's
	// two-space layout, so Result is in that layout one level deep —
	// the bytes a query response carries at the same depth. A miss and
	// every later hit of its key read it from the same sealed bytes.
	Result json.RawMessage `json:"result"`
	// Checksum is the content checksum over the artifact's canonical
	// form (canon.Seal); an artifact without it is corrupt.
	Checksum string `json:"checksum"`
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
	// RetryBase is the first transient-I/O retry backoff (0 = the
	// faultfs default, 20ms); every operation gets the faultfs default
	// of 5 attempts.
	RetryBase time.Duration
	// ProbeBase is the first self-heal probe delay after the store
	// degrades, doubling up to 30s (0 = 250ms).
	ProbeBase time.Duration
}

// Store is the content-addressed artifact store. Safe for concurrent
// use by any number of goroutines.
type Store struct {
	root     string
	objects  string // root/objects, cleaned
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

	// servers memoizes the decoded server member of artifact reads.
	servers serverMemo

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
	s, _, err := open(dir, opts)
	return s, err
}

// open is Open that also returns the stray files the scan passed
// over, for GC to sweep.
func open(dir string, opts Options) (*Store, []string, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	s := &Store{
		root:     dir,
		objects:  filepath.Join(dir, "objects"),
		fsys:     fsys,
		identity: hostmeta.CollectProcess(),
		opts:     opts,
		flights:  map[string]*flight{},
	}
	s.health.init(s)
	if err := s.retrier().Do(context.Background(), "mkdir objects/", func() error {
		return fsys.MkdirAll(s.objects, 0o755)
	}); err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	strays, err := s.lifecycle.init(s)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return s, strays, nil
}

// retrier builds one per-operation bounded-retry policy over the
// store's seam, with a fresh jitter stream per call (Retrier is not
// concurrency-safe) and the absorbed-error counter wired in.
func (s *Store) retrier() *faultfs.Retrier {
	return &faultfs.Retrier{
		Base:  s.opts.RetryBase,
		Seed:  s.retrySeq.Add(0x9e3779b97f4a7c15),
		Count: &s.ioRetries,
	}
}

// ObjectPath is the artifact file of one key: two-hex fan-out
// directories keep any one directory from ballooning.
func (s *Store) ObjectPath(k key.Key) string {
	const sep = string(filepath.Separator)
	return s.objects + sep + k.SHA[:2] + sep + k.SHA + ".json"
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
	art, reason := decode(data, k, &s.servers)
	if art == nil {
		s.quarantine(ctx, path, reason, int64(len(data)))
		return nil, nil
	}
	s.lifecycle.noteGet(k.SHA, art.Kind, int64(len(data)))
	return art, nil
}

// decode verifies one artifact document and reads it, in one
// canonicalization pass (canon.VerifyMembers): the small members are
// decoded, the result is the input span of its member, never decoded
// or re-encoded. It accepts exactly what json.Unmarshal into an
// Artifact after canon.Verify accepts, with the same field values
// (store/reference_test.go keeps that decoder as the oracle): member
// names match case-insensitively as encoding/json folds them, a
// repeated member decodes again over the earlier one, null leaves a
// field as it was, a wrong type rejects the document, and nothing but
// whitespace may follow it. memo, when not nil, spares re-decoding
// the server member of one incarnation's artifacts. A nil artifact
// comes back with the quarantine reason.
func decode(data []byte, k key.Key, memo *serverMemo) (*Artifact, string) {
	a := &Artifact{}
	want := k.String()
	var bad error
	n, err := canon.VerifyMembers(data, func(name, value []byte) {
		if bad == nil {
			bad = a.decodeMember(name, value, want, memo)
		}
	})
	if err != nil {
		return nil, err.Error()
	}
	if len(bytes.TrimLeft(data[n:], " \t\r\n")) != 0 {
		return nil, "not an artifact document: bytes after the top-level value"
	}
	if bad != nil {
		return nil, fmt.Sprintf("not an artifact document: %v", bad)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Sprintf("artifact schema %d, this build understands %d", a.Schema, ArtifactSchema)
	}
	if a.Key != k.String() {
		return nil, fmt.Sprintf("sealed key %s under address %s (misfiled artifact)", a.Key, k)
	}
	if a.Result == nil {
		return nil, "artifact has no result"
	}
	return a, ""
}

// decodeMember decodes one top-level member into the field its name
// selects; members no field claims are ignored, as json.Unmarshal
// ignores them. wantKey, the address the document is read under, and
// the query kinds are the strings a key or kind member usually
// spells, which decodeString then reuses instead of copying.
func (a *Artifact) decodeMember(name, value []byte, wantKey string, memo *serverMemo) error {
	switch {
	case foldedIs(name, "RESULT"):
		a.Result = value
	case foldedIs(name, "KEY"):
		return decodeString(value, &a.Key, wantKey)
	case foldedIs(name, "KIND"):
		return decodeString(value, &a.Kind, key.KindSimulate, key.KindVerify, key.KindBounds, key.KindSweep)
	case foldedIs(name, "INSTANCE"):
		return decodeString(value, &a.Instance)
	case foldedIs(name, "CHECKSUM"):
		return decodeString(value, &a.Checksum)
	case foldedIs(name, "SCHEMA"):
		return json.Unmarshal(value, &a.Schema)
	case foldedIs(name, "SERVER"):
		return memo.decodeServer(value, &a.Server)
	}
	return nil
}

// foldedIs reports whether a member name selects the field whose
// folded name is upper, by encoding/json's folding: ASCII letters
// upper-cased, any other rune mapped to the smallest rune of its
// simple case-fold orbit (so the Kelvin sign folds to K), invalid
// UTF-8 to U+FFFD.
func foldedIs(name []byte, upper string) bool {
	i := 0
	for _, r := range string(name) {
		switch {
		case 'a' <= r && r <= 'z':
			r -= 'a' - 'A'
		case r >= utf8.RuneSelf:
			for next := unicode.SimpleFold(r); next < r; next = unicode.SimpleFold(r) {
				r = next
			}
		}
		if i == len(upper) || r != rune(upper[i]) {
			return false
		}
		i++
	}
	return i == len(upper)
}

// decodeString decodes a string member as json.Unmarshal does. The
// common case is a quoted run of ASCII without escapes (the document
// has been validated, so it holds no control byte): its body is the
// string, one of known when it spells one, a copy otherwise.
func decodeString(value []byte, dst *string, known ...string) error {
	if len(value) >= 2 && value[0] == '"' {
		body := value[1 : len(value)-1]
		plain := true
		for _, b := range body {
			if b == '\\' || b >= utf8.RuneSelf {
				plain = false
				break
			}
		}
		if plain {
			for _, k := range known {
				if string(body) == k {
					*dst = k
					return nil
				}
			}
			*dst = string(body)
			return nil
		}
	}
	return json.Unmarshal(value, dst)
}

// serverMemo holds the last server member decoded into an empty
// field, with its value. Every artifact one daemon incarnation seals
// carries the same server bytes, so a store reading through a memo
// runs json.Unmarshal on them once, not on every read. A nil memo
// remembers nothing.
type serverMemo struct {
	last atomic.Pointer[memoizedServer]
}

type memoizedServer struct {
	raw  []byte
	meta hostmeta.Meta
}

// decodeServer decodes a server member as json.Unmarshal does: into
// an empty field, bytes equal to the memo's decode to the memo's
// value; a later duplicate member decodes over the earlier one.
func (m *serverMemo) decodeServer(value []byte, dst *hostmeta.Meta) error {
	empty := *dst == hostmeta.Meta{}
	if m == nil || !empty {
		return json.Unmarshal(value, dst)
	}
	if last := m.last.Load(); last != nil && bytes.Equal(last.raw, value) {
		*dst = last.meta
		return nil
	}
	if err := json.Unmarshal(value, dst); err != nil {
		return err
	}
	m.last.Store(&memoizedServer{bytes.Clone(value), *dst})
	return nil
}

// quarantine moves a corrupt artifact to <root>/corrupt/ with a
// .reason sibling (faultfs.Quarantine, retried as one unit), removing
// it from the cache namespace so it is recomputed instead of served
// and never re-read in a loop. It reports whether it moved the file:
// an artifact another caller already moved is neither counted nor
// dropped from the index twice, and a move that failed is logged.
func (s *Store) quarantine(ctx context.Context, path, reason string, size int64) bool {
	base := filepath.Base(path)
	var dst string
	err := s.retrier().Do(ctx, "quarantine "+base, func() (err error) {
		dst, err = faultfs.Quarantine(s.fsys, path, faultfs.CorruptDir(s.root), reason)
		return err
	})
	if err != nil {
		log.Printf("store: quarantine %s: %v", base, err)
		return false
	}
	if dst == "" {
		return false
	}
	s.quarantined.Add(1)
	s.lifecycle.noteRemoved(shaOfObjectFile(base), size, "quarantine")
	log.Printf("store: quarantined %s: %s", dst, reason)
	return true
}

// seal writes one computed result as a sealed artifact document and
// reads it back through decode, so a miss serves the very bytes every
// later hit of its key reads from the file.
func (s *Store) seal(k key.Key, kind string, result json.RawMessage) ([]byte, *Artifact, error) {
	a := &Artifact{
		Schema:   ArtifactSchema,
		Key:      k.String(),
		Kind:     kind,
		Server:   s.identity.Meta,
		Instance: s.identity.Instance(),
		Result:   result,
	}
	data, err := canon.Seal(a, &a.Checksum, true)
	if err != nil {
		return nil, nil, fmt.Errorf("store: seal %s: %w", k.Short(), err)
	}
	art, reason := decode(data, k, &s.servers)
	if art == nil {
		return nil, nil, fmt.Errorf("store: sealed artifact %s does not read back: %s", k.Short(), reason)
	}
	return data, art, nil
}

// put publishes one sealed artifact durably (fsync-temp → rename →
// dir-sync through the seam), with transient failures of the whole
// sequence retried as one unit (a re-run of a sequence whose rename
// already landed is idempotent: same content, same target).
func (s *Store) put(ctx context.Context, k key.Key, data []byte) (int64, error) {
	path := s.ObjectPath(k)
	err := s.retrier().Do(ctx, "put "+k.Short(), func() error {
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
	data, art, err := s.seal(k, kind, result)
	if err != nil {
		return nil, false, err
	}
	if s.Degraded() {
		// Compute-only mode: serve without persisting (but sealed all
		// the same, so the bytes match what a healthy store serves);
		// the probe owns re-testing the disk, the request path never
		// hammers it.
		s.putSkipped.Add(1)
		return art, false, nil
	}
	size, perr := s.put(ctx, k, data)
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
