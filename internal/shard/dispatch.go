package shard

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	mrand "math/rand/v2"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/faultfs"
	"repro/internal/hostmeta"
	"repro/internal/sim"
)

// Lease is one shard's ownership record in the dispatch directory: who
// is executing it, which attempt this is, and when the owner last
// proved it was alive. Leases are advisory — execution is idempotent
// (positional seeds, atomic artifact writes), so a lost lease race
// wastes work but can never corrupt results.
type Lease struct {
	Schema int `json:"schema"`
	// Shard is the shard id the lease covers.
	Shard string `json:"shard"`
	// Token is a random per-acquisition value: ownership is proven by
	// writing the lease and reading one's own token back, never by
	// host/PID (which can recur across reboots).
	Token string `json:"token"`
	// Attempt counts acquisitions of this shard, including steals; it
	// is how per-shard retry caps survive across dispatcher processes.
	Attempt int `json:"attempt"`
	// Seq is the monotonic heartbeat sequence number: the owner
	// increments it on every refresh, and liveness is judged by
	// whether Seq advances — observed against the *scanner's own*
	// clock — never by comparing wall-clock stamps across hosts. A
	// lease whose (Token, Seq) has not changed for LeaseTTL of the
	// observer's local time is expired, however skewed the hosts'
	// clocks are.
	Seq int64 `json:"seq"`
	// Owner identifies the worker process for operators (hostname,
	// PID, start time, build); the protocol itself only trusts Token.
	Owner hostmeta.Process `json:"owner"`
	// AcquiredAt / HeartbeatAt are wall-clock stamps from the owner's
	// host — operator telemetry only, since cross-host wall clocks
	// may be skewed; expiry decisions use Seq observation instead.
	AcquiredAt  time.Time `json:"acquired_at"`
	HeartbeatAt time.Time `json:"heartbeat_at"`
	// Checksum is the content checksum over the lease document's
	// canonical form. A lease that fails verification cannot prove
	// liveness and is treated as expired with an unknown attempt
	// count.
	Checksum string `json:"checksum,omitempty"`
}

// DispatchOptions configures one dispatcher process.
type DispatchOptions struct {
	// Dir is the shared queue directory (local path, NFS mount, fuse
	// bucket — anything with atomic rename and link semantics). It
	// holds lease-<shard>.json, part-<shard>.json (completed
	// artifacts), failed-<shard>.json (terminal markers), a
	// partials/ subdirectory of per-cell resume artifacts shared
	// across attempts, and corrupt/ quarantine subdirectories.
	Dir string
	// Workers bounds the shard's trial pool (0 = GOMAXPROCS).
	Workers int
	// LeaseTTL is how long a lease's (token, seq) pair must be
	// observed unchanged — on the observer's own clock — before any
	// dispatcher may steal the shard. Zero means 1 minute. It bounds
	// how long a dead worker's shard sits idle, and unlike a
	// wall-clock stamp comparison it is immune to cross-host clock
	// skew.
	LeaseTTL time.Duration
	// Heartbeat is the owner's lease-refresh period. Zero means
	// LeaseTTL/4.
	Heartbeat time.Duration
	// MaxAttempts caps acquisitions per shard: a shard whose lease
	// expires on its MaxAttempts-th attempt is marked terminally
	// failed instead of redispatched. Zero means 3.
	MaxAttempts int
	// Poll is the *initial* wait between queue scans when every open
	// shard is leased elsewhere; consecutive idle scans back off
	// exponentially (full jitter) up to PollMax, so large idle fleets
	// don't hammer one directory in lockstep. Zero means 500ms.
	Poll time.Duration
	// PollMax caps the idle-scan backoff. Zero means 8×Poll.
	PollMax time.Duration
	// RetryAttempts bounds per-operation retries of transient queue
	// I/O errors (ESTALE, EINTR, EIO, …). Zero means 5; exhaustion
	// surfaces as ErrQueueIO.
	RetryAttempts int
	// RetryBase is the first transient-retry backoff (exponential,
	// full jitter). Zero means 20ms.
	RetryBase time.Duration
	// FS is the filesystem-and-clock seam queue operations go
	// through. Nil means the real OS; chaos tests and the CI drill
	// inject a faultfs.Faulty with a seeded schedule here.
	FS faultfs.FS
	// FailAfterCells > 0 injects a worker death for tests and CI
	// drills: the first shard this process acquires fails after
	// persisting that many fresh cells, leaving its lease to expire
	// and its partials for the next attempt, exactly like a SIGKILL.
	FailAfterCells int
	// Stop is the anytime sequential-stopping rule. When enabled, each
	// acquired shard skips cells whose point already satisfies the rule
	// on its folded prefix (Counters.CellsStopped counts them); the
	// skip is an optimization only — MergePartial truncates at the same
	// canonical boundary either way.
	Stop sim.StopRule
	// Sink, when non-nil, receives every cell this process contributes
	// (loaded or computed) the moment it lands, for streaming
	// consumers.
	Sink sim.CellSink
}

func (o DispatchOptions) withDefaults() DispatchOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = time.Minute
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = o.LeaseTTL / 4
	}
	if o.Heartbeat <= 0 { // sub-4ns TTLs in steal tests
		o.Heartbeat = time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.PollMax <= 0 {
		o.PollMax = 8 * o.Poll
	}
	return o
}

// DonePath, LeasePath, FailedPath and PartialsDir name the queue
// directory's per-shard files; exported so CLI layers and tests agree
// with the dispatcher on layout.
func DonePath(dir, shardID string) string   { return filepath.Join(dir, "part-"+shardID+".json") }
func LeasePath(dir, shardID string) string  { return filepath.Join(dir, "lease-"+shardID+".json") }
func FailedPath(dir, shardID string) string { return filepath.Join(dir, "failed-"+shardID+".json") }
func PartialsDir(dir string) string         { return filepath.Join(dir, "partials") }

// ErrShardsFailed marks shards that exhausted their attempt cap: the
// work itself keeps dying, as opposed to the queue storage misbehaving
// (ErrQueueIO) or the dispatcher being cancelled. ppsweep maps the
// three to distinct exit codes.
var ErrShardsFailed = errors.New("shard: terminal shard failure")

// DispatchResult reports what one dispatcher process did: the shards
// it completed and the degradation counters (steals, transient
// retries, quarantined artifacts, cell provenance) operators read to
// see how hard the fleet fought the filesystem. It is returned even
// alongside an error, so a failed dispatch still surfaces its
// counters.
type DispatchResult struct {
	Completed []string `json:"completed"`
	Counters  Counters `json:"counters"`
}

// Dispatch runs one worker of a shared-directory shard queue: it scans
// the manifest's shards, leases open ones (oldest first), executes
// them resumably, and keeps scanning until every shard has a completed
// artifact — including shards other dispatchers are finishing — or a
// shard fails terminally. Run one Dispatch per host against a shared
// Dir and the fleet drains the plan with straggler retry and
// crash resume; run it alone and it degrades to a sequential sweep.
//
// The protocol is lease files with heartbeats: acquisition is an
// atomic link (first writer wins), liveness is a monotonically
// increasing heartbeat sequence number, and a lease whose (token,
// seq) the scanner has observed unchanged for LeaseTTL of its own
// local time may be stolen, incrementing the attempt count — wall
// clocks never cross hosts, so skew cannot cause premature steals or
// immortal leases. A stolen-from worker notices the foreign token at
// its next heartbeat and cancels itself. Steal races are benign by
// construction: every execution of a shard produces bit-identical
// statistics (positional seeds) and every artifact write is an atomic
// rename of a complete fsynced document, so the worst case is
// duplicated work. A shard whose lease expires on attempt MaxAttempts
// is marked terminally failed (failed-<shard>.json) and Dispatch
// reports it (ErrShardsFailed) rather than retrying forever.
//
// Every artifact read verifies the content checksum: a corrupt or
// truncated part-*.json or cell partial is quarantined into corrupt/
// with a reason file and its shard or cell re-executed — never
// silently merged, and never re-read in a loop, because quarantining
// removes it from the queue's namespace. Transient I/O errors
// (ESTALE, EINTR, EIO, …) are absorbed by bounded exponential backoff
// with full jitter; only after RetryAttempts does the dispatcher give
// up with ErrQueueIO.
//
// After Dispatch returns a nil error, every shard of the manifest has
// a verified part-<shard>.json in Dir and CollectArtifacts + Merge
// yield the sweep result, bit-identical to the single-process Sweep.
func Dispatch(ctx context.Context, m *Manifest, opts DispatchOptions) (*DispatchResult, error) {
	res := &DispatchResult{}
	if err := m.Validate(); err != nil {
		return res, err
	}
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return res, errors.New("shard: dispatch needs a queue directory")
	}
	env := newQueueEnv(opts.FS, opts.RetryAttempts, opts.RetryBase, &res.Counters)
	if err := env.retry(ctx, "mkdir queue", func() error {
		return env.fsys.MkdirAll(PartialsDir(opts.Dir), 0o755)
	}); err != nil {
		return res, err
	}
	d := &dispatcher{
		m:        m,
		opts:     opts,
		proc:     hostmeta.CollectProcess(),
		env:      env,
		obs:      make(map[string]leaseObs),
		verified: make(map[string]bool),
		done:     make(map[string]bool),
	}
	idle := 0
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		open, failed := 0, []string{}
		ranOne := false
		for i := range m.Shards {
			id := m.Shards[i].ID
			doneOK, err := d.doneVerified(ctx, id)
			if err != nil {
				return res, err
			}
			if doneOK {
				continue
			}
			failedHere, err := d.env.existsRetry(ctx, FailedPath(opts.Dir, id))
			if err != nil {
				return res, err
			}
			if failedHere {
				failed = append(failed, id)
				continue
			}
			open++
			lease, state, err := d.tryAcquire(ctx, id)
			if err != nil {
				return res, err
			}
			switch state {
			case leaseBusy:
				continue
			case leaseFailed:
				failed = append(failed, id)
				open--
				continue
			}
			// A peer may have published the shard and released its lease
			// between our done check and our acquire: check again under
			// the lease, so a finished shard is never run a second time.
			if doneOK, err := d.doneVerified(ctx, id); err != nil {
				return res, err
			} else if doneOK {
				d.release(ctx, id, lease.Token)
				open--
				continue
			}
			if err := d.runShard(ctx, id, lease); err != nil {
				// Leave the lease in place: it expires and the shard is
				// retried (capped) by whoever scans next — including this
				// process, unless the error is fatal to it.
				return res, err
			}
			if !d.done[id] {
				d.done[id] = true
				res.Completed = append(res.Completed, id)
			}
			ranOne = true
		}
		if open == 0 {
			if len(failed) > 0 {
				sort.Strings(failed)
				return res, fmt.Errorf("%w: %d shard(s) failed terminally after attempt cap %d: %v",
					ErrShardsFailed, len(failed), opts.MaxAttempts, failed)
			}
			return res, nil
		}
		if ranOne {
			idle = 0
			continue
		}
		// Every open shard is leased by a live peer (or cooling toward
		// expiry) — back off exponentially with full jitter before
		// rescanning, so an idle fleet's scans decorrelate instead of
		// hammering the directory in lockstep.
		window := opts.Poll << idle
		if window > opts.PollMax || window <= 0 {
			window = opts.PollMax
		}
		if idle < 30 {
			idle++
		}
		t := time.NewTimer(max(mrand.N(window), time.Millisecond))
		select {
		case <-ctx.Done():
			t.Stop()
			return res, ctx.Err()
		case <-t.C:
		}
	}
}

// CollectArtifacts loads every shard's completed artifact from a
// drained queue directory, in manifest order, ready for Merge. Each
// artifact's content checksum is verified on read.
func CollectArtifacts(dir string, m *Manifest) ([]*Artifact, error) {
	arts := make([]*Artifact, 0, len(m.Shards))
	for i := range m.Shards {
		id := m.Shards[i].ID
		a, err := ReadArtifact(DonePath(dir, id))
		if err != nil {
			return nil, fmt.Errorf("shard: collecting %s: %w", id, err)
		}
		arts = append(arts, a)
	}
	return arts, nil
}

type leaseState int

const (
	leaseAcquired leaseState = iota
	leaseBusy
	leaseFailed
)

// leaseObs is one scanner's memory of a lease: the (token, seq) pair
// it last saw and when — on its own clock — it first saw that pair.
// Liveness is "the pair changed"; expiry is "the pair sat still for
// LeaseTTL of my time".
type leaseObs struct {
	token string
	seq   int64
	since time.Time
}

type dispatcher struct {
	m    *Manifest
	opts DispatchOptions
	proc hostmeta.Process
	env  *queueEnv
	// obs tracks foreign leases for skew-free expiry.
	obs map[string]leaseObs
	// verified caches done-artifact integrity checks (one read per
	// shard per dispatcher, not per scan).
	verified map[string]bool
	// done dedupes the Completed list across re-runs of a shard whose
	// first artifact was quarantined.
	done map[string]bool
}

// doneVerified reports whether the shard has a completed artifact
// that passes integrity verification. A corrupt done artifact is
// quarantined — the shard becomes open again and is re-executed —
// which is what makes a torn part-*.json self-healing instead of
// silently merged or fatally wedging the fleet.
func (d *dispatcher) doneVerified(ctx context.Context, shardID string) (bool, error) {
	if d.verified[shardID] {
		return true, nil
	}
	path := DonePath(d.opts.Dir, shardID)
	data, err := d.env.readRetry(ctx, path)
	if err != nil {
		return false, err
	}
	if data == nil {
		return false, nil
	}
	a, derr := decodeArtifact(data, path)
	var corrupt *corruptError
	if derr == nil && a.Shard.ID != shardID {
		derr = &corruptError{reason: fmt.Sprintf("%s: artifact is for shard %q", path, a.Shard.ID)}
	}
	if errors.As(derr, &corrupt) {
		if qerr := d.env.quarantine(ctx, path, corrupt.reason); qerr != nil {
			return false, qerr
		}
		return false, nil
	}
	if derr != nil {
		return false, derr
	}
	if !reflect.DeepEqual(a.Sweep, d.m.Sweep) {
		return false, fmt.Errorf("shard: %s belongs to a different sweep (queue dir shared between plans?)", path)
	}
	d.verified[shardID] = true
	return true, nil
}

// tryAcquire claims the shard's lease: fresh creation via atomic link
// (first writer wins), or a steal of a lease whose heartbeat sequence
// number this dispatcher has observed unchanged for LeaseTTL of local
// time, via atomic rename plus token read-back (last writer wins,
// losers see a foreign token). An expired lease already at the
// attempt cap is promoted to a terminal failed marker instead.
func (d *dispatcher) tryAcquire(ctx context.Context, shardID string) (Lease, leaseState, error) {
	path := LeasePath(d.opts.Dir, shardID)
	now := d.env.fsys.Now().UTC()
	lease := Lease{
		Schema:      ManifestSchema,
		Shard:       shardID,
		Token:       newToken(),
		Attempt:     1,
		Owner:       d.proc,
		AcquiredAt:  now,
		HeartbeatAt: now,
	}
	created, err := d.linkNew(ctx, path, &lease)
	if err != nil {
		return Lease{}, leaseBusy, err
	}
	if created {
		delete(d.obs, shardID)
		return lease, leaseAcquired, nil
	}
	// Contested: inspect the incumbent.
	data, err := d.env.readRetry(ctx, path)
	if err != nil {
		return Lease{}, leaseBusy, err
	}
	if data == nil {
		// Released between our link attempt and read — next scan gets it.
		return Lease{}, leaseBusy, nil
	}
	old, intact := decodeLease(data)
	if intact {
		prev, seen := d.obs[shardID]
		if !seen || prev.token != old.Token || prev.seq != old.Seq {
			// First sighting of this (token, seq): start the local
			// expiry clock. Wall-clock stamps in the lease are never
			// compared — a skewed owner ages out exactly like a dead one.
			d.obs[shardID] = leaseObs{token: old.Token, seq: old.Seq, since: d.env.fsys.Now()}
			return Lease{}, leaseBusy, nil
		}
		if d.env.fsys.Now().Sub(prev.since) < d.opts.LeaseTTL {
			return Lease{}, leaseBusy, nil
		}
		// Observed frozen for a full TTL: expired.
	} else {
		// A corrupt lease cannot prove liveness; treat as expired with
		// an unknown attempt count of 0. Benign if the owner lives: it
		// rewrites the lease on its next heartbeat, and duplicated work
		// merges bit-identically anyway.
		old = Lease{Shard: shardID}
	}
	if old.Attempt >= d.opts.MaxAttempts {
		// Expired on its last permitted attempt: terminal. The marker
		// write is idempotent (atomic rename of identical semantics from
		// racing dispatchers).
		if err := d.env.writeSealedRetry(ctx, FailedPath(d.opts.Dir, shardID), &old); err != nil {
			return Lease{}, leaseBusy, err
		}
		return Lease{}, leaseFailed, nil
	}
	lease.Attempt = old.Attempt + 1
	if err := d.env.writeSealedRetry(ctx, path, &lease); err != nil {
		return Lease{}, leaseBusy, err
	}
	// Read back: of N racing stealers the last rename wins; exactly one
	// sees its own token.
	data, err = d.env.readRetry(ctx, path)
	if err != nil {
		return Lease{}, leaseBusy, err
	}
	if data == nil {
		// Our steal lost to a racing release's check-then-remove (the
		// incumbent finished after all) or another steal's cleanup —
		// benign, the next scan finds the done artifact or a fresh lease.
		return Lease{}, leaseBusy, nil
	}
	if current, ok := decodeLease(data); !ok || current.Token != lease.Token {
		return Lease{}, leaseBusy, nil
	}
	d.env.counters.Steals++
	delete(d.obs, shardID)
	return lease, leaseAcquired, nil
}

// runShard executes one leased shard resumably while heartbeating the
// lease, then publishes the artifact and releases the lease. An
// execution error leaves the lease to expire so the shard is retried
// under the attempt cap.
func (d *dispatcher) runShard(ctx context.Context, shardID string, lease Lease) error {
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.heartbeat(shardCtx, stop, shardID, lease, cancel)
	}()
	art, err := runResumable(shardCtx, d.m, shardID, d.opts.Workers, PartialsDir(d.opts.Dir), d.opts.FailAfterCells, d.env, d.opts.Stop, d.opts.Sink)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if err := d.env.writeSealedRetry(ctx, DonePath(d.opts.Dir, shardID), art); err != nil {
		return err
	}
	d.release(ctx, shardID, lease.Token)
	return nil
}

// heartbeat refreshes the lease every Heartbeat period, incrementing
// the monotonic Seq that scanners watch for liveness (the wall-clock
// stamp is refreshed too, for operators). If the lease no longer
// carries our token — a peer presumed us dead and stole the shard —
// the in-flight execution is cancelled: the thief owns the shard now,
// and idempotent artifacts make our partial progress its head start
// rather than a hazard.
func (d *dispatcher) heartbeat(ctx context.Context, stop <-chan struct{}, shardID string, lease Lease, cancel context.CancelFunc) {
	path := LeasePath(d.opts.Dir, shardID)
	ticker := time.NewTicker(d.opts.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
			if data, err := d.env.fsys.ReadFile(path); err == nil {
				if current, ok := decodeLease(data); ok && current.Token != lease.Token {
					cancel()
					return
				}
			}
			lease.Seq++
			lease.HeartbeatAt = d.env.fsys.Now().UTC()
			// Best effort: a failed beat only freezes Seq, aging the
			// lease toward stealability — the intended failure mode.
			if data, err := sealJSON(&lease); err == nil {
				_ = faultfs.AtomicWrite(d.env.fsys, path, data)
			}
		}
	}
}

// release removes the lease if it is still ours; losing this race is
// fine (the new owner will find the done artifact and move on).
func (d *dispatcher) release(ctx context.Context, shardID, token string) {
	path := LeasePath(d.opts.Dir, shardID)
	data, err := d.env.readRetry(ctx, path)
	if err != nil || data == nil {
		return
	}
	if current, ok := decodeLease(data); ok && current.Token == token {
		_ = d.env.fsys.Remove(path)
	}
}

// decodeLease parses and integrity-checks a lease document. ok=false
// means the lease is corrupt (unparseable or checksum-mismatched) and
// cannot prove liveness; pre-checksum leases verify by schema alone.
func decodeLease(data []byte) (Lease, bool) {
	var l Lease
	if _, err := verifyDoc(data, "lease"); err != nil {
		return l, false
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return l, false
	}
	return l, true
}

// linkNew atomically creates path with the sealed lease iff it does
// not already exist, via a unique temp file and an atomic link — the
// content is complete (and fsynced) before the name appears, unlike
// O_CREATE|O_EXCL plus write, whose readers can observe a
// half-written lease. An EEXIST after a transient-retry is reported
// as "lost the race" even if our own earlier attempt's link actually
// landed before its ack was lost (classic NFS): that orphan lease
// never heartbeats and is stolen after TTL, costing one attempt,
// never correctness.
func (d *dispatcher) linkNew(ctx context.Context, path string, lease *Lease) (created bool, err error) {
	data, err := sealJSON(lease)
	if err != nil {
		return false, err
	}
	tmp := faultfs.TmpName(path)
	defer d.env.fsys.Remove(tmp)
	err = d.env.retry(ctx, "acquire lease", func() error {
		if werr := d.env.fsys.WriteFileSync(tmp, data, 0o644); werr != nil {
			return werr
		}
		lerr := d.env.fsys.Link(tmp, path)
		switch {
		case lerr == nil:
			created = true
			return d.env.fsys.SyncDir(filepath.Dir(path))
		case errors.Is(lerr, fs.ErrExist):
			created = false
			return nil
		default:
			return lerr
		}
	})
	if err != nil {
		return false, err
	}
	return created, nil
}

// fileExists is a test/CLI convenience over the real filesystem.
func fileExists(path string) bool {
	_, err := faultfs.OS().Stat(path)
	return err == nil
}

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}
