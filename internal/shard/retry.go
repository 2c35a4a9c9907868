package shard

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/faultfs"
)

// ErrQueueIO marks a queue-directory operation that still failed
// after the bounded transient-error retry budget: the filesystem is
// not merely hiccuping, and the dispatcher gives up rather than
// spinning. ppsweep maps it to its own exit code so operators can
// tell "queue storage is broken" from "a shard's work failed". Every
// ErrQueueIO also wraps faultfs.ErrRetryExhausted.
var ErrQueueIO = errors.New("shard: queue I/O failed after retries")

// queueEnv bundles what every queue-directory touch needs: the
// (injectable) filesystem seam, the transient-retry policy, and the
// degradation counters. One env serves one Dispatch or RunResumableStop
// call; counters are only touched from its goroutine.
type queueEnv struct {
	fsys     faultfs.FS
	retrier  faultfs.Retrier
	retries  atomic.Int64 // absorbed transient errors, fed by retrier
	counters *Counters
}

// newQueueEnv builds an env over fsys (nil means the real OS) whose
// retrier makes attempts tries per operation with a first backoff of
// base (zero values take faultfs.Retrier's defaults). The jitter is
// seeded from crypto/rand per env, so a fleet started together does
// not back off in lockstep.
func newQueueEnv(fsys faultfs.FS, attempts int, base time.Duration, c *Counters) *queueEnv {
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if c == nil {
		c = &Counters{}
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	e := &queueEnv{fsys: fsys, counters: c}
	e.retrier = faultfs.Retrier{Attempts: attempts, Base: base, Seed: binary.LittleEndian.Uint64(seed[:]), Count: &e.retries}
	return e
}

// retry runs f under the env's faultfs.Retrier, adding the transient
// errors it absorbed to Counters.Retries. Permanent errors return
// unwrapped; an exhausted budget returns an error wrapping both
// ErrQueueIO and faultfs.ErrRetryExhausted.
func (e *queueEnv) retry(ctx context.Context, op string, f func() error) error {
	err := e.retrier.Do(ctx, op, f)
	e.counters.Retries += int(e.retries.Swap(0))
	if errors.Is(err, faultfs.ErrRetryExhausted) {
		return fmt.Errorf("%w: %w", ErrQueueIO, err)
	}
	return err
}

// writeSealedRetry seals v (canon.Seal, sum pointing at its checksum
// field) and publishes it atomically, retrying transient failures of
// each step as one unit (a retried rename whose first attempt actually
// succeeded is idempotent: same temp content, same target).
func (e *queueEnv) writeSealedRetry(ctx context.Context, path string, v any, sum *string) error {
	data, err := canon.Seal(v, sum, true)
	if err != nil {
		return err
	}
	return e.retry(ctx, "write "+filepath.Base(path), func() error {
		return faultfs.AtomicWrite(e.fsys, path, data)
	})
}

// readRetry reads path with transient-retry; a missing file is
// returned as (nil, nil) — absence is a normal queue state, not an
// error.
func (e *queueEnv) readRetry(ctx context.Context, path string) ([]byte, error) {
	var data []byte
	err := e.retry(ctx, "read "+filepath.Base(path), func() error {
		var rerr error
		data, rerr = e.fsys.ReadFile(path)
		if rerr != nil && errors.Is(rerr, fs.ErrNotExist) {
			data = nil
			return nil
		}
		return rerr
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// existsRetry stats path with transient-retry.
func (e *queueEnv) existsRetry(ctx context.Context, path string) (bool, error) {
	var found bool
	err := e.retry(ctx, "stat "+filepath.Base(path), func() error {
		_, serr := e.fsys.Stat(path)
		if serr == nil {
			found = true
			return nil
		}
		if errors.Is(serr, fs.ErrNotExist) {
			found = false
			return nil
		}
		return serr
	})
	return found, err
}

// quarantine moves the corrupt file at path into its directory's
// corrupt/ subdirectory with a reason file (faultfs.Quarantine), so
// the cell or shard is recomputed instead of merged. The whole move is
// retried as one unit on transient errors. A file another process
// already moved is neither counted nor logged.
func (e *queueEnv) quarantine(ctx context.Context, path, reason string) error {
	var dst string
	err := e.retry(ctx, "quarantine "+filepath.Base(path), func() (err error) {
		dst, err = faultfs.Quarantine(e.fsys, path, faultfs.CorruptDir(filepath.Dir(path)), reason)
		return err
	})
	if err != nil || dst == "" {
		return err
	}
	e.counters.Quarantined++
	log.Printf("shard: quarantined %s: %s", dst, reason)
	return nil
}
