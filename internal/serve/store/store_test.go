package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/serve/key"
)

func testKey(t *testing.T, x int64) key.Key {
	t.Helper()
	q := &key.Query{
		Kind:     key.KindSimulate,
		Spec:     key.Spec{Protocol: "flock", Param: 4},
		Simulate: &key.SimulateParams{X: x},
	}
	k, err := key.Of(q)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func openTest(t *testing.T, fsys faultfs.FS) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func result(x int64) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"x":%d}`, x))
}

// sealedResult is result(x) as an artifact read from its sealed bytes
// holds it: in the file's indented layout, one level deep.
func sealedResult(x int64) string {
	return fmt.Sprintf("{\n    \"x\": %d\n  }", x)
}

func TestGetOrComputePersistsAndHits(t *testing.T) {
	s := openTest(t, nil)
	k := testKey(t, 8)
	var computes atomic.Int64
	compute := func(context.Context) (json.RawMessage, error) {
		computes.Add(1)
		return result(8), nil
	}
	art, hit, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, compute)
	if err != nil || hit {
		t.Fatalf("cold lookup: hit=%v err=%v", hit, err)
	}
	if string(art.Result) != sealedResult(8) || art.Key != k.String() {
		t.Fatalf("bad artifact %+v", art)
	}

	// A second store over the same directory (daemon restart) must hit
	// without recomputing.
	s2, err := Open(s.Root(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	art2, hit, err := s2.GetOrCompute(context.Background(), k, key.KindSimulate, compute)
	if err != nil || !hit {
		t.Fatalf("warm lookup after reopen: hit=%v err=%v", hit, err)
	}
	if string(art2.Result) != string(art.Result) {
		t.Fatalf("restart changed the result: %s vs %s", art2.Result, art.Result)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	stats := s2.Size()
	if stats.Objects != 1 || stats.Bytes == 0 {
		t.Fatalf("size = %+v, want 1 object", stats)
	}
}

// The singleflight contract under -race: N goroutines per key, mixed
// keys, exactly one compute per key, everyone sees the same artifact.
func TestConcurrentSingleflight(t *testing.T) {
	s := openTest(t, nil)
	const keys, per = 4, 16
	computes := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	errs := make(chan error, keys*per)
	arts := make([]*Artifact, keys*per)
	for ki := 0; ki < keys; ki++ {
		k := testKey(t, int64(100+ki))
		for g := 0; g < per; g++ {
			wg.Add(1)
			go func(ki, g int) {
				defer wg.Done()
				art, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
					computes[ki].Add(1)
					return result(int64(100 + ki)), nil
				})
				if err != nil {
					errs <- err
					return
				}
				arts[ki*per+g] = art
			}(ki, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for ki := 0; ki < keys; ki++ {
		if got := computes[ki].Load(); got != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", ki, got)
		}
		want := sealedResult(int64(100 + ki))
		for g := 0; g < per; g++ {
			if art := arts[ki*per+g]; art == nil || string(art.Result) != want {
				t.Fatalf("key %d caller %d got %v", ki, g, arts[ki*per+g])
			}
		}
	}
	c := s.Counters()
	if c.Misses != keys {
		t.Errorf("misses = %d, want %d", c.Misses, keys)
	}
	if c.Hits+c.Dedups != keys*(per-1) {
		t.Errorf("hits+dedups = %d+%d, want %d", c.Hits, c.Dedups, keys*(per-1))
	}
}

// A compute error is shared with waiting callers and leaves nothing
// on disk; the next request retries and can succeed.
func TestComputeErrorNotCached(t *testing.T) {
	s := openTest(t, nil)
	k := testKey(t, 9)
	boom := fmt.Errorf("transient closure explosion")
	if _, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("err = %v, want the compute error", err)
	}
	art, hit, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(9), nil
	})
	if err != nil || hit || art == nil {
		t.Fatalf("retry after error: art=%v hit=%v err=%v", art, hit, err)
	}
}

// A crash mid-publish (torn write that still reports success, rename
// landing the short file) must never surface a torn read: the
// checksum catches it, the artifact is quarantined with a reason, and
// the query recomputes.
func TestTornWriteQuarantinedNotServed(t *testing.T) {
	dir := t.TempDir()
	k := testKey(t, 11)
	// First write of this store tears silently at byte 40 — the
	// "crash between write and fsync, rename already durable" shape.
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpWrite, Nth: 1, Path: k.SHA[:8], Tear: true, TearAt: 40},
	})
	s, err := Open(dir, Options{FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(11), nil
	}); err != nil {
		t.Fatal(err)
	}
	if fired := faulty.Fired(); len(fired) != 1 {
		t.Fatalf("torn-write fault did not fire: %v", fired)
	}

	// Restarted daemon over the same directory, healthy filesystem.
	var computes atomic.Int64
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	art, hit, err := s2.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		computes.Add(1)
		return result(11), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit || computes.Load() != 1 {
		t.Fatalf("torn artifact served as a hit (hit=%v computes=%d)", hit, computes.Load())
	}
	if string(art.Result) != sealedResult(11) {
		t.Fatalf("recompute produced %s", art.Result)
	}
	if got := s2.Counters().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	qdir := filepath.Join(dir, "corrupt")
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatalf("no quarantine directory: %v", err)
	}
	var foundReason bool
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".reason") {
			foundReason = true
			reason, _ := os.ReadFile(filepath.Join(qdir, e.Name()))
			if !strings.Contains(string(reason), "torn write") && !strings.Contains(string(reason), "unparseable") {
				t.Errorf("reason does not name the corruption: %q", reason)
			}
		}
	}
	if !foundReason {
		t.Fatalf("no .reason file among %v", entries)
	}
	// The healthy recompute replaced the object: a third open hits.
	s3, _ := Open(dir, Options{})
	if _, hit, err := s3.GetOrCompute(context.Background(), k, key.KindSimulate, nil); err != nil || !hit {
		t.Fatalf("after quarantine+recompute: hit=%v err=%v", hit, err)
	}
}

// A transiently failing rename (one EIO) is absorbed by the retry
// policy: the publish succeeds on the second attempt and the caller
// never notices.
func TestTransientRenameRetried(t *testing.T) {
	dir := t.TempDir()
	k := testKey(t, 12)
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpRename, Nth: 1, Err: syscall.EIO},
	})
	s, err := Open(dir, Options{FS: faulty, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(12), nil
	}); err != nil {
		t.Fatalf("one transient rename failure leaked to the caller: %v", err)
	}
	c := s.Counters()
	if c.IORetries == 0 {
		t.Fatalf("retry not recorded: %+v", c)
	}
	if s.Degraded() {
		t.Fatal("transient fault degraded the store")
	}
	s2, _ := Open(dir, Options{})
	art, err := s2.Get(context.Background(), k)
	if err != nil || art == nil {
		t.Fatalf("retried publish not durable: art=%v err=%v", art, err)
	}
}

// A permanently failing publish (disk full) must not fail the request:
// the store degrades to compute-only mode, the artifact is served
// anyway, and the disk keeps a clean miss — no torn or partial file.
func TestPermanentPublishFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	k := testKey(t, 12)
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpWrite, Nth: 1, Path: k.SHA[:8], Err: syscall.ENOSPC},
	})
	// ProbeBase of an hour: the store must stay degraded for the whole
	// test instead of self-healing mid-assertion.
	s, err := Open(dir, Options{FS: faulty, ProbeBase: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	art, hit, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(12), nil
	})
	if err != nil || hit || art == nil {
		t.Fatalf("degraded publish failed the request: art=%v hit=%v err=%v", art, hit, err)
	}
	if !s.Degraded() {
		t.Fatal("ENOSPC publish did not degrade the store")
	}
	if c := s.Counters(); c.PutFailures != 1 {
		t.Fatalf("put_failures = %d, want 1", c.PutFailures)
	}
	// While degraded, computes are served without touching the disk.
	k2 := testKey(t, 13)
	if _, _, err := s.GetOrCompute(context.Background(), k2, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(13), nil
	}); err != nil {
		t.Fatal(err)
	}
	if c := s.Counters(); c.PutSkipped != 1 {
		t.Fatalf("put_skipped = %d, want 1", c.PutSkipped)
	}
	s2, _ := Open(dir, Options{})
	got, err := s2.Get(context.Background(), k)
	if err != nil || got != nil {
		t.Fatalf("after failed publish: art=%v err=%v, want clean miss", got, err)
	}
	if got := s2.Counters().Quarantined; got != 0 {
		t.Fatalf("clean miss quarantined %d files", got)
	}
}

// Edited content with a stale checksum — bit rot or a hand edit —
// is quarantined, not served.
func TestEditedArtifactQuarantined(t *testing.T) {
	s := openTest(t, nil)
	k := testKey(t, 13)
	if _, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(13), nil
	}); err != nil {
		t.Fatal(err)
	}
	path := s.ObjectPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"x": 13`, `"x": 31`, 1)
	if edited == string(data) {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	art, err := s.Get(context.Background(), k)
	if err != nil || art != nil {
		t.Fatalf("edited artifact served: art=%v err=%v", art, err)
	}
	if got := s.Counters().Quarantined; got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
}

// A misfiled artifact — valid document sealed for key A sitting at
// key B's address — must not answer B's query.
func TestMisfiledArtifactNotServed(t *testing.T) {
	s := openTest(t, nil)
	ka, kb := testKey(t, 14), testKey(t, 15)
	if _, _, err := s.GetOrCompute(context.Background(), ka, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(14), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.ObjectPath(kb)), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.ObjectPath(ka))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.ObjectPath(kb), data, 0o644); err != nil {
		t.Fatal(err)
	}
	art, err := s.Get(context.Background(), kb)
	if err != nil || art != nil {
		t.Fatalf("misfiled artifact served: art=%v err=%v", art, err)
	}
}
