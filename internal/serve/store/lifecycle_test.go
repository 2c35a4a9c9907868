package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/serve/key"
)

// putOne computes-and-publishes one artifact and returns its key.
func putOne(t *testing.T, s *Store, x int64) key.Key {
	t.Helper()
	k := testKey(t, x)
	if _, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
		return result(x), nil
	}); err != nil {
		t.Fatal(err)
	}
	return k
}

// artifactSize measures one published artifact's on-disk size; the
// test keys here all seal to the same length (same field widths), so
// one measurement sizes them all.
func artifactSize(t *testing.T) int64 {
	t.Helper()
	s := openTest(t, nil)
	putOne(t, s, 20)
	stats := s.Size()
	if stats.Objects != 1 {
		t.Fatalf("measuring artifact size: %+v", stats)
	}
	return stats.Bytes
}

// The LRU bound: with room for two artifacts, publishing a third
// evicts the least recently accessed — and a read refreshes recency,
// steering the next eviction elsewhere.
func TestEvictionIsLRUAndBounded(t *testing.T) {
	size := artifactSize(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	ka := putOne(t, s, 21)
	kb := putOne(t, s, 22)
	kc := putOne(t, s, 23) // pushes past the bound: ka is LRU, goes

	if got, _ := s.Get(context.Background(), ka); got != nil {
		t.Fatal("LRU artifact survived the bound")
	}
	for _, k := range []key.Key{kb, kc} {
		if got, err := s.Get(context.Background(), k); err != nil || got == nil {
			t.Fatalf("recent artifact evicted: %s (err=%v)", k.Short(), err)
		}
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	stats := s.Size()
	if stats.Objects != 2 || stats.Bytes > 2*size {
		t.Fatalf("footprint %+v exceeds the bound %d", stats, 2*size)
	}

	// Touch kb, publish kd: kc is now the LRU victim, kb survives.
	if _, err := s.Get(context.Background(), kb); err != nil {
		t.Fatal(err)
	}
	kd := putOne(t, s, 24)
	if got, _ := s.Get(context.Background(), kc); got != nil {
		t.Fatal("LRU order ignored the refreshing read")
	}
	for _, k := range []key.Key{kb, kd} {
		if got, err := s.Get(context.Background(), k); err != nil || got == nil {
			t.Fatalf("wrong victim chosen; %s missing (err=%v)", k.Short(), err)
		}
	}
}

// Recency must survive a restart via the journal: an artifact read
// just before shutdown outlives an unread one published after it.
func TestJournalRecencySurvivesRestart(t *testing.T) {
	size := artifactSize(t)
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	ka := putOne(t, s, 31)
	kb := putOne(t, s, 32)
	// ka is now the most recently accessed, despite the older mtime.
	if _, err := s.Get(context.Background(), ka); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{MaxBytes: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	putOne(t, s2, 33)
	if got, _ := s2.Get(context.Background(), kb); got != nil {
		t.Fatal("restart forgot journal recency: mtime order won over access order")
	}
	if got, err := s2.Get(context.Background(), ka); err != nil || got == nil {
		t.Fatalf("recently read artifact evicted after restart (err=%v)", err)
	}
}

// A journal line longer than any line buffer is one unparseable line:
// replay skips it and still applies every line after it, so a read
// journaled after the long line keeps its artifact recent across a
// restart — and across a GC pass, which compacts the journal from
// the same records.
func TestJournalSkipsOverlongLine(t *testing.T) {
	size := artifactSize(t)
	for _, gc := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir, Options{MaxBytes: 2 * size})
		if err != nil {
			t.Fatal(err)
		}
		ka := putOne(t, s, 34)
		kb := putOne(t, s, 35)
		garbage := append(bytes.Repeat([]byte("x"), 70<<10), '\n')
		if err := faultfs.OS().Append(filepath.Join(dir, "journal.log"), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(context.Background(), ka); err != nil {
			t.Fatal(err)
		}
		if gc {
			if _, err := GC(dir, GCOptions{}); err != nil {
				t.Fatal(err)
			}
		}

		s2, err := Open(dir, Options{MaxBytes: 2 * size})
		if err != nil {
			t.Fatal(err)
		}
		putOne(t, s2, 36)
		if got, err := s2.Get(context.Background(), ka); err != nil || got == nil {
			t.Fatalf("gc=%v: artifact read after the long journal line was evicted after restart (err=%v)", gc, err)
		}
		if got, _ := s2.Get(context.Background(), kb); got != nil {
			t.Fatalf("gc=%v: unread artifact outlived the one read after the long journal line", gc)
		}
	}
}

// In-flight keys are never evicted, under -race: a bound far too
// small for the working set must degrade to recomputes, never to a
// wrong answer or an error, and the footprint must collapse back to
// the bound once the store quiesces.
func TestInFlightNeverEvictedUnderPressure(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const keys, per = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, keys*per)
	for ki := 0; ki < keys; ki++ {
		k := testKey(t, int64(40+ki))
		want := sealedResult(int64(40 + ki))
		for g := 0; g < per; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				art, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
					time.Sleep(time.Millisecond)
					return result(int64(40 + ki)), nil
				})
				if err != nil {
					errs <- err
					return
				}
				if string(art.Result) != want {
					errs <- fmt.Errorf("key %d served %s", ki, art.Result)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Fatalf("1-byte bound evicted nothing: %+v", c)
	}
	// Quiesced: one final publish evicts everything but itself.
	putOne(t, s, 49)
	stats := s.Size()
	if stats.Objects != 1 {
		t.Fatalf("quiesced footprint %+v, want exactly the last publish", stats)
	}
}

// Keys pages the whole inventory in key order with a stable cursor.
func TestKeysPagination(t *testing.T) {
	s := openTest(t, nil)
	want := map[string]bool{}
	for x := int64(50); x < 55; x++ {
		want["sha256:"+testKey(t, x).SHA] = true
	}
	for x := int64(50); x < 55; x++ {
		putOne(t, s, x)
	}
	var got []string
	after, pages := "", 0
	for {
		page, next := s.Keys(after, 2)
		pages++
		for _, ki := range page {
			got = append(got, ki.Key)
			if ki.Kind != key.KindSimulate || ki.Bytes == 0 || ki.LastAccess == "" {
				t.Fatalf("incomplete row %+v", ki)
			}
		}
		if next == "" {
			break
		}
		after = next
	}
	if len(got) != 5 || pages != 3 {
		t.Fatalf("paged %d keys in %d pages, want 5 in 3", len(got), pages)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("keys out of order: %s after %s", got[i], got[i-1])
		}
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("unexpected key %s", k)
		}
	}
}

// countingFS counts every seam operation, so a test can assert an
// API call performs no I/O at all.
type countingFS struct {
	faultfs.FS
	ops atomic.Int64
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.ops.Add(1)
	return c.FS.ReadFile(name)
}
func (c *countingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.ops.Add(1)
	return c.FS.WriteFile(name, data, perm)
}
func (c *countingFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	c.ops.Add(1)
	return c.FS.WriteFileSync(name, data, perm)
}
func (c *countingFS) Append(name string, data []byte, perm fs.FileMode) error {
	c.ops.Add(1)
	return c.FS.Append(name, data, perm)
}
func (c *countingFS) Rename(o, n string) error { c.ops.Add(1); return c.FS.Rename(o, n) }
func (c *countingFS) Remove(name string) error { c.ops.Add(1); return c.FS.Remove(name) }
func (c *countingFS) Stat(name string) (fs.FileInfo, error) {
	c.ops.Add(1)
	return c.FS.Stat(name)
}
func (c *countingFS) MkdirAll(name string, perm fs.FileMode) error {
	c.ops.Add(1)
	return c.FS.MkdirAll(name, perm)
}
func (c *countingFS) SyncDir(name string) error { c.ops.Add(1); return c.FS.SyncDir(name) }

// Size must be O(1): after any number of puts, reading the footprint
// performs zero filesystem operations — it is the incrementally
// maintained counter, not a tree walk. It must also agree with the
// walk it replaced.
func TestSizeIsO1AndAccurate(t *testing.T) {
	cfs := &countingFS{FS: faultfs.OS()}
	s, err := Open(t.TempDir(), Options{FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes int64
	for x := int64(60); x < 68; x++ {
		k := putOne(t, s, x)
		data, err := cfs.FS.ReadFile(s.ObjectPath(k))
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += int64(len(data))
	}
	before := cfs.ops.Load()
	var stats Stats
	for i := 0; i < 100; i++ {
		stats = s.Size()
	}
	if ops := cfs.ops.Load() - before; ops != 0 {
		t.Fatalf("100 Size calls performed %d filesystem operations, want 0", ops)
	}
	if stats.Objects != 8 || stats.Bytes != wantBytes {
		t.Fatalf("counter drifted from disk: %+v, want 8 objects / %d bytes", stats, wantBytes)
	}
}
