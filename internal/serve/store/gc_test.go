package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/key"
)

// One GC pass over a battered store: corrupt artifact quarantined,
// stray publish temp swept, expired quarantine dropped, journal
// compacted to the survivors — and a daemon reopening the store
// afterwards serves the survivors warm.
func TestGCRepairsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ka := putOne(t, s, 70)
	kb := putOne(t, s, 71)
	kc := putOne(t, s, 72)

	// Corrupt kc in place (bit rot).
	cpath := s.ObjectPath(kc)
	data, err := os.ReadFile(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpath, bytes.Replace(data, []byte(`"x": 72`), []byte(`"x": 27`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	// A stray publish temp file (crash before rename).
	stray := filepath.Join(filepath.Dir(s.ObjectPath(ka)), ka.SHA+".json.tmp.999.1")
	if err := os.WriteFile(stray, []byte("half an artifa"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An old quarantine entry past the TTL, plus its reason.
	qdir := filepath.Join(dir, "corrupt")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(qdir, "ancient.json")
	if err := os.WriteFile(old, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old+".reason", []byte("junk\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}

	rep, err := GC(dir, GCOptions{QuarantineTTL: 24 * time.Hour})
	if err != nil {
		t.Fatalf("recoverable damage made GC fail: %v", err)
	}
	if rep.Verified != 2 || rep.Quarantined != 1 || rep.DroppedTmp != 1 || rep.DroppedQuarantine != 1 {
		t.Fatalf("report %+v, want verified=2 quarantined=1 dropped_tmp=1 dropped_quarantine=1", rep)
	}
	if rep.Objects != 2 || rep.JournalLines != 2 {
		t.Fatalf("report %+v, want 2 surviving objects and 2 journal lines", rep)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatal("expired quarantine entry survived")
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived")
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(journal), "\n"); lines != 2 {
		t.Fatalf("compacted journal has %d lines:\n%s", lines, journal)
	}

	// The repaired store serves the survivors warm and the corrupt key
	// as a clean miss.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := s2.Size()
	if stats.Objects != 2 {
		t.Fatalf("reopened footprint %+v, want 2", stats)
	}
	if art, err := s2.Get(context.Background(), ka); err != nil || art == nil {
		t.Fatalf("survivor ka lost: %v", err)
	}
	if art, err := s2.Get(context.Background(), kb); err != nil || art == nil {
		t.Fatalf("survivor kb lost: %v", err)
	}
	if art, err := s2.Get(context.Background(), kc); err != nil || art != nil {
		t.Fatalf("quarantined kc still served: %v %v", art, err)
	}
}

// GC compacts the index Open builds, so Open, GC, Open keeps every
// object's eviction rank and last access. The journal here lost its
// tail to a crash: it names the two older puts, stamped before the
// newest artifact's mtime, and not the newest. Open ranks the unnamed
// newest behind both; a compaction that re-sorted by access time
// would move it in front of them. Kinds may only be filled in, from
// the artifacts.
func TestGCKeepsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []key.Key{putOne(t, s, 80), putOne(t, s, 81), putOne(t, s, 82)}
	var journal []byte
	for i, k := range keys {
		path := s.ObjectPath(k)
		mtime := time.Unix(1700000000+10*int64(i), 0)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			journal = append(journal, journalLine("put", k.SHA, key.KindSimulate, info.Size(), mtime.Unix()+5)...)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	before := evictionOrder(t, dir)
	if before[0].sha != keys[2].SHA {
		t.Fatalf("Open ranked %+v first for eviction, want the artifact the journal does not name", before[0])
	}
	if _, err := GC(dir, GCOptions{}); err != nil {
		t.Fatal(err)
	}
	after := evictionOrder(t, dir)
	if len(after) != len(before) {
		t.Fatalf("GC left %d objects, want %d", len(after), len(before))
	}
	for i := range before {
		b, a := before[i], after[i]
		if a.sha != b.sha || a.last != b.last {
			t.Fatalf("eviction rank %d: before GC %+v, after %+v", i, b, a)
		}
		if a.kind != key.KindSimulate || b.kind != "" && b.kind != a.kind {
			t.Fatalf("eviction rank %d: kind %q before GC, %q after; want it kept, or filled in from the artifact", i, b.kind, a.kind)
		}
	}
}

// evictionOrder opens the store at dir and lists its index in
// eviction order, least recently accessed first.
func evictionOrder(t *testing.T, dir string) []object {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var order []object
	for el := s.lifecycle.lru.Back(); el != nil; el = el.Prev() {
		o := el.Value.(*object)
		order = append(order, object{sha: o.sha, kind: o.kind, last: o.last})
	}
	return order
}
