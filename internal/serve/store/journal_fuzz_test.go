package store

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/serve/key"
)

// FuzzParseJournalLine fuzzes journal replay's line parser over whole
// journal files split the way replayJournal splits them: no line
// panics it, and every record it accepts is written back by
// journalLine as a line that parses to the same record.
func FuzzParseJournalLine(f *testing.F) {
	sha := strings.Repeat("ab", 32)
	for _, seed := range []string{
		string(journalLine("put", sha, "simulate", 512, 1700000000)),
		string(journalLine("get", sha, "", 512, 1700000001)) + string(journalLine("evict", sha, "", 512, 1700000002)),
		string(journalLine("quarantine", sha, "", 0, -1)),
		"put " + sha + " sweep 12 17000", // torn tail
		"get " + sha + " - +7 0012\r\n",
		"put " + sha + " verify 9223372036854775808 1\n",
		"put " + sha[:63] + " verify 1 1\n",
		"put  " + sha + "\t- 1 2 3\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, text := range strings.Split(string(data), "\n") {
			op, sha, kind, size, last, ok := parseJournalLine(text)
			if !ok {
				continue
			}
			line := string(journalLine(op, sha, kind, size, last))
			op2, sha2, kind2, size2, last2, ok2 := parseJournalLine(strings.TrimSuffix(line, "\n"))
			if !ok2 || op2 != op || sha2 != sha || kind2 != kind || size2 != size || last2 != last {
				t.Fatalf("record (%q %q %q %d %d) from %q rewrote as %q, which parses to (%q %q %q %d %d ok=%v)",
					op, sha, kind, size, last, text, line, op2, sha2, kind2, size2, last2, ok2)
			}
		}
	})
}

// FuzzReplayJournal opens a store over a fixed set of objects and an
// arbitrary journal.log. Open must not panic, and the kinds, access
// times and recency order of the index must be those of an oracle that
// splits the journal on '\n' and applies, in order, every line
// parseJournalLine accepts for a live object. GC then compacts the
// journal, and the store reopened after it must hold the same order
// and access times, with each kind read from its artifact.
func FuzzReplayJournal(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var keys []key.Key
	var shas []string
	for x := int64(1); x <= 3; x++ {
		k, err := key.Of(&key.Query{Kind: key.KindSimulate, Spec: key.Spec{Protocol: "flock", Param: 4}, Simulate: &key.SimulateParams{X: x}})
		if err != nil {
			f.Fatal(err)
		}
		if _, _, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, func(context.Context) (json.RawMessage, error) {
			return result(x), nil
		}); err != nil {
			f.Fatal(err)
		}
		keys, shas = append(keys, k), append(shas, k.SHA)
	}
	// A read hit journals a get line after the puts.
	if a, err := s.Get(context.Background(), keys[0]); err != nil || a == nil {
		f.Fatalf("read back %s: %v", keys[0].Short(), err)
	}
	// Distinct mtimes fix the scan order the journal is replayed over:
	// shas[0] oldest.
	mtimes := make(map[string]int64, len(shas))
	for i, sha := range shas {
		mtime := time.Unix(1700000000+int64(i), 0)
		if err := os.Chtimes(filepath.Join(dir, "objects", sha[:2], sha+".json"), mtime, mtime); err != nil {
			f.Fatal(err)
		}
		mtimes[sha] = mtime.Unix()
	}
	journalPath := filepath.Join(dir, "journal.log")
	written, err := os.ReadFile(journalPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add(written[:len(written)-5]) // torn tail
	f.Add(append(append(bytes.Repeat([]byte("x"), 70<<10), '\n'), written...))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, journal []byte) {
		if err := os.WriteFile(journalPath, journal, 0o644); err != nil {
			t.Fatal(err)
		}

		// The oracle: scan order, newest first, then each accepted line
		// moves its live object to the front.
		var want []object
		for _, sha := range shas {
			want = append([]object{{sha: sha, last: mtimes[sha]}}, want...)
		}
		for _, line := range strings.Split(string(journal), "\n") {
			op, sha, kind, _, last, ok := parseJournalLine(line)
			if !ok || (op != "put" && op != "get") {
				continue
			}
			for i, o := range want {
				if o.sha != sha {
					continue
				}
				if kind != "" {
					o.kind = kind
				}
				o.last = max(o.last, last)
				want = append(append([]object{o}, want[:i]...), want[i+1:]...)
				break
			}
		}
		check := func(when string, kind func(object) string) {
			got := evictionOrder(t, dir)
			if len(got) != len(want) {
				t.Fatalf("%s: index holds %d objects, want %d", when, len(got), len(want))
			}
			for i, w := range want {
				w.kind = kind(w)
				if g := got[len(got)-1-i]; g != w {
					t.Fatalf("%s: recency rank %d: index %+v, oracle %+v", when, i, g, w)
				}
			}
		}
		check("open", func(o object) string { return o.kind })
		if _, err := GC(dir, GCOptions{FS: noSyncFS{faultfs.OS()}}); err != nil {
			t.Fatal(err)
		}
		check("open after gc", func(object) string { return key.KindSimulate })
	})
}

// noSyncFS skips every fsync. The fuzz checks what GC writes, not that
// it is durable, and a sync per input would starve the fuzzer.
type noSyncFS struct{ faultfs.FS }

func (n noSyncFS) WriteFileSync(name string, data []byte, perm fs.FileMode) error {
	return n.FS.WriteFile(name, data, perm)
}

func (noSyncFS) SyncDir(string) error { return nil }
