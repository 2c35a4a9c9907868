package faultfs_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/faultfs"
	"repro/internal/serve/key"
	"repro/internal/serve/store"
	"repro/internal/shard"
)

// racingFS removes the source of every move into a corrupt/ directory
// just before the move, as a second process quarantining the same file
// first would.
type racingFS struct{ faultfs.FS }

func (r racingFS) Rename(oldname, newname string) error {
	if filepath.Base(filepath.Dir(newname)) == "corrupt" {
		os.Remove(oldname)
	}
	return r.FS.Rename(oldname, newname)
}

// quarantineCaller is one reader that quarantines what it cannot
// verify. plant writes a corrupt document where the reader looks and
// returns its path, its quarantine directory, and read, which makes
// the reader read it through fsys and returns the reader's quarantine
// count.
type quarantineCaller struct {
	name  string
	plant func(t *testing.T, root string) (path, qdir string, read func(fsys faultfs.FS) int)
}

func plantStoreObject(t *testing.T, root string) (string, key.Key) {
	k, err := key.Of(&key.Query{Kind: key.KindSimulate, Spec: key.Spec{Protocol: "flock", Param: 4},
		Simulate: &key.SimulateParams{X: 6}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(root, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := s.ObjectPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"schema": 1, "key": "sha256:`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, k
}

var quarantineCallers = []quarantineCaller{
	{"shard executor", func(t *testing.T, root string) (string, string, func(faultfs.FS) int) {
		m, err := shard.PlanCostBlock(shard.SweepSpec{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{2},
			Trials: 2, Seed: 1, MaxSteps: 50_000, Patience: 1_000}, 1, shard.UniformCost{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := m.Shards[0].Cells[0]
		dir := shard.PartialsDir(root)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("cell-x%d-t%d-%d.json", c.X, c.TrialLo, c.TrialHi))
		if err := os.WriteFile(path, []byte(`{"schema": 1, "cell": {"x"`), 0o644); err != nil {
			t.Fatal(err)
		}
		return path, filepath.Join(dir, "corrupt"), func(fsys faultfs.FS) int {
			res, err := shard.Dispatch(context.Background(), m, shard.DispatchOptions{Dir: root, FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			return res.Counters.Quarantined
		}
	}},
	{"Store.Get", func(t *testing.T, root string) (string, string, func(faultfs.FS) int) {
		path, k := plantStoreObject(t, root)
		return path, filepath.Join(root, "corrupt"), func(fsys faultfs.FS) int {
			s, err := store.Open(root, store.Options{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			if art, err := s.Get(context.Background(), k); art != nil || err != nil {
				t.Fatalf("Get of a corrupt artifact: %v, %v; want a miss", art, err)
			}
			return int(s.Counters().Quarantined)
		}
	}},
	{"store GC", func(t *testing.T, root string) (string, string, func(faultfs.FS) int) {
		path, _ := plantStoreObject(t, root)
		return path, filepath.Join(root, "corrupt"), func(fsys faultfs.FS) int {
			rep, err := store.GC(root, store.GCOptions{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Quarantined
		}
	}},
}

// Every reader quarantines through faultfs.Quarantine with one layout:
// the corrupt file moves to corrupt/<name>, or to <name>.2 when an
// earlier quarantine holds the name, with a .reason file beside it,
// counted once. A file another process moved first is no error, gets
// no .reason file and is not counted.
func TestQuarantineLayout(t *testing.T) {
	for _, c := range quarantineCallers {
		t.Run(c.name, func(t *testing.T) {
			for _, tc := range []struct {
				name      string
				collision bool
				racing    bool
			}{{"move", false, false}, {"collision", true, false}, {"vanished", false, true}} {
				root := t.TempDir()
				path, qdir, read := c.plant(t, root)
				dst := filepath.Join(qdir, filepath.Base(path))
				if tc.collision {
					if err := os.MkdirAll(qdir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(dst, []byte("earlier"), 0o644); err != nil {
						t.Fatal(err)
					}
					dst += ".2"
				}
				fsys := faultfs.OS()
				if tc.racing {
					fsys = racingFS{fsys}
				}
				got := read(fsys)
				// The executor recomputes the cell into the same path.
				if data, err := os.ReadFile(path); err == nil && canon.Verify(data) != nil {
					t.Errorf("%s: corrupt source still in place", tc.name)
				}
				_, dstErr := os.Stat(dst)
				_, reasonErr := os.Stat(dst + ".reason")
				if tc.racing {
					if got != 0 || !os.IsNotExist(dstErr) || !os.IsNotExist(reasonErr) {
						t.Errorf("%s: count %d, quarantined file %v, reason %v; want nothing", tc.name, got, dstErr, reasonErr)
					}
					continue
				}
				if got != 1 || dstErr != nil || reasonErr != nil {
					t.Errorf("%s: count %d, %s: %v, reason: %v; want 1 and both files", tc.name, got, dst, dstErr, reasonErr)
				}
				if tc.collision {
					if data, _ := os.ReadFile(strings.TrimSuffix(dst, ".2")); string(data) != "earlier" {
						t.Errorf("%s: earlier quarantine overwritten: %q", tc.name, data)
					}
				}
			}
		})
	}
}
