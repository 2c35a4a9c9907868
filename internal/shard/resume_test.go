package shard

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/faultfs"
	"repro/internal/sim"
)

// A full resumable run with a cold partials dir must produce exactly
// the Points of the plain runner, and leave one sealed partial per
// cell.
func TestRunResumableMatchesRun(t *testing.T) {
	m, err := PlanCostBlock(testSpec(), 2, UniformCost{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, counters, err := RunResumableStop(context.Background(), m, "s000", 0, dir, sim.StopRule{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Points, res.Points) {
		t.Errorf("resumable points differ from plain run:\n%+v\nvs\n%+v", plain.Points, res.Points)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "cell-") && strings.HasSuffix(e.Name(), ".json") {
			cells++
		}
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s", e.Name())
		}
	}
	spec, _ := m.Shard("s000")
	if cells != len(spec.Cells) {
		t.Errorf("%d cell partials persisted, want %d", cells, len(spec.Cells))
	}
	if counters.CellsComputed != len(spec.Cells) || counters.CellsLoaded != 0 {
		t.Errorf("cold run counters %+v, want %d computed / 0 loaded", counters, len(spec.Cells))
	}
	// Every persisted cell carries a verifying checksum.
	for _, c := range spec.Cells {
		data, err := os.ReadFile(filepath.Join(dir, cellFileName(c)))
		if err != nil {
			t.Fatal(err)
		}
		if err := canon.Verify(data); err != nil {
			t.Errorf("cell %s: %v, want sealed and verifying", cellFileName(c), err)
		}
	}
}

// The kill-mid-shard contract: a worker that dies after persisting k
// cells loses nothing but the cells in flight; a second attempt loads
// the k survivors and completes to the same artifact an uninterrupted
// run produces. A survivor corrupted in the meantime (torn write, bit
// rot) is quarantined into corrupt/ with a reason file and recomputed
// — never merged, never an error, never re-read forever.
func TestRunResumableKillResume(t *testing.T) {
	m, err := PlanCostBlock(testSpec(), 1, UniformCost{}, 0) // 4 cells, one per size
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var kc Counters
	kenv := newQueueEnv(nil, 0, 0, &kc)
	if _, err := runResumable(context.Background(), m, "s000", 0, dir, 2, kenv, sim.StopRule{}, nil); !errors.Is(err, errInjectedFailure) {
		t.Fatalf("injected failure not reported: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 2 {
		t.Fatalf("%d partials after dying at 2 cells, want 2", len(entries))
	}
	// Corrupt one survivor: the resume must notice (checksum/parse),
	// quarantine it and recompute that cell — while genuinely loading
	// the intact survivor, observable in the counters.
	spec, _ := m.Shard("s000")
	poison := filepath.Join(dir, cellFileName(spec.Cells[0]))
	if err := os.WriteFile(poison, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, counters, err := RunResumableStop(context.Background(), m, "s000", 0, dir, sim.StopRule{}, nil)
	if err != nil {
		t.Fatalf("resume over corrupt partial must recover, got %v", err)
	}
	if counters.Quarantined != 1 {
		t.Errorf("quarantined %d, want 1", counters.Quarantined)
	}
	if counters.CellsLoaded != 1 || counters.CellsComputed != 3 {
		t.Errorf("counters %+v, want 1 loaded (intact survivor) / 3 computed", counters)
	}
	qpath := filepath.Join(faultfs.CorruptDir(dir), cellFileName(spec.Cells[0]))
	if _, err := os.Stat(qpath); err != nil {
		t.Errorf("poisoned partial not quarantined at %s: %v", qpath, err)
	}
	if _, err := os.Stat(qpath + ".reason"); err != nil {
		t.Errorf("no reason file next to quarantined partial: %v", err)
	}
	plain, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Points, resumed.Points) {
		t.Errorf("kill+corrupt+resume points differ from uninterrupted run:\n%+v\nvs\n%+v", plain.Points, resumed.Points)
	}
}

// Partials from a different sweep (same directory reused for another
// plan) must fail loudly, not silently recompute or — worse — merge:
// unlike corruption, this is an operator mixup quarantining would
// mask.
func TestRunResumableRejectsForeignPartials(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 1, UniformCost{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := RunResumableStop(context.Background(), m, "s000", 0, dir, sim.StopRule{}, nil); err != nil {
		t.Fatal(err)
	}
	other := sw
	other.Seed++
	m2, err := PlanCostBlock(other, 1, UniformCost{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunResumableStop(context.Background(), m2, "s000", 0, dir, sim.StopRule{}, nil); err == nil {
		t.Error("partials of a different sweep accepted")
	}
}

// Tampered partials are caught and quarantined, by either tripwire: a
// content edit under an unchanged checksum mismatches the checksum,
// and a re-sealed partial whose stats do not cover its claimed range
// fails the internal-consistency check that mirrors Merge's.
func TestRunResumableQuarantinesTamperedPartial(t *testing.T) {
	for _, reseal := range []bool{false, true} {
		m, err := PlanCostBlock(testSpec(), 1, UniformCost{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		baseline, _, err := RunResumableStop(context.Background(), m, "s000", 0, dir, sim.StopRule{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := m.Shard("s000")
		path := filepath.Join(dir, cellFileName(spec.Cells[0]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var ca CellArtifact
		if err := json.Unmarshal(data, &ca); err != nil {
			t.Fatal(err)
		}
		ca.Stats.Trials-- // now inconsistent with the cell's range
		if reseal {
			// A valid checksum: the consistency check must catch it.
			data, err = canon.Seal(&ca, &ca.Checksum, true)
			if err == nil {
				_, err = decodeCell(data, path)
			}
			if err == nil || !strings.Contains(err.Error(), "stats aggregate") {
				t.Fatalf("re-sealed inconsistent partial: %v, want the stats check to reject it", err)
			}
		} else if data, err = json.MarshalIndent(&ca, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.AtomicWrite(faultfs.OS(), path, data); err != nil {
			t.Fatal(err)
		}
		res, counters, err := RunResumableStop(context.Background(), m, "s000", 0, dir, sim.StopRule{}, nil)
		if err != nil {
			t.Fatalf("reseal=%v: tampered partial must be quarantined and recomputed, got %v", reseal, err)
		}
		if counters.Quarantined != 1 {
			t.Errorf("reseal=%v: quarantined %d, want 1", reseal, counters.Quarantined)
		}
		if !reflect.DeepEqual(baseline.Points, res.Points) {
			t.Errorf("reseal=%v: recovered points differ from baseline", reseal)
		}
	}
}

// deadFS fails every call and counts it.
type deadFS struct{ calls atomic.Int64 }

func (f *deadFS) fail() error                                 { f.calls.Add(1); return syscall.EIO }
func (f *deadFS) ReadFile(string) ([]byte, error)             { return nil, f.fail() }
func (f *deadFS) WriteFile(string, []byte, fs.FileMode) error { return f.fail() }
func (f *deadFS) WriteFileSync(string, []byte, fs.FileMode) error {
	return f.fail()
}
func (f *deadFS) Append(string, []byte, fs.FileMode) error { return f.fail() }
func (f *deadFS) Rename(string, string) error              { return f.fail() }
func (f *deadFS) Link(string, string) error                { return f.fail() }
func (f *deadFS) Remove(string) error                      { return f.fail() }
func (f *deadFS) Stat(string) (fs.FileInfo, error)         { return nil, f.fail() }
func (f *deadFS) MkdirAll(string, fs.FileMode) error       { return f.fail() }
func (f *deadFS) SyncDir(string) error                     { return f.fail() }
func (f *deadFS) Now() time.Time                           { f.calls.Add(1); return time.Time{} }

// With no partials directory the executor touches no file: over a
// filesystem that fails every call it returns the same artifact as
// over the real one — stop rule and stopping fold included — and the
// filesystem records zero calls.
func TestExecutorWithoutDirTouchesNoFile(t *testing.T) {
	sw := stopSpec()
	m, err := PlanCostBlock(sw, 1, DefaultCost(sw.Scheduler), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []sim.StopRule{{}, stopRule()} {
		dead := &deadFS{}
		var c Counters
		got, err := runResumable(context.Background(), m, "s000", 0, "", 0, newQueueEnv(dead, 0, 0, &c), rule, nil)
		if err != nil {
			t.Fatalf("rule %+v over a dead FS: %v", rule, err)
		}
		want, err := runResumable(context.Background(), m, "s000", 0, "", 0, newQueueEnv(faultfs.OS(), 0, 0, nil), rule, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rule %+v: artifact over a dead FS differs from the real FS's", rule)
		}
		if n := dead.calls.Load(); n != 0 {
			t.Errorf("rule %+v: executor without a dir made %d filesystem calls", rule, n)
		}
		if rule.Enabled() && c.CellsStopped == 0 {
			t.Errorf("rule %+v: no cell skipped, the stopping fold went unexercised", rule)
		}
	}
}
