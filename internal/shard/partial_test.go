package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/faultfs"
	"repro/internal/sim"
)

// cellPoints runs every shard of a manifest in-process and returns the
// flattened cell-granularity points in plan order (size-major, trial
// order within a size — the order a single sequential worker would
// deliver them).
func cellPoints(t *testing.T, m *Manifest) []PartialPoint {
	t.Helper()
	byCell := make(map[Cell]sim.Stats)
	for _, spec := range m.Shards {
		a, err := Run(context.Background(), m, spec.ID, 0)
		if err != nil {
			t.Fatalf("Run(%s): %v", spec.ID, err)
		}
		for _, pt := range a.Points {
			byCell[Cell{X: pt.X, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi}] = pt.Stats
		}
	}
	var out []PartialPoint
	for _, x := range m.Sweep.Sizes {
		var cs []Cell
		for c := range byCell {
			if c.X == x {
				cs = append(cs, c)
			}
		}
		sortCellsByTrialLo(cs)
		for _, c := range cs {
			out = append(out, PartialPoint{X: c.X, TrialLo: c.TrialLo, TrialHi: c.TrialHi, Stats: byCell[c]})
		}
	}
	return out
}

// The prefix-validity property: every prefix of the cell stream merges
// into a schema-valid anytime document whose completeness counters are
// consistent, whose folded statistics cover exactly the trials they
// claim, and whose per-point means sit inside a widened confidence
// interval around the full run's mean. Deterministic seeds make the
// containment assertion exact rather than probabilistic.
func TestMergePartialEveryPrefix(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 3, DefaultCost(sw.Scheduler), 2)
	if err != nil {
		t.Fatal(err)
	}
	points := cellPoints(t, m)
	full, err := MergePartial(sw, points, sim.StopRule{})
	if err != nil {
		t.Fatal(err)
	}
	fullMean := make(map[int64]float64, len(full.Points))
	fullHalf := make(map[int64]float64, len(full.Points))
	for i := range full.Points {
		fullMean[full.Points[i].X] = full.Points[i].Stats.MeanSteps()
		fullHalf[full.Points[i].X] = full.Points[i].Stats.HalfCI95Steps()
	}
	for k := 0; k <= len(points); k++ {
		got, err := MergePartial(sw, points[:k], sim.StopRule{})
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		if got.Schema != ArtifactSchema || !reflect.DeepEqual(got.Sweep, sw) {
			t.Fatalf("prefix %d: schema/sweep mangled", k)
		}
		if len(got.Points) != len(sw.Sizes) {
			t.Fatalf("prefix %d: %d points, want one per size", k, len(got.Points))
		}
		doneTotal := 0
		for _, pt := range got.Points {
			done := sw.Trials
			if pt.TrialsPlanned > 0 {
				if pt.TrialsPlanned != sw.Trials {
					t.Fatalf("prefix %d x=%d: trials_planned %d, want %d", k, pt.X, pt.TrialsPlanned, sw.Trials)
				}
				done = pt.TrialsDone
			}
			if pt.Stats.Trials != done {
				t.Fatalf("prefix %d x=%d: stats cover %d trials, metadata says %d", k, pt.X, pt.Stats.Trials, done)
			}
			doneTotal += done
			// Widened-CI containment: partial mean within (partial + full)
			// half-widths of the full mean. With < 2 trials the partial CI
			// is undefined; skip those.
			if done >= 2 {
				gap := pt.Stats.MeanSteps() - fullMean[pt.X]
				if gap < 0 {
					gap = -gap
				}
				if width := pt.Stats.HalfCI95Steps() + fullHalf[pt.X]; gap > width {
					t.Errorf("prefix %d x=%d: partial mean %.2f vs full %.2f exceeds widened CI %.2f",
						k, pt.X, pt.Stats.MeanSteps(), fullMean[pt.X], width)
				}
			}
		}
		if k == len(points) {
			if got.Partial {
				t.Fatal("complete set still marked partial")
			}
		} else if doneTotal >= len(sw.Sizes)*sw.Trials {
			t.Fatalf("prefix %d: claims completeness with cells missing", k)
		}
	}
}

// Random subsets must merge without error, folding exactly the maximal
// gap-free prefix per size and never counting a cell that sits beyond
// a gap.
func TestMergePartialRandomSubsets(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 4, DefaultCost(sw.Scheduler), 2)
	if err != nil {
		t.Fatal(err)
	}
	points := cellPoints(t, m)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		var subset []PartialPoint
		for _, pt := range points {
			if rng.Intn(2) == 0 {
				subset = append(subset, pt)
			}
		}
		got, err := MergePartial(sw, subset, sim.StopRule{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Expected prefix per size, computed independently.
		want := make(map[int64]int, len(sw.Sizes))
		for _, x := range sw.Sizes {
			var cs []Cell
			for _, pt := range subset {
				if pt.X == x {
					cs = append(cs, Cell{X: x, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi})
				}
			}
			sortCellsByTrialLo(cs)
			done := 0
			for _, c := range cs {
				if c.TrialLo != done {
					break
				}
				done = c.TrialHi
			}
			want[x] = done
		}
		for _, pt := range got.Points {
			if pt.Stats.Trials != want[pt.X] {
				t.Fatalf("round %d x=%d: folded %d trials, want gap-free prefix %d", round, pt.X, pt.Stats.Trials, want[pt.X])
			}
		}
	}
}

// The full-completion invariant, the tentpole's headline property:
// MergePartial over the complete cell set marshals byte-identically to
// Merge's document, for every shard cut — and the bytes agree across
// cuts, because block dicing makes the cell grid cut-independent.
func TestMergePartialFullSetByteIdentical(t *testing.T) {
	sw := testSpec()
	var first []byte
	for _, cut := range []int{1, 2, 4, 7} {
		m, err := PlanCostBlock(sw, cut, DefaultCost(sw.Scheduler), 2)
		if err != nil {
			t.Fatal(err)
		}
		var arts []*Artifact
		for _, spec := range m.Shards {
			a, err := Run(context.Background(), m, spec.ID, 0)
			if err != nil {
				t.Fatal(err)
			}
			arts = append(arts, a)
		}
		merged, err := Merge(arts)
		if err != nil {
			t.Fatal(err)
		}
		wsw, pts, err := CollectPartial(arts, nil)
		if err != nil {
			t.Fatal(err)
		}
		anytime, err := MergePartial(wsw, pts, sim.StopRule{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(anytime, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: MergePartial over all cells differs from Merge:\n%s\nvs\n%s", cut, got, want)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("cut %d: merged bytes differ from cut 1", cut)
		}
	}
}

// CollectPartial accepts mixed shard artifacts and loose cell
// partials, and rejects cross-sweep and cross-schema mixes.
func TestCollectPartialSources(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 2, DefaultCost(sw.Scheduler), 3)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Run(context.Background(), m, "s001", 0)
	if err != nil {
		t.Fatal(err)
	}
	var cells []*CellArtifact
	for _, pt := range a1.Points {
		cells = append(cells, &CellArtifact{
			Schema: ArtifactSchema, Sweep: sw,
			Cell:  Cell{X: pt.X, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi},
			Stats: pt.Stats,
		})
	}
	wsw, pts, err := CollectPartial([]*Artifact{a0}, cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wsw, sw) {
		t.Fatal("collected sweep differs")
	}
	if got, err := MergePartial(wsw, pts, sim.StopRule{}); err != nil || got.Partial {
		t.Fatalf("artifact+cells covering the full grid should merge complete, got partial=%v err=%v", got != nil && got.Partial, err)
	}
	foreign := *cells[0]
	foreign.Sweep.Seed++
	if _, _, err := CollectPartial([]*Artifact{a0}, []*CellArtifact{&foreign}); err == nil {
		t.Error("cell of a different sweep accepted")
	}
	badSchema := *cells[0]
	badSchema.Schema = 99
	if _, _, err := CollectPartial(nil, []*CellArtifact{&badSchema}); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, _, err := CollectPartial(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

// MergePartial's error matrix: foreign sizes, malformed ranges,
// stats/range inconsistency, overlapping ranges, and exact duplicates
// with disagreeing stats (corrupt) vs agreeing stats (tolerated).
func TestMergePartialErrors(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 1, DefaultCost(sw.Scheduler), 2)
	if err != nil {
		t.Fatal(err)
	}
	points := cellPoints(t, m)
	mutate := func(f func([]PartialPoint) []PartialPoint) []PartialPoint {
		cp := append([]PartialPoint(nil), points...)
		return f(cp)
	}
	cases := []struct {
		name string
		pts  []PartialPoint
		want string
	}{
		{"foreign size", mutate(func(p []PartialPoint) []PartialPoint {
			p[0].X = 9999
			return p
		}), "does not contain"},
		{"inverted range", mutate(func(p []PartialPoint) []PartialPoint {
			p[0].TrialLo, p[0].TrialHi = p[0].TrialHi, p[0].TrialLo
			return p
		}), "invalid trial range"},
		{"stats mismatch", mutate(func(p []PartialPoint) []PartialPoint {
			p[0].Stats.Trials++
			return p
		}), "stats aggregate"},
		{"overlap", mutate(func(p []PartialPoint) []PartialPoint {
			q := p[1]
			q.TrialLo, q.TrialHi = q.TrialLo-1, q.TrialHi-1
			q.Stats = p[0].Stats
			return append(p, q)
		}), "overlap an earlier range"},
		{"disagreeing duplicate", mutate(func(p []PartialPoint) []PartialPoint {
			q := p[0]
			q.Stats.SumSteps++
			return append(p, q)
		}), "disagreeing statistics"},
	}
	for _, tc := range cases {
		if _, err := MergePartial(sw, tc.pts, sim.StopRule{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// The benign twin: an exact duplicate with identical stats folds
	// once and succeeds.
	dup := append(append([]PartialPoint(nil), points...), points[0])
	if got, err := MergePartial(sw, dup, sim.StopRule{}); err != nil || got.Partial {
		t.Errorf("agreeing duplicate rejected: partial=%v err=%v", got != nil && got.Partial, err)
	}
	if _, err := MergePartial(sw, points, sim.StopRule{TargetRelCI: 2}); err == nil {
		t.Error("invalid stop rule accepted")
	}
}

// SealCellLine / DecodeCellLine: the NDJSON delta round-trips, its
// checksum matches the indented on-disk form of the same cell, and a
// flipped byte is caught.
func TestCellLineRoundTrip(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 1, UniformCost{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(context.Background(), m, "s000", 0)
	if err != nil {
		t.Fatal(err)
	}
	pt := a.Points[0]
	ca := &CellArtifact{
		Schema: ArtifactSchema, Sweep: sw,
		Cell:  Cell{X: pt.X, TrialLo: pt.TrialLo, TrialHi: pt.TrialHi},
		Stats: pt.Stats, Host: a.Host,
	}
	line, err := SealCellLine(ca)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Fatal("sealed delta line contains a newline")
	}
	back, err := DecodeCellLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cell != ca.Cell || back.Stats != ca.Stats {
		t.Fatal("delta round-trip lost content")
	}
	// The same document indented verifies against the same checksum:
	// canonical checksums ignore whitespace.
	indented, err := json.MarshalIndent(ca, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCellLine(indented); err != nil {
		t.Fatalf("indented twin of a sealed delta rejected: %v", err)
	}
	bad := bytes.Replace(line, []byte(`"trials"`), []byte(`"trialz"`), 1)
	if _, err := DecodeCellLine(bad); err == nil {
		t.Error("tampered delta accepted")
	}
	var ce *corruptError
	if _, err := DecodeCellLine([]byte("{torn")); err == nil {
		t.Error("torn delta accepted")
	} else if !errors.As(err, &ce) {
		t.Errorf("torn delta classified %T, want corrupt", err)
	}
}

// ScanPartialDir gathers part-*.json and cell-*.json from a dispatch
// layout (cells under partials/) and fails loudly on corruption.
func TestScanPartialDir(t *testing.T) {
	sw := testSpec()
	m, err := PlanCostBlock(sw, 2, DefaultCost(sw.Scheduler), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Shard s000 finishes (part file); s001 leaves loose cells.
	a0, _, err := RunResumableStop(context.Background(), m, "s000", 0, PartialsDir(dir), sim.StopRule{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifact(DonePath(dir, "s000"), a0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunResumableStop(context.Background(), m, "s001", 0, PartialsDir(dir), sim.StopRule{}, nil); err != nil {
		t.Fatal(err)
	}
	arts, cells, err := ScanPartialDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 {
		t.Fatalf("%d artifacts scanned, want 1", len(arts))
	}
	wsw, pts, err := CollectPartial(arts, cells)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergePartial(wsw, pts, sim.StopRule{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("scan of a finished queue directory merged incomplete")
	}
	// A torn cell file fails the scan loudly.
	spec, _ := m.Shard("s001")
	poison := fmt.Sprintf("%s/%s", PartialsDir(dir), cellFileName(spec.Cells[0]))
	if err := faultfs.AtomicWrite(faultfs.OS(), poison, []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ScanPartialDir(dir); err == nil {
		t.Error("scan over a torn cell file succeeded")
	}
}

// A sealed cell file with an empty or negative trial range and zero
// trials is corrupt, exactly as the same document streamed as a delta
// is: ReadCellFile (and through it ScanPartialDir) rejects it at load
// time instead of deferring the failure to MergePartial.
func TestReadCellFileRejectsEmptyRange(t *testing.T) {
	for _, c := range []Cell{{X: 2, TrialLo: 5, TrialHi: 5}, {X: 2, TrialLo: -3, TrialHi: -3}} {
		dir := t.TempDir()
		ca := CellArtifact{Schema: ArtifactSchema, Sweep: testSpec(), Cell: c}
		data, err := canon.Seal(&ca, &ca.Checksum, true)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, cellFileName(c))
		if err := faultfs.AtomicWrite(faultfs.OS(), path, data); err != nil {
			t.Fatal(err)
		}
		var ce *corruptError
		if _, err := ReadCellFile(path); !errors.As(err, &ce) {
			t.Errorf("cell %+v: ReadCellFile err = %v, want corrupt", c, err)
		}
		if _, err := DecodeCellLine(data); !errors.As(err, &ce) {
			t.Errorf("cell %+v: DecodeCellLine err = %v, want corrupt", c, err)
		}
		if _, _, err := ScanPartialDir(dir); err == nil {
			t.Errorf("cell %+v: ScanPartialDir accepted it", c)
		}
	}
}
