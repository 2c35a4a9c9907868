package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the E1–E11a golden")

// tablesGolden holds every cell of E1–E11a but their timing columns,
// one tab-separated line per header or row, each led by its table id.
var tablesGolden = filepath.Join("testdata", "tables.golden.tsv")

// Each experiment must produce a non-empty, well-formed table whose
// internal bound checks (enforced inside the experiment functions) all
// pass, and E1–E11a must reproduce the golden cell for cell. This is
// the integration test that every reproduction claim can be
// regenerated.
func TestAllExperiments(t *testing.T) {
	idx := Index()
	if len(idx) != 15 {
		t.Fatalf("experiments = %d, want 15", len(idx))
	}
	seen := make(map[string]bool)
	var pinned []*Table // E1–E11a: the E12 replays are timings throughout
	for _, e := range idx {
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tbl.ID != e.ID {
			t.Errorf("Index entry %s produced table %s", e.ID, tbl.ID)
		}
		if tbl.ID == "" || tbl.Title == "" || tbl.Claim == "" {
			t.Errorf("table %q missing metadata", tbl.ID)
		}
		if seen[tbl.ID] {
			t.Errorf("duplicate experiment id %q", tbl.ID)
		}
		seen[tbl.ID] = true
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.ID)
		}
		for ri, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Errorf("%s row %d: %d cells for %d columns", tbl.ID, ri, len(row), len(tbl.Header))
			}
		}
		out := tbl.Render()
		if !strings.Contains(out, tbl.ID) || !strings.Contains(out, "claim:") {
			t.Errorf("%s: Render missing metadata:\n%s", tbl.ID, out)
		}
		if tbl.Verdict == "" {
			t.Errorf("%s: missing verdict", tbl.ID)
		}
		for _, c := range tbl.Timing {
			if !slices.Contains(tbl.Header, c) {
				t.Errorf("%s: timing column %q not in the header", tbl.ID, c)
			}
		}
		if !strings.HasPrefix(tbl.ID, "E12") {
			pinned = append(pinned, tbl)
		}
	}
	checkTablesGolden(t, pinned)
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E11a", "E12", "E12w"} {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

// checkTablesGolden compares the tables with tablesGolden, rewriting
// it first under -update. Timing cells are written as "*" and never
// compared; a mismatch names the table, row and column.
func checkTablesGolden(t *testing.T, tables []*Table) {
	t.Helper()
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.ID + "\t" + strings.Join(tbl.Header, "\t") + "\n")
		for _, row := range tbl.Rows {
			b.WriteString(tbl.ID)
			for ci, c := range row {
				if slices.Contains(tbl.Timing, tbl.Header[ci]) {
					c = "*"
				}
				b.WriteString("\t" + c)
			}
			b.WriteByte('\n')
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(tablesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablesGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := map[string][][]string{} // by table id: header, then rows
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Split(line, "\t")
		want[f[0]] = append(want[f[0]], f[1:])
	}
	for _, tbl := range tables {
		w := want[tbl.ID]
		if len(w) == 0 || !slices.Equal(w[0], tbl.Header) {
			t.Errorf("%s: header %q, golden %q", tbl.ID, tbl.Header, w)
			continue
		}
		if len(w)-1 != len(tbl.Rows) {
			t.Errorf("%s: %d rows, golden %d", tbl.ID, len(tbl.Rows), len(w)-1)
			continue
		}
		for ri, row := range tbl.Rows {
			for ci, c := range row {
				if slices.Contains(tbl.Timing, tbl.Header[ci]) {
					continue
				}
				if ci >= len(w[ri+1]) || w[ri+1][ci] != c {
					t.Errorf("%s row %d column %q: %q, golden row %q", tbl.ID, ri, tbl.Header[ci], c, w[ri+1])
				}
			}
		}
		delete(want, tbl.ID)
	}
	for id := range want {
		t.Errorf("golden table %s was not produced", id)
	}
}

func TestE1Specifics(t *testing.T) {
	tbl, err := E1StateCounts()
	if err != nil {
		t.Fatalf("E1: %v", err)
	}
	// The n = 16 row must carry a tower entry (16 = 2^(2^2)).
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "16" {
			found = true
			if row[len(row)-1] == "-" {
				t.Error("n=16 should have a tower state count")
			}
		}
	}
	if !found {
		t.Error("n=16 row missing")
	}
}

func TestE3Shape(t *testing.T) {
	tbl, err := E3Gap()
	if err != nil {
		t.Fatalf("E3: %v", err)
	}
	// The upper-bound column must grow linearly in k while the
	// asymptotic lower bound grows sublinearly: last row UB/LB ratio
	// larger than first meaningful row's.
	if len(tbl.Rows) < 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestRingControlNet(t *testing.T) {
	for _, size := range []int{2, 5, 9} {
		net, err := ringControlNet(size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !net.StronglyConnected() {
			t.Errorf("size %d: not strongly connected", size)
		}
	}
}
