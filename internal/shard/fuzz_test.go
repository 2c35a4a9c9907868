package shard

import (
	"os"
	"testing"
)

// FuzzDecodeCellLine fuzzes the one cell decoder behind streamed
// deltas, ReadCellFile and the executor's partial loader. It never
// panics; every document it accepts is a non-empty trial range whose
// statistics cover it exactly; and re-sealing an accepted cell yields
// a line that decodes to the same cell and statistics.
func FuzzDecodeCellLine(f *testing.F) {
	golden, err := os.ReadFile("testdata/cell-x2-t0-6.prechecksum.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	legacy, err := DecodeCellLine(golden)
	if err != nil {
		f.Fatal(err)
	}
	big := *legacy
	big.Cell = Cell{X: 16, TrialLo: 6, TrialHi: 9}
	big.Stats.Trials = 3
	big.Stats.SumSteps = 1 << 62
	empty := *legacy
	empty.Cell = Cell{X: 2, TrialLo: 5, TrialHi: 5}
	empty.Stats.Trials = 0
	for _, ca := range []CellArtifact{*legacy, big, empty} {
		line, err := SealCellLine(&ca)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		f.Add(line[:len(line)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ca, err := DecodeCellLine(data)
		if err != nil {
			return
		}
		c := ca.Cell
		if c.TrialLo < 0 || c.TrialHi <= c.TrialLo || ca.Stats.Trials != c.TrialHi-c.TrialLo {
			t.Fatalf("accepted cell %+v with %d trials", c, ca.Stats.Trials)
		}
		line, err := SealCellLine(ca)
		if err != nil {
			t.Fatalf("accepted cell does not re-seal: %v", err)
		}
		back, err := DecodeCellLine(line)
		if err != nil {
			t.Fatalf("re-sealed cell rejected: %v\n%s", err, line)
		}
		if back.Cell != c || back.Stats != ca.Stats {
			t.Fatalf("re-seal changed the cell: %+v %+v, was %+v %+v", back.Cell, back.Stats, c, ca.Stats)
		}
	})
}
