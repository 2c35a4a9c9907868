package conf

import "testing"

func TestEnumerateTotal(t *testing.T) {
	s := MustSpace("a", "b", "c")
	var seen []string
	err := EnumerateTotal(s, 2, func(c Config) bool {
		if c.Agents() != 2 {
			t.Errorf("config %v has %d agents, want 2", c, c.Agents())
		}
		seen = append(seen, c.Key())
		return true
	})
	if err != nil {
		t.Fatalf("EnumerateTotal: %v", err)
	}
	// C(2+3-1, 3-1) = C(4,2) = 6 compositions.
	if len(seen) != 6 {
		t.Fatalf("enumerated %d configs, want 6", len(seen))
	}
	uniq := make(map[string]bool, len(seen))
	for _, k := range seen {
		if uniq[k] {
			t.Fatal("duplicate configuration enumerated")
		}
		uniq[k] = true
	}
}

func TestEnumerateTotalStops(t *testing.T) {
	s := MustSpace("a", "b")
	count := 0
	_ = EnumerateTotal(s, 5, func(Config) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestEnumerateTotalNegative(t *testing.T) {
	if err := EnumerateTotal(MustSpace("a"), -1, func(Config) bool { return true }); err == nil {
		t.Fatal("negative total accepted")
	}
}

func TestCountTotal(t *testing.T) {
	tests := []struct {
		d     int
		total int64
		want  int64
	}{
		{3, 2, 6},
		{2, 3, 4},
		{1, 5, 1},
		{0, 0, 1},
		{0, 3, 0},
		{4, 0, 1},
	}
	for _, tc := range tests {
		if got := CountTotal(tc.d, tc.total); got != tc.want {
			t.Errorf("CountTotal(%d,%d) = %d, want %d", tc.d, tc.total, got, tc.want)
		}
	}
}

func TestCountTotalMatchesEnumeration(t *testing.T) {
	s := MustSpace("a", "b", "c", "d")
	for total := int64(0); total <= 5; total++ {
		var n int64
		_ = EnumerateTotal(s, total, func(Config) bool { n++; return true })
		if want := CountTotal(s.Len(), total); n != want {
			t.Errorf("total %d: enumerated %d, CountTotal %d", total, n, want)
		}
	}
}

func TestCountTotalSaturates(t *testing.T) {
	const maxInt64 = int64(^uint64(0) >> 1)
	if got := CountTotal(40, 1_000_000_000_000); got != maxInt64 {
		t.Errorf("CountTotal overflow = %d, want saturation", got)
	}
}
