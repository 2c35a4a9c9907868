package bounds

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

// Each query here once hung, panicked, reported ±Inf or ran for
// seconds; Check must reject it, naming why.
func TestCheckRejects(t *testing.T) {
	cases := []struct {
		q    Query
		want string
	}{
		{Query{Op: "nope"}, "unknown op"},
		// log10 of a negative base: the state search never ended.
		{Query{Op: "minstates", Log10N: 9, M: -1}, "m must lie in"},
		{Query{Op: "minstates", Log10N: 9, M: 0}, "m must be ≥ 1"},
		{Query{Op: "minstates", Log10N: math.Inf(1), M: 2}, "log10n must be finite"},
		{Query{Op: "minstates", Log10N: math.NaN(), M: 2}, "log10n must be finite"},
		// Non-positive table sizes panicked in makeslice.
		{Query{Op: "thm43", D: -1, W: 2, L: 2}, "d must be ≥ 1"},
		{Query{Op: "thm43", D: 0, W: 2, L: 2}, "d must be ≥ 1"},
		{Query{Op: "cor44", KMax: -3, H: 0.49, M: 2}, "kmax must be ≥ 1"},
		{Query{Op: "rackoff", D: 0, T: 1, R: 1}, "d must be ≥ 1"},
		{Query{Op: "section8", D: 1, T: 2, L: 2}, "d must be ≥ 2"},
		// +Inf rows failed json.Marshal and struck the breaker.
		{Query{Op: "thm43", D: 15, W: 2, L: 2}, "thm43 row d=15: the exponent exceeds"},
		{Query{Op: "rackoff", D: 200, T: 1, R: 1}, "rackoff d=200: the exponent exceeds"},
		{Query{Op: "cor44", KMax: 1024, H: 0.49, M: 2}, "cor44 row k=1024"},
		// Large sizes ran for seconds (thm43 row 2000: 3.9 s).
		{Query{Op: "thm43", D: 2000, W: 2, L: 2}, "exponent exceeds"},
		{Query{Op: "section8", D: 100, T: 2, L: 2}, "exponent exceeds"},
		{Query{Op: "cor44", KMax: 1 << 30, H: 0.49, M: 2}, "cor44 row"},
		// log10 is 0 for every d, yet d^d was built exactly.
		{Query{Op: "rackoff", D: 1000, T: 1, R: 0}, "exponent exceeds"},
		// A zero base reports log10 −Inf.
		{Query{Op: "rackoff", D: 5, T: 0, R: 0}, "not a finite float64"},
		// Out-of-domain norms and exponents.
		{Query{Op: "thm43", D: 4, W: -5, L: 2}, "w must lie in"},
		{Query{Op: "section8", D: 4, T: MaxNorm + 1, L: 2}, "t must lie in"},
		{Query{Op: "rackoff", D: 4, T: 1, R: -1}, "r must lie in"},
		{Query{Op: "cor44", KMax: 5, H: 0.5, M: 2}, "h must lie in (0, 1/2)"},
		{Query{Op: "cor44", KMax: 5, H: 0, M: 2}, "h must lie in (0, 1/2)"},
		{Query{Op: "cor44", KMax: 5, H: math.NaN(), M: 2}, "h must lie in (0, 1/2)"},
	}
	for _, c := range cases {
		err := c.q.Check()
		if err == nil || !strings.HasPrefix(err.Error(), "bounds: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Check() = %v, want an error containing %q", c.q, err, c.want)
		}
	}
}

// The ppbounds flag defaults and the queries the serving benchmark
// sends are all in the domain.
func TestCheckAcceptsDefaults(t *testing.T) {
	for _, q := range []Query{
		{Op: "thm43", D: 10, W: 2, L: 2},
		{Op: "thm43", D: 6, W: 2, L: 2},
		{Op: "minstates", Log10N: 9, M: 2},
		{Op: "minstates", Log10N: 10.000001, M: 2},
		{Op: "minstates", Log10N: -3, M: 1},
		{Op: "cor44", KMax: 20, H: 0.49, M: 2},
		{Op: "cor44", KMax: 12, H: 0.49, M: 2},
		{Op: "rackoff", D: 5, T: 1, R: 1},
		{Op: "section8", D: 4, T: 2, L: 2},
	} {
		if err := q.Check(); err != nil {
			t.Errorf("%+v: %v", q, err)
		}
	}
}

// Check accepts exactly the queries whose evaluation stays in range:
// every exponent a bound builds is at most 10^308, and every reported
// number is finite (and, for log10s, at most MaxLog10). Each family is
// swept past its first rejected size, with the exponents built exactly
// and the values taken from the evaluation itself.
func TestCheckMatchesEvaluation(t *testing.T) {
	limit := new(big.Int).Exp(big.NewInt(10), big.NewInt(308), nil)
	expOK := func(e *big.Int) bool { return e.Cmp(limit) <= 0 }
	log10OK := func(l float64) bool { return !math.IsInf(l, 0) && !math.IsNaN(l) && l <= MaxLog10 }
	pow := func(b, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(b), big.NewInt(e), nil) }
	// sweep checks that Check accepts q(size) iff every row up to size
	// is in range, for size in [lo, hi].
	sweep := func(name string, lo, hi int, q func(size int) Query, rowOK func(row int) bool) {
		t.Helper()
		ok, accepted := true, 0
		for size := lo; size <= hi; size++ {
			ok = ok && rowOK(size)
			if err := q(size).Check(); (err == nil) != ok {
				t.Errorf("%s size %d: Check() = %v, evaluation in range: %v", name, size, err, ok)
			}
			if ok {
				accepted = size
			}
		}
		if accepted == 0 || accepted == hi {
			t.Errorf("%s: sweep [%d, %d] does not cross the boundary (last accepted %d)", name, lo, hi, accepted)
		}
	}

	for _, n := range [][2]int64{{2, 2}, {0, 0}, {MaxNorm, MaxNorm}} {
		w, l := n[0], n[1]
		sweep("thm43", 1, 17, func(d int) Query { return Query{Op: "thm43", D: d, W: w, L: l} }, func(d int) bool {
			return expOK(pow(int64(d), int64((d+2)*(d+2)))) && log10OK(Theorem43MaxN(d, w, l).Log10())
		})
	}
	for _, n := range [][2]int64{{1, 1}, {12, 1}, {1, 0}, {MaxNorm, MaxNorm}} {
		tn, rn := n[0], n[1]
		sweep("rackoff", 1, 146, func(d int) Query { return Query{Op: "rackoff", D: d, T: tn, R: rn} }, func(d int) bool {
			return expOK(pow(int64(d), int64(d))) && log10OK(Rackoff(d, rn, tn).Log10())
		})
	}
	for _, n := range [][2]int64{{2, 2}, {0, 0}, {MaxNorm, MaxNorm}} {
		tn, l := n[0], n[1]
		sweep("section8", 2, 19, func(d int) Query { return Query{Op: "section8", D: d, T: tn, L: l} }, func(d int) bool {
			bigD := pow(int64(d-1), int64(d-1))
			e := new(big.Int).Exp(new(big.Int).Add(big.NewInt(2), bigD), big.NewInt(int64(d)), nil)
			e.Mul(e.Add(e, big.NewInt(1)), bigD)
			if !expOK(e) {
				return false
			}
			s, err := NewSection8(d, tn, l)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []Magnitude{s.B, s.H, s.K, s.A, s.L, s.N} {
				if !log10OK(m.Log10()) {
					return false
				}
			}
			return true
		})
	}
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	sweep("cor44", 1000, 1030, func(k int) Query { return Query{Op: "cor44", KMax: k, H: 0.49, M: 2} }, func(k int) bool {
		return finite(Corollary44LowerBound(math.Pow(2, float64(k)), 0.49, 2))
	})
}
