package bounds

import (
	"fmt"
	"math"
)

// MaxNorm bounds every norm parameter (w, l, t, r, m). It is far above
// the norm of any protocol built here, and keeps every base a bound
// raises (at most 4 + 4w + 2l) an exact int64 and float64.
const MaxNorm = 1 << 40

// MaxLog10 bounds the log10 of every value a query reports and every
// exponent a bound raises to. It sits under float64's 1.8e308 by a
// margin float rounding cannot cross, so an accepted query never
// reports ±Inf, and the exact exponents a bound builds have at most
// 309 digits.
const MaxLog10 = 1e308

// Check is the one domain rule of the bounds queries. It rejects an
// unknown op, a non-positive size, a norm outside [0, MaxNorm] (m and
// h have the narrower domains their results need), and any query with
// a row, value or exponent whose log10 is not a finite float64 at most
// MaxLog10. Everything is decided in float64 arithmetic before any
// big.Int is built, so Check is cheap on any input, and the evaluation
// of an accepted query takes bounded time and reports finite numbers.
func (q Query) Check() error {
	if err := q.norms(); err != nil {
		return err
	}
	switch q.Op {
	case "thm43":
		if q.D < 1 {
			return fmt.Errorf("bounds: thm43: d must be ≥ 1, got %d", q.D)
		}
		// Rows grow with d, so the last row decides.
		d := float64(q.D)
		return checkPow(fmt.Sprintf("thm43 row d=%d", q.D), 4+4*q.W+2*q.L, math.Pow(d, (d+2)*(d+2)))
	case "minstates":
		// m enters as the base 4+6m here and as log log 10m in cor44.
		if q.M < 1 {
			return fmt.Errorf("bounds: minstates: m must be ≥ 1, got %d", q.M)
		}
		if math.IsNaN(q.Log10N) || math.IsInf(q.Log10N, 0) {
			return fmt.Errorf("bounds: minstates: log10n must be finite, got %g", q.Log10N)
		}
		return nil
	case "cor44":
		if q.M < 1 {
			return fmt.Errorf("bounds: cor44: m must be ≥ 1, got %d", q.M)
		}
		if q.KMax < 1 {
			return fmt.Errorf("bounds: cor44: kmax must be ≥ 1, got %d", q.KMax)
		}
		if !(q.H > 0 && q.H < 0.5) {
			return fmt.Errorf("bounds: cor44: h must lie in (0, 1/2), got %g", q.H)
		}
		// Row k takes log2 n = 2^k as a float64.
		if log2N := math.Pow(2, float64(q.KMax)); !(log2N <= MaxLog10) {
			return fmt.Errorf("bounds: cor44 row k=%d: log2 n = 2^%d exceeds %g", q.KMax, q.KMax, MaxLog10)
		}
		return nil
	case "rackoff":
		if q.D < 1 {
			return fmt.Errorf("bounds: rackoff: d must be ≥ 1, got %d", q.D)
		}
		d := float64(q.D)
		return checkPow(fmt.Sprintf("rackoff d=%d", q.D), q.T+q.R, math.Pow(d, d))
	case "section8":
		if q.D < 2 {
			return fmt.Errorf("bounds: section8: d must be ≥ 2, got %d", q.D)
		}
		// b = base^e with e = D·(1 + (2+D)^d), D = (d−1)^(d−1); the
		// largest stage is n = h^(5d²+2d+4) with h = d(1+‖T‖∞)·b.
		what := fmt.Sprintf("section8 d=%d", q.D)
		d := float64(q.D)
		bigD := math.Pow(d-1, d-1)
		e := bigD * (1 + math.Pow(2+bigD, d))
		if err := checkPow(what, 4+4*q.T+2*q.L, e); err != nil {
			return err
		}
		logH := e*math.Log10(float64(4+4*q.T+2*q.L)) + math.Log10(d*(1+float64(q.T)))
		return checkLog10(what+" stage n", logH*(5*d*d+2*d+4))
	default:
		return fmt.Errorf("bounds: unknown op %q (have thm43, minstates, cor44, rackoff, section8)", q.Op)
	}
}

// norms checks the norm parameters of every op: a field an op does not
// take is zero and passes.
func (q Query) norms() error {
	for _, n := range [...]struct {
		name string
		v    int64
	}{{"w", q.W}, {"l", q.L}, {"t", q.T}, {"r", q.R}, {"m", q.M}} {
		if n.v < 0 || n.v > MaxNorm {
			return fmt.Errorf("bounds: %s: %s must lie in [0, %d], got %d", q.Op, n.name, int64(MaxNorm), n.v)
		}
	}
	return nil
}

// checkPow accepts base^exp when the exponent, given as a float64
// (+Inf past range), and log10(base^exp) are both finite and at most
// MaxLog10. A zero base has log10 −Inf and is rejected too.
func checkPow(what string, base int64, exp float64) error {
	if !(exp <= MaxLog10) {
		return fmt.Errorf("bounds: %s: the exponent exceeds %g", what, MaxLog10)
	}
	return checkLog10(what, exp*math.Log10(float64(base)))
}

// checkLog10 accepts a log10 that is finite and at most MaxLog10.
func checkLog10(what string, l float64) error {
	if math.IsInf(l, -1) || math.IsNaN(l) || !(l <= MaxLog10) {
		return fmt.Errorf("bounds: %s: log10 of the value is %g, not a finite float64 at most %g", what, l, MaxLog10)
	}
	return nil
}
