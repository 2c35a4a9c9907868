// Package bounds evaluates every quantitative bound of Leroux (PODC
// 2022) exactly (math/big) where feasible and in log10 form always:
// Rackoff's coverability bound (Lemma 5.3), the stabilization threshold
// (Lemma 5.4), the bottom-configuration bound b (Theorem 6.1), the
// small-cycle bounds (Lemmas 7.2, 7.3), the Section 8 cascade
// (b, h, k, a, ℓ, r) and the headline Theorem 4.3 / Corollary 4.4
// bounds.
//
// The right-hand sides overflow float64 and even practical big.Int
// sizes quickly — Theorem 4.3's bound for |P| = 10 has ~10³ digits, and
// Rackoff's bound for |P| = 10 has ~10¹⁰ digits — so the package
// represents every quantity as a Magnitude: an always-available log10
// plus an exact big.Int when it fits.
package bounds

import (
	"fmt"
	"math"
	"math/big"
)

// MaxExactDigits is the largest decimal size for which Magnitudes carry
// exact big.Int values.
const MaxExactDigits = 100_000

// Magnitude is a non-negative quantity that may be too large to
// materialize. Log10 is always valid; Exact is present only when the
// value has at most MaxExactDigits decimal digits.
type Magnitude struct {
	log10 float64
	exact *big.Int
}

// FromInt builds an exact magnitude from a non-negative int64.
func FromInt(n int64) Magnitude {
	if n < 0 {
		panic(fmt.Sprintf("bounds: negative magnitude %d", n))
	}
	return FromBig(big.NewInt(n))
}

// FromBig builds an exact magnitude from a non-negative big.Int.
func FromBig(n *big.Int) Magnitude {
	if n.Sign() < 0 {
		panic("bounds: negative magnitude")
	}
	return Magnitude{log10: bigLog10(n), exact: new(big.Int).Set(n)}
}

// FromLog10 builds an inexact magnitude from its decimal logarithm.
func FromLog10(l float64) Magnitude {
	return Magnitude{log10: l}
}

// fromBigOwned is FromBig for freshly computed values whose ownership
// the caller cedes: it skips the defensive copy, which matters for the
// ~10⁵-digit exact bounds.
func fromBigOwned(n *big.Int) Magnitude {
	if n.Sign() < 0 {
		panic("bounds: negative magnitude")
	}
	return Magnitude{log10: bigLog10(n), exact: n}
}

// Log10 returns log10 of the value (−Inf for zero).
func (m Magnitude) Log10() float64 { return m.log10 }

// Exact returns the exact value if it is materialized.
func (m Magnitude) Exact() (*big.Int, bool) {
	if m.exact == nil {
		return nil, false
	}
	return new(big.Int).Set(m.exact), true
}

// IsExact reports whether the magnitude carries an exact value.
func (m Magnitude) IsExact() bool { return m.exact != nil }

// Cmp compares the magnitude with a big.Int: −1, 0, +1. For inexact
// magnitudes the comparison uses log10 and is reliable away from
// equality (the use case: astronomically separated bounds).
func (m Magnitude) Cmp(n *big.Int) int {
	if m.exact != nil {
		return m.exact.Cmp(n)
	}
	nl := bigLog10(n)
	switch {
	case m.log10 < nl:
		return -1
	case m.log10 > nl:
		return 1
	default:
		return 0
	}
}

// GeqInt reports m ≥ n for an int64 n.
func (m Magnitude) GeqInt(n int64) bool { return m.Cmp(big.NewInt(n)) >= 0 }

// String renders the exact value when small, else "~1e<log10>".
func (m Magnitude) String() string {
	if m.exact != nil {
		if m.exact.BitLen() <= 64 {
			return m.exact.String()
		}
		return fmt.Sprintf("%s (~1e%.0f)", shortBig(m.exact), m.log10)
	}
	return fmt.Sprintf("~1e%.3g", m.log10)
}

// Pow returns base^exp as a Magnitude: exact when the result is small
// enough, log10 otherwise. base must be ≥ 0 and exp ≥ 0.
func Pow(base int64, exp *big.Int) Magnitude {
	if base < 0 || exp.Sign() < 0 {
		panic("bounds: negative base or exponent")
	}
	if base == 0 {
		if exp.Sign() == 0 {
			return FromInt(1)
		}
		return FromInt(0)
	}
	logResult := float64FromBig(exp) * math.Log10(float64(base))
	if logResult <= MaxExactDigits && exp.IsInt64() {
		return fromBigOwned(new(big.Int).Exp(big.NewInt(base), exp, nil))
	}
	return FromLog10(logResult)
}

// PowInt is Pow with an int64 exponent.
func PowInt(base, exp int64) Magnitude { return Pow(base, big.NewInt(exp)) }

// MulInt returns m·n for a non-negative int64.
func (m Magnitude) MulInt(n int64) Magnitude {
	if n < 0 {
		panic("bounds: negative multiplier")
	}
	if m.exact != nil {
		prod := new(big.Int).Mul(m.exact, big.NewInt(n))
		if bigLog10(prod) <= MaxExactDigits {
			return FromBig(prod)
		}
		return FromLog10(bigLog10(prod))
	}
	if n == 0 {
		return FromInt(0)
	}
	return FromLog10(m.log10 + math.Log10(float64(n)))
}

// bigLog10 approximates log10 of a non-negative big.Int (−Inf for 0).
func bigLog10(n *big.Int) float64 {
	if n.Sign() == 0 {
		return math.Inf(-1)
	}
	// Use the bit length for scale and a float prefix for precision.
	f, _ := new(big.Float).SetInt(n).Float64()
	if !math.IsInf(f, 1) {
		return math.Log10(f)
	}
	bits := n.BitLen()
	// Take the top 52 bits as a float mantissa.
	shifted := new(big.Int).Rsh(n, uint(bits-52))
	mf, _ := new(big.Float).SetInt(shifted).Float64()
	return math.Log10(mf) + float64(bits-52)*math.Log10(2)
}

// float64FromBig converts saturating to +Inf.
func float64FromBig(n *big.Int) float64 {
	f, _ := new(big.Float).SetInt(n).Float64()
	return f
}

// shortBig renders a non-negative big.Int as its full decimal form when
// short, else as "<first 10>...<last 6> (<digits> digits)".
//
// Large values never run big.Int.String: the full decimal conversion of
// a ~10⁵-digit Theorem 4.3 bound dominated E2's cost. Instead the head
// is the quotient by 10^(digits−10) (one division whose quotient is
// tiny), the tail is one small modulus, and the digit count is taken
// from the float log10 estimate and corrected exactly by the head's
// range — so the rendering is identical to slicing the full string.
func shortBig(n *big.Int) string {
	if n.BitLen() <= 128 { // ≤ 39 digits: full conversion is cheap
		s := n.String()
		if len(s) <= 24 {
			return s
		}
		return s[:10] + "..." + s[len(s)-6:] + fmt.Sprintf(" (%d digits)", len(s))
	}
	digits := int(math.Floor(bigLog10(n))) + 1
	pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(digits-10)), nil)
	head := new(big.Int).Quo(n, pow)
	// The estimate can be off by one near powers of ten; the head's
	// range pins the exact digit count.
	switch {
	case head.Cmp(tenPow9) < 0: // digits overestimated
		digits--
		pow.Quo(pow, big.NewInt(10))
		head.Quo(n, pow)
	case head.Cmp(tenPow10) >= 0: // digits underestimated
		digits++
		head.Quo(head, big.NewInt(10))
	}
	tail := new(big.Int).Mod(n, tenPow6)
	return fmt.Sprintf("%d...%06d (%d digits)", head.Int64(), tail.Int64(), digits)
}

var (
	tenPow6  = big.NewInt(1_000_000)
	tenPow9  = big.NewInt(1_000_000_000)
	tenPow10 = big.NewInt(10_000_000_000)
)
