package sim

import (
	"math"
	"math/bits"
)

// splitmixGamma is the splitmix64 stream increment (the golden gamma).
const splitmixGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output finalizer: the single source of the
// mixing constants shared by the RNG stream and seed derivation.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is the simulator's seed-deterministic PRNG: a splitmix64 stream.
// Unlike math/rand's lagged-Fibonacci source, seeding is O(1) — which
// matters because RunMany gives every trial its own derived seed, so
// with short runs source construction would otherwise dominate (it was
// ~28% of simulation CPU under math/rand).
type RNG struct{ s uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG { return &RNG{s: uint64(seed)} }

// Seed resets the generator to the given seed.
func (r *RNG) Seed(seed int64) { r.s = uint64(seed) }

// Uint64 returns the next 64 uniform bits.
func (r *RNG) Uint64() uint64 {
	r.s += splitmixGamma
	return mix64(r.s)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Int63n returns a uniform int64 in [0, n) for n > 0 via Lemire's
// multiply-shift reduction (bias < 2⁻⁴⁰ for the population sizes the
// simulator targets, far below sampling noise).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int64(hi)
}

// Intn returns a uniform int in [0, n) for n > 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// btrsCutoff is the mean below which Binomial uses CDF inversion; at
// and above it the BTRS rejection sampler applies (it requires
// n·min(p,1−p) ≥ 10).
const btrsCutoff = 10

// Binomial returns a draw from Binomial(n, p): the number of successes
// in n independent trials of probability p. Small means invert the CDF
// (O(np) expected work); large means use Hörmann's BTRS transformed
// rejection (O(1) expected work), so one draw is cheap at every scale —
// the property the count-based batch scheduler relies on.
func (r *RNG) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if float64(n)*p < btrsCutoff {
		return r.binomialInv(n, p)
	}
	return r.btrs(n, p)
}

// binomialInv draws Binomial(n, p), p ≤ 1/2, by CDF inversion with the
// pmf ratio recurrence f(k+1) = f(k)·(n−k)/(k+1)·p/(1−p); at the small
// means it is used for (np < 10) the expected iteration count is np+1.
// The search is capped far beyond the distribution's effective support
// so float rounding in the accumulated tail cannot walk to k = n.
//
// Most draws of a batch land on k = 0, so u is drawn first and a
// certain zero returns before the Exp/Log1p of f(0) = (1−p)ⁿ. By
// Bernoulli's inequality (1−p)ⁿ ≥ 1 − np. For np < 10 the computed
// f(0) is within ~1e-14 of the true value (Log1p and Exp are faithful,
// and |n·Log1p(−p)| < 14), so u < 1 − np − 1e-9 implies u < f(0) as
// computed: exactly the inversion's k = 0, on the same single draw.
func (r *RNG) binomialInv(n int64, p float64) int64 {
	u := r.Float64()
	if u < 1-float64(n)*p-1e-9 {
		return 0
	}
	q := 1 - p
	ratio := p / q
	f := math.Exp(float64(n) * math.Log1p(-p)) // (1−p)^n
	limit := int64(float64(n)*p + 60*math.Sqrt(float64(n)*p*q) + 100)
	if limit > n {
		limit = n
	}
	var k int64
	for u >= f && k < limit {
		u -= f
		f *= ratio * float64(n-k) / float64(k+1)
		k++
	}
	return k
}

// btrs draws Binomial(n, p) for p ≤ 1/2 and np ≥ 10 with the
// transformed-rejection algorithm BTRS of Hörmann (1993): proposals
// come from a transformed uniform whose inverse dominates the binomial
// shape; a squeeze accepts most of them with four flops, the rest are
// decided by one exact log-density comparison. The comparison's
// constants (two Lgamma calls and a Log) are computed on the first
// proposal that needs them, with the same expressions, so a draw the
// squeeze accepts never pays for them.
func (r *RNG) btrs(n int64, p float64) int64 {
	fn := float64(n)
	q := 1 - p
	spq := math.Sqrt(fn * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := fn*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	var lpq, m, h float64
	exact := false
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || k > fn {
			continue
		}
		if !exact {
			lpq = math.Log(p / q)
			m = math.Floor((fn + 1) * p)
			h = lgamma(m+1) + lgamma(fn-m+1)
			exact = true
		}
		if math.Log(v*alpha/(a/(us*us)+b)) <= h-lgamma(k+1)-lgamma(fn-k+1)+(k-m)*lpq {
			return int64(k)
		}
	}
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Multinomial distributes n draws over the weights proportionally,
// writing per-category counts into out (len(out) must equal
// len(weights); non-positive weights draw zero). It factors the
// multinomial into conditional binomials — category i receives
// Binomial(remaining draws, wᵢ/Σ_{j≥i} wⱼ) — so one call costs
// O(len(weights)) binomial draws regardless of n. At least one weight
// must be positive when n > 0.
func (r *RNG) Multinomial(n int64, weights []float64, out []int64) {
	if len(out) != len(weights) {
		panic("sim: Multinomial out/weights length mismatch")
	}
	var wrem float64
	for _, w := range weights {
		if w > 0 {
			wrem += w
		}
	}
	for i := range out {
		out[i] = 0
	}
	if n <= 0 {
		return
	}
	if wrem <= 0 {
		panic("sim: Multinomial with no positive weight")
	}
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if w >= wrem {
			// Last positive weight (up to float rounding): everything
			// remaining lands here, also absorbing accumulated drift.
			out[i] = n
			return
		}
		k := r.Binomial(n, w/wrem)
		out[i] = k
		n -= k
		wrem -= w
		if n == 0 {
			return
		}
	}
	// Rounding in wrem exhausted the weights with draws left over; give
	// them to the final positive-weight category.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			out[i] += n
			return
		}
	}
}
