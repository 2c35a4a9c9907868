package sim

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	a.Seed(42)
	b = NewRNG(42)
	if a.Uint64() != b.Uint64() {
		t.Error("Seed did not reset the stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGInt63nBounds(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int64{1, 2, 7, 1 << 40} {
		for i := 0; i < 5_000; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGInt63nRoughlyUniform(t *testing.T) {
	r := NewRNG(11)
	const buckets, draws = 8, 80_000
	var hist [buckets]int
	for i := 0; i < draws; i++ {
		hist[r.Int63n(buckets)]++
	}
	want := draws / buckets
	for b, n := range hist {
		if n < want*9/10 || n > want*11/10 {
			t.Errorf("bucket %d: %d draws, want ≈%d", b, n, want)
		}
	}
}

// chiSquareCrit approximates the chi-square quantile at z standard
// normal deviates (Wilson–Hilferty); z = 3.09 gives the 99.9% point,
// so a correct sampler under a fixed seed fails with probability ~1e-3
// — and deterministically passes once the seed is chosen.
func chiSquareCrit(df int, z float64) float64 {
	f := float64(df)
	h := 2 / (9 * f)
	v := 1 - h + z*math.Sqrt(h)
	return f * v * v * v
}

// binomialGoF draws from Binomial(n, p) and chi-square-tests the
// sample against the exact pmf, with adjacent outcomes merged until
// every bucket expects at least 5 draws.
func binomialGoF(t *testing.T, seed, n int64, p float64, draws int) {
	t.Helper()
	logPmf := func(k int64) float64 {
		fn, fk := float64(n), float64(k)
		return lgamma(fn+1) - lgamma(fk+1) - lgamma(fn-fk+1) +
			fk*math.Log(p) + (fn-fk)*math.Log1p(-p)
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	lo := int64(mean - 6*sd)
	if lo < 0 {
		lo = 0
	}
	hi := int64(mean + 6*sd + 1)
	if hi > n {
		hi = n
	}
	// Build buckets [.., cut_i] left to right, each holding ≥ 5 expected
	// draws; the 6σ tails carry ~1e-9 mass and fold into the end buckets.
	var cuts []int64
	var probs []float64
	acc := 0.0
	for k := lo; k <= hi; k++ {
		acc += math.Exp(logPmf(k))
		if acc*float64(draws) >= 5 {
			cuts = append(cuts, k)
			probs = append(probs, acc)
			acc = 0
		}
	}
	if len(cuts) < 2 {
		t.Fatalf("degenerate bucketing for n=%d p=%v", n, p)
	}
	var total float64
	for _, q := range probs {
		total += q
	}
	probs[len(probs)-1] += 1 - total // residual tail mass
	obs := make([]int64, len(cuts))
	rng := NewRNG(seed)
	for i := 0; i < draws; i++ {
		v := rng.Binomial(n, p)
		b := 0
		for b < len(cuts)-1 && v > cuts[b] {
			b++
		}
		obs[b]++
	}
	var stat float64
	for i, q := range probs {
		exp := q * float64(draws)
		d := float64(obs[i]) - exp
		stat += d * d / exp
	}
	if crit := chiSquareCrit(len(cuts)-1, 3.09); stat > crit {
		t.Errorf("Binomial(%d, %v): chi-square %.1f exceeds crit %.1f (df %d)",
			n, p, stat, crit, len(cuts)-1)
	}
}

func TestBinomialGoFSmallMean(t *testing.T) {
	// np = 4 and np = 2 at huge n: the inverse-CDF branch.
	binomialGoF(t, 101, 200, 0.02, 30_000)
	binomialGoF(t, 102, 1_000_000_000, 2e-9, 30_000)
}

func TestBinomialGoFLargeMean(t *testing.T) {
	// np = 2000: the BTRS branch.
	binomialGoF(t, 103, 5_000, 0.4, 30_000)
}

func TestBinomialGoFReflected(t *testing.T) {
	// p > 1/2 reflects to n − Binomial(n, 1−p); n(1−p) = 15 lands the
	// reflected draw in the BTRS branch.
	binomialGoF(t, 104, 300, 0.95, 30_000)
}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(1)
	for _, tc := range []struct {
		n    int64
		p    float64
		want int64
	}{
		{0, 0.5, 0},
		{-3, 0.5, 0},
		{10, 0, 0},
		{10, -0.5, 0},
		{10, 1, 10},
		{10, 1.5, 10},
	} {
		if got := r.Binomial(tc.n, tc.p); got != tc.want {
			t.Errorf("Binomial(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
	for i := 0; i < 1000; i++ {
		if v := r.Binomial(7, 0.3); v < 0 || v > 7 {
			t.Fatalf("Binomial(7, 0.3) = %d out of range", v)
		}
	}
}

// binomialAgrees draws once from Binomial and once from the reference
// on equal generators and fails unless both return the same k and
// leave their generators in the same state.
func binomialAgrees(t *testing.T, seed, n int64, p float64) {
	t.Helper()
	got, ref := NewRNG(seed), NewRNG(seed)
	k, want := got.Binomial(n, p), referenceBinomial(ref, n, p)
	if k != want || *got != *ref {
		t.Fatalf("Binomial(%d, %v) seed %d = %d (rng %x), reference %d (rng %x)",
			n, p, seed, k, got.s, want, ref.s)
	}
}

// The lazy samplers must be the reference samplers draw for draw:
// across both branches, the early-zero margin of the inversion
// (np ≪ 1 and np near 1), the cutoff np = 10 and the reflection.
func TestBinomialMatchesReference(t *testing.T) {
	for _, c := range []struct {
		n int64
		p float64
	}{
		{1, 0.3}, {1000, 1e-4}, {1000, 1e-3}, {1 << 20, 1e-6}, {999, 0.01},
		{1000, 0.00999}, {1000, 0.01001}, {40, 0.25}, {101, 0.4999999},
		{100, 0.5000001}, {1 << 40, 1e-12}, {1 << 40, 0.25}, {5_000, 0.4},
	} {
		for seed := int64(0); seed < 2_000; seed++ {
			binomialAgrees(t, seed, c.n, c.p)
		}
	}
}

// FuzzBinomial is the differential fuzz of Binomial against the
// reference samplers it replaced. n is folded into the simulator's
// batch range and p into [0, 1); NaN and infinite p are skipped (the
// reference never returns on NaN).
func FuzzBinomial(f *testing.F) {
	for _, c := range []struct {
		n int64
		p float64
	}{
		{1000, 0.00999}, {1000, 0.01001}, {101, 0.4999999}, {100, 0.5},
		{1, 0.3}, {1 << 40, 0.25}, {1 << 40, 1e-12}, {1_000_000, 1e-12},
	} {
		f.Add(int64(1), c.n, c.p)
	}
	f.Fuzz(func(t *testing.T, seed, n int64, p float64) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return
		}
		binomialAgrees(t, seed, n%(maxBatch+1), math.Abs(math.Mod(p, 1)))
	})
}

func TestMultinomialGoF(t *testing.T) {
	weights := []float64{3, 0, 1, 4, 1.5}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	rng := NewRNG(55)
	const n, rounds = 60_000, 10
	out := make([]int64, len(weights))
	var stat float64
	df := 0
	for round := 0; round < rounds; round++ {
		rng.Multinomial(n, weights, out)
		var sum int64
		for i, k := range out {
			sum += k
			if weights[i] <= 0 {
				if k != 0 {
					t.Fatalf("zero-weight category drew %d", k)
				}
				continue
			}
			exp := float64(n) * weights[i] / wsum
			d := float64(k) - exp
			stat += d * d / exp
			if round == 0 {
				df++
			}
		}
		if sum != n {
			t.Fatalf("multinomial counts sum to %d, want %d", sum, n)
		}
	}
	// Each round's Pearson statistic is chi-square with (categories−1)
	// degrees of freedom; the rounds sum to chi-square with rounds·df'.
	totalDF := rounds * (df - 1)
	if crit := chiSquareCrit(totalDF, 3.09); stat > crit {
		t.Errorf("multinomial chi-square %.1f exceeds crit %.1f (df %d)", stat, crit, totalDF)
	}
}

func TestDeriveSeedNoCollisions(t *testing.T) {
	// The old affine derivation (base + tr·1e6+3) made distinct
	// (base, trial) pairs collide trivially; the splitmix64 hash must
	// keep a dense grid collision-free.
	seen := make(map[int64][2]int64)
	for base := int64(0); base < 100; base++ {
		for tr := 0; tr < 100; tr++ {
			s := DeriveSeed(base, tr)
			if prev, dup := seen[s]; dup {
				t.Fatalf("DeriveSeed(%d,%d) == DeriveSeed(%d,%d) == %d",
					base, tr, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{base, int64(tr)}
		}
	}
	// Regression for the specific old failure mode: base+K and trial
	// offsets must no longer alias.
	if DeriveSeed(0, 1) == DeriveSeed(1_000_003, 0) {
		t.Error("affine aliasing survived the hash")
	}
}

func TestDeriveSeedKNoCollisions(t *testing.T) {
	// Sweep's per-size derivation must be collision-free on a dense
	// (base, size) grid — the old affine base + x·7919 scheme aliased
	// trivially (e.g. bases 7919 apart at adjacent sizes) — and must
	// not reproduce any DeriveSeed trial seed for the same bases.
	seen := make(map[int64][2]int64)
	trialSeeds := make(map[int64]bool)
	for base := int64(0); base < 100; base++ {
		for k := int64(0); k < 100; k++ {
			trialSeeds[DeriveSeed(base, int(k))] = true
			s := DeriveSeedK(base, k)
			if prev, dup := seen[s]; dup {
				t.Fatalf("DeriveSeedK(%d,%d) == DeriveSeedK(%d,%d) == %d",
					base, k, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{base, k}
		}
	}
	if DeriveSeedK(0, 7_919) == DeriveSeedK(7_919, 0) {
		t.Error("affine aliasing survived the hash")
	}
	for s := range seen {
		if trialSeeds[s] {
			t.Fatal("DeriveSeedK stream intersects DeriveSeed stream on the test grid")
		}
	}
}
