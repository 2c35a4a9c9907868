package conf

import (
	"testing"
	"testing/quick"
)

var testSpace = MustSpace("i", "p", "q", "r")

// randomConfig converts arbitrary quick-generated values into a valid
// configuration over testSpace with small non-negative counts.
func randomConfig(raw [4]int16) Config {
	c := New(testSpace)
	for i, n := range raw {
		v := int64(n)
		if v < 0 {
			v = -v
		}
		c.v[i] = v % 64
	}
	return c
}

func TestFromMapAndCounts(t *testing.T) {
	c, err := FromMap(testSpace, map[string]int64{"i": 2, "q": 5})
	if err != nil {
		t.Fatalf("FromMap: %v", err)
	}
	if got := c.GetName("i"); got != 2 {
		t.Errorf("i = %d, want 2", got)
	}
	if got := c.GetName("q"); got != 5 {
		t.Errorf("q = %d, want 5", got)
	}
	if got := c.Agents(); got != 7 {
		t.Errorf("Agents = %d, want 7", got)
	}
}

func TestFromMapErrors(t *testing.T) {
	if _, err := FromMap(testSpace, map[string]int64{"zz": 1}); err == nil {
		t.Error("unknown state accepted")
	}
	if _, err := FromMap(testSpace, map[string]int64{"i": -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestUnit(t *testing.T) {
	u := MustUnit(testSpace, "p")
	if u.Agents() != 1 || u.GetName("p") != 1 {
		t.Fatalf("Unit(p) = %v", u)
	}
	if _, err := Unit(testSpace, "nope"); err == nil {
		t.Error("Unit of unknown state accepted")
	}
}

func TestAddSub(t *testing.T) {
	a := MustFromMap(testSpace, map[string]int64{"i": 3, "p": 1})
	b := MustFromMap(testSpace, map[string]int64{"i": 1, "q": 2})
	sum := a.Add(b)
	if sum.GetName("i") != 4 || sum.GetName("p") != 1 || sum.GetName("q") != 2 {
		t.Fatalf("Add = %v", sum)
	}
	diff, ok := sum.Sub(b)
	if !ok || !diff.Equal(a) {
		t.Fatalf("Sub round-trip = %v, %v", diff, ok)
	}
	if _, ok := a.Sub(b); ok {
		t.Error("Sub below zero succeeded")
	}
}

func TestLeqEqual(t *testing.T) {
	a := MustFromMap(testSpace, map[string]int64{"i": 1})
	b := MustFromMap(testSpace, map[string]int64{"i": 2, "p": 1})
	if !a.Leq(b) {
		t.Error("a ≤ b expected")
	}
	if b.Leq(a) {
		t.Error("b ≤ a unexpected")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone not Equal")
	}
}

func TestRestrict(t *testing.T) {
	c := MustFromMap(testSpace, map[string]int64{"i": 2, "p": 3})
	q := MustSpace("p", "z") // z is outside the source space
	r := c.Restrict(q)
	if r.GetName("p") != 3 {
		t.Errorf("restricted p = %d, want 3", r.GetName("p"))
	}
	if r.GetName("z") != 0 {
		t.Errorf("restricted z = %d, want 0", r.GetName("z"))
	}
	if r.Agents() != 3 {
		t.Errorf("restricted agents = %d, want 3", r.Agents())
	}
}

func TestEmbed(t *testing.T) {
	small := MustSpace("p", "q")
	c := MustFromMap(small, map[string]int64{"p": 2})
	e, err := c.Embed(testSpace)
	if err != nil {
		t.Fatalf("Embed: %v", err)
	}
	if e.GetName("p") != 2 || e.Agents() != 2 {
		t.Fatalf("Embed = %v", e)
	}
	other := MustSpace("w")
	w := MustUnit(other, "w")
	if _, err := w.Embed(testSpace); err == nil {
		t.Error("Embed of foreign state accepted")
	}
}

func TestZeroOutside(t *testing.T) {
	c := MustFromMap(testSpace, map[string]int64{"p": 1})
	keep := make([]bool, testSpace.Len())
	iP, _ := testSpace.Index("p")
	keep[iP] = true
	if !c.ZeroOutside(keep) {
		t.Error("ZeroOutside false, want true")
	}
	keep[iP] = false
	if c.ZeroOutside(keep) {
		t.Error("ZeroOutside true, want false")
	}
}

func TestKeyDistinguishes(t *testing.T) {
	a := MustFromMap(testSpace, map[string]int64{"i": 1})
	b := MustFromMap(testSpace, map[string]int64{"p": 1})
	if a.Key() == b.Key() {
		t.Error("distinct configs share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("clone has different key")
	}
}

func TestString(t *testing.T) {
	if got := New(testSpace).String(); got != "0" {
		t.Errorf("zero config String = %q, want 0", got)
	}
	c := MustFromMap(testSpace, map[string]int64{"i": 2, "p": 1})
	if got := c.String(); got != "2·i + p" {
		t.Errorf("String = %q", got)
	}
}

// Property: Add is commutative and associative; Sub inverts Add.
func TestQuickAddLaws(t *testing.T) {
	commutes := func(x, y [4]int16) bool {
		a, b := randomConfig(x), randomConfig(y)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(commutes, nil); err != nil {
		t.Errorf("Add not commutative: %v", err)
	}
	assoc := func(x, y, z [4]int16) bool {
		a, b, c := randomConfig(x), randomConfig(y), randomConfig(z)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("Add not associative: %v", err)
	}
	inverts := func(x, y [4]int16) bool {
		a, b := randomConfig(x), randomConfig(y)
		d, ok := a.Add(b).Sub(b)
		return ok && d.Equal(a)
	}
	if err := quick.Check(inverts, nil); err != nil {
		t.Errorf("Sub does not invert Add: %v", err)
	}
}

// Property: ≤ is monotone under Add, and Restrict is linear.
func TestQuickOrderAndRestrict(t *testing.T) {
	mono := func(x, y [4]int16) bool {
		a, b := randomConfig(x), randomConfig(y)
		return a.Leq(a.Add(b))
	}
	if err := quick.Check(mono, nil); err != nil {
		t.Errorf("≤ not monotone: %v", err)
	}
	sub := MustSpace("p", "r")
	linear := func(x, y [4]int16) bool {
		a, b := randomConfig(x), randomConfig(y)
		return a.Add(b).Restrict(sub).Equal(a.Restrict(sub).Add(b.Restrict(sub)))
	}
	if err := quick.Check(linear, nil); err != nil {
		t.Errorf("Restrict not linear: %v", err)
	}
}

// Property: norms behave as expected.
func TestQuickNorms(t *testing.T) {
	norm := func(x [4]int16) bool {
		a := randomConfig(x)
		return a.NormInf() <= a.Agents() && (a.IsZero() == (a.Agents() == 0))
	}
	if err := quick.Check(norm, nil); err != nil {
		t.Errorf("norm laws: %v", err)
	}
	scale := func(x [4]int16) bool {
		a := randomConfig(x)
		return a.Scale(3).Agents() == 3*a.Agents()
	}
	if err := quick.Check(scale, nil); err != nil {
		t.Errorf("Scale law: %v", err)
	}
}

func TestInPlaceAddSub(t *testing.T) {
	a := MustFromMap(testSpace, map[string]int64{"i": 3, "p": 1})
	d := MustFromMap(testSpace, map[string]int64{"i": 1, "q": 2})
	if !a.AddDeltaInPlace(d.RawCounts()) {
		t.Fatal("AddDeltaInPlace refused an addition")
	}
	if want := MustFromMap(testSpace, map[string]int64{"i": 4, "p": 1, "q": 2}); !a.Equal(want) {
		t.Errorf("in-place add: got %v, want %v", a, want)
	}
	if !a.AddDeltaInPlace(negated(d)) {
		t.Fatal("AddDeltaInPlace refused a valid subtraction")
	}
	if want := MustFromMap(testSpace, map[string]int64{"i": 3, "p": 1}); !a.Equal(want) {
		t.Errorf("in-place sub: got %v, want %v", a, want)
	}
}

func TestSubInPlaceRollsBack(t *testing.T) {
	// A failed in-place subtraction must leave the receiver untouched,
	// including components before the one that went negative.
	a := MustFromMap(testSpace, map[string]int64{"i": 5, "q": 1})
	d := MustFromMap(testSpace, map[string]int64{"i": 2, "q": 3})
	if a.AddDeltaInPlace(negated(d)) {
		t.Fatal("AddDeltaInPlace accepted d ≰ a")
	}
	if want := MustFromMap(testSpace, map[string]int64{"i": 5, "q": 1}); !a.Equal(want) {
		t.Errorf("failed in-place subtraction mutated receiver: %v", a)
	}
}

func TestCopyFromAndRawCounts(t *testing.T) {
	src := MustFromMap(testSpace, map[string]int64{"p": 7})
	dst := MustFromMap(testSpace, map[string]int64{"i": 1, "q": 2})
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Errorf("CopyFrom: got %v, want %v", dst, src)
	}
	// CopyFrom must copy values, not alias the source.
	dst.RawCounts()[1]++
	if src.GetName("p") != 7 {
		t.Error("CopyFrom aliased the source")
	}
	// RawCounts aliases the receiver's storage by design.
	raw := dst.RawCounts()
	raw[0] = 9
	if dst.GetName("i") != 9 {
		t.Error("RawCounts did not alias the receiver")
	}
}

func TestAddDeltaInPlace(t *testing.T) {
	c := randomConfig([4]int16{10, 0, 5, 3})
	if !c.AddDeltaInPlace([]int64{-10, 4, 0, -3}) {
		t.Fatal("feasible displacement rejected")
	}
	if got := []int64{c.Get(0), c.Get(1), c.Get(2), c.Get(3)}; got[0] != 0 || got[1] != 4 || got[2] != 5 || got[3] != 0 {
		t.Errorf("counts after displacement = %v", got)
	}
	// A displacement that would go negative anywhere must leave the
	// configuration untouched, including slots before the violation.
	before := c.Clone()
	if c.AddDeltaInPlace([]int64{3, -2, -6, 0}) {
		t.Fatal("negative-going displacement accepted")
	}
	if !c.Equal(before) {
		t.Errorf("rejected displacement mutated the configuration: %v -> %v", before, c)
	}
}

func TestAddDeltaInPlaceLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length-mismatched displacement accepted")
		}
	}()
	randomConfig([4]int16{1, 1, 1, 1}).AddDeltaInPlace([]int64{1, 2})
}

// negated returns −d as a displacement.
func negated(d Config) []int64 {
	out := make([]int64, d.Space().Len())
	for i := range out {
		out[i] = -d.Get(i)
	}
	return out
}

// Property: the in-place displacement agrees with its value-returning
// counterparts, and a refused one leaves the receiver untouched.
func TestQuickInPlaceAgree(t *testing.T) {
	add := func(x, y [4]int16) bool {
		a, d := randomConfig(x), randomConfig(y)
		want := a.Add(d)
		return a.AddDeltaInPlace(d.RawCounts()) && a.Equal(want)
	}
	if err := quick.Check(add, nil); err != nil {
		t.Errorf("in-place add law: %v", err)
	}
	sub := func(x, y [4]int16) bool {
		a, d := randomConfig(x), randomConfig(y)
		want, wantOK := a.Sub(d)
		before := a.Clone()
		ok := a.AddDeltaInPlace(negated(d))
		if ok != wantOK {
			return false
		}
		if !ok {
			return a.Equal(before)
		}
		return a.Equal(want)
	}
	if err := quick.Check(sub, nil); err != nil {
		t.Errorf("in-place sub law: %v", err)
	}
}
