// Package experiments implements the reproduction experiments E1–E12w
// indexed in DESIGN.md. Each experiment returns a Table whose rows
// reproduce the corresponding quantitative claim of the paper; the
// cmd/ppbench binary prints them and the top-level benchmarks time
// them, so the paper-shaped output and the measured numbers come from
// one implementation.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/ctrlnet"
	"repro/internal/hilbert"
	"repro/internal/machine"
	"repro/internal/petri"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim the rows are checked against
	Header  []string
	Rows    [][]string
	Verdict string // the measured outcome vs the claim
}

// Render prints the table in aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len([]rune(c)); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Verdict != "" {
		fmt.Fprintf(&b, "verdict: %s\n", t.Verdict)
	}
	return b.String()
}

// E1StateCounts reproduces the state/width/leader trade-off table of
// the counting constructions (Section 4 + [6]).
func E1StateCounts() (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "state counts of counting-protocol constructions",
		Claim: "2 states at width n (Ex 4.1); 6 states with n leaders (Ex 4.2); " +
			"n+1 leaderless (flock); log₂n+2 for n=2^k; log₂n+6 with 1 leader; " +
			"Θ(log log n) with 1 leader for n=2^(2^k) ([6]-style)",
		Header: []string{"n", "ex41", "ex42", "flock", "power2", "ldrdbl", "tower"},
	}
	towerStates := map[int64]string{} // n -> states
	for k := int64(0); k <= 5; k++ {
		n, err := counting.TowerThreshold(k)
		if err != nil {
			return nil, err
		}
		towerStates[n] = fmt.Sprintf("%d", 6*k+13)
	}
	for _, k := range []int64{1, 2, 3, 4, 5, 8, 16, 32} {
		n := int64(1) << k
		row := []string{fmt.Sprintf("%d", n)}
		// Example 4.1: always 2 states (width n).
		row = append(row, "2(w=n)")
		// Example 4.2: 6 states (n leaders).
		row = append(row, "6(L=n)")
		// Flock: n+1.
		row = append(row, fmt.Sprintf("%d", n+1))
		// Power2: k+2.
		row = append(row, fmt.Sprintf("%d", k+2))
		// LeaderDoubling: k+6.
		row = append(row, fmt.Sprintf("%d", k+6))
		// Tower (only at n = 2^(2^j)).
		ts, ok := towerStates[n]
		if !ok {
			ts = "-"
		}
		row = append(row, ts)
		t.Rows = append(t.Rows, row)
	}
	// Sanity: instantiate a few and confirm the real constructions match
	// the formulas.
	p41, err := counting.Example41(5)
	if err != nil {
		return nil, err
	}
	p42, err := counting.Example42(5)
	if err != nil {
		return nil, err
	}
	pf, err := counting.FlockOfBirds(5)
	if err != nil {
		return nil, err
	}
	pp, err := counting.PowerOfTwo(4)
	if err != nil {
		return nil, err
	}
	pt, err := counting.Tower(2)
	if err != nil {
		return nil, err
	}
	if p41.States() != 2 || p42.States() != 6 || pf.States() != 6 || pp.States() != 6 || pt.States() != 25 {
		return nil, fmt.Errorf("experiments: construction state counts drifted: %d %d %d %d %d",
			p41.States(), p42.States(), pf.States(), pp.States(), pt.States())
	}
	t.Verdict = "construction formulas match instantiated protocols; " +
		"tower grows 6 states per doubly-exponential jump in n = Θ(log log n)"
	return t, nil
}

// E2Theorem43 evaluates the headline bound of Theorem 4.3.
func E2Theorem43() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Theorem 4.3: max n decidable with d states (w = L = 2)",
		Claim:  "n ≤ (4+4w+2L)^(d^((d+2)²))",
		Header: []string{"d", "exponent d^((d+2)²)", "log10(max n)", "max n"},
	}
	for d := 1; d <= 10; d++ {
		m := bounds.Theorem43MaxN(d, 2, 2)
		exp := math.Pow(float64(d), float64((d+2)*(d+2)))
		val := m.String()
		if len(val) > 28 {
			val = val[:28] + "…"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%.4g", exp),
			fmt.Sprintf("%.4g", m.Log10()),
			val,
		})
	}
	t.Verdict = "doubly-exponential growth in d: inverting gives the Ω((log log n)^h) state lower bound"
	return t, nil
}

// E3Gap reproduces the closed gap: the Corollary 4.4 lower bound versus
// the [6]-style tower upper bound, on the tower values n = 2^(2^k).
func E3Gap() (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "state-complexity gap at n = 2^(2^k) (m = 2, h = 0.49)",
		Claim: "lower bound Ω((log log n)^h) for h < 1/2 vs upper bound O(log log n): " +
			"gap closed up to a square root",
		Header: []string{"k", "log2(n)", "LB Cor4.4", "LB Thm4.3 (exact d)", "UB tower states"},
	}
	for k := 1; k <= 20; k++ {
		log2n := math.Pow(2, float64(k)) // n = 2^(2^k)
		lb := bounds.Corollary44LowerBound(log2n, 0.49, 2)
		log10n := log2n * math.Log10(2)
		lbExact := bounds.MinStatesTheorem43(log10n, 2)
		ub := 6*k + 13
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("2^%d", k),
			fmt.Sprintf("%.2f", lb),
			fmt.Sprintf("%d", lbExact),
			fmt.Sprintf("%d", ub),
		})
	}
	t.Verdict = "LB ≈ k^0.49 stays below UB = Θ(k) = Θ(log log n): shapes match the closed gap"
	return t, nil
}

// E4VerifyCost measures the exhaustive verifier's closure growth: the
// practical face of Ackermannian well-specification hardness.
func E4VerifyCost() (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "exhaustive stable-computation verification cost",
		Claim:  "verification is decidable but state spaces blow up with population size",
		Header: []string{"protocol", "n", "max x", "inputs", "max closure", "all OK"},
	}
	budget := petri.Budget{MaxConfigs: 1 << 20}
	cases := []struct {
		name string
		mk   func() (*core.Protocol, error)
		n    int64
		maxX int64
	}{
		{"example42", func() (*core.Protocol, error) { return counting.Example42(2) }, 2, 6},
		{"example42", func() (*core.Protocol, error) { return counting.Example42(3) }, 3, 7},
		{"flock", func() (*core.Protocol, error) { return counting.FlockOfBirds(4) }, 4, 7},
		{"flock", func() (*core.Protocol, error) { return counting.FlockOfBirds(5) }, 5, 8},
		{"power2", func() (*core.Protocol, error) { return counting.PowerOfTwo(3) }, 8, 10},
	}
	for _, c := range cases {
		p, err := c.mk()
		if err != nil {
			return nil, err
		}
		res, err := verify.Counting(p, "i", c.n, c.maxX, budget)
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", c.name, err)
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", c.n),
			fmt.Sprintf("%d", c.maxX),
			fmt.Sprintf("%d", len(res.Reports)),
			fmt.Sprintf("%d", res.MaxConfigs),
			fmt.Sprintf("%v", res.OK()),
		})
		if !res.OK() {
			return nil, fmt.Errorf("E4: %s unexpectedly fails verification", c.name)
		}
	}
	t.Verdict = "all constructions verify; closure size grows combinatorially with population"
	return t, nil
}

// E5Rackoff compares measured shortest covering words against the
// Lemma 5.3 Rackoff bound.
func E5Rackoff() (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "coverability witness lengths vs Rackoff bound (Lemma 5.3)",
		Claim:  "shortest covering word ≤ (‖ρ‖∞+‖T‖∞)^(|P|^|P|)",
		Header: []string{"net", "d", "measured |σ|", "log10(bound)"},
	}
	budget := petri.Budget{MaxConfigs: 1 << 18}
	type tc struct {
		name   string
		net    *petri.Net
		from   conf.Config
		target conf.Config
	}
	var cases []tc

	// Chain net: a -> b -> c, cover k c's from k a's.
	{
		space := conf.MustSpace("a", "b", "c")
		u := func(n string) conf.Config { return conf.MustUnit(space, n) }
		mk := func(name string, pre, post conf.Config) petri.Transition {
			tr, err := petri.NewTransition(name, pre, post)
			if err != nil {
				panic(err)
			}
			return tr
		}
		net, err := petri.New(space, []petri.Transition{
			mk("ab", u("a"), u("b")),
			mk("bc", u("b"), u("c")),
		})
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc{"chain", net,
			u("a").Scale(4), u("c").Scale(4)})
	}
	// Doubling net: a -> 2b, b -> 2c: exponential token growth.
	{
		space := conf.MustSpace("a", "b", "c")
		u := func(n string) conf.Config { return conf.MustUnit(space, n) }
		mk := func(name string, pre, post conf.Config) petri.Transition {
			tr, err := petri.NewTransition(name, pre, post)
			if err != nil {
				panic(err)
			}
			return tr
		}
		net, err := petri.New(space, []petri.Transition{
			mk("a2b", u("a"), u("b").Scale(2)),
			mk("b2c", u("b"), u("c").Scale(2)),
		})
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc{"double", net, u("a"), u("c").Scale(4)})
	}
	// Example 4.2 net: cover an all-accept configuration.
	{
		p, err := counting.Example42(2)
		if err != nil {
			return nil, err
		}
		space := p.Space()
		from := p.InitialConfig(conf.MustFromMap(space, map[string]int64{"i": 3}))
		target := conf.MustFromMap(space, map[string]int64{"p": 2, "q": 2})
		cases = append(cases, tc{"example42", p.Net(), from, target})
	}
	for _, c := range cases {
		w, err := c.net.ShortestCoveringWord(c.from, c.target, budget)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", c.name, err)
		}
		if w == nil {
			return nil, fmt.Errorf("E5 %s: target not coverable", c.name)
		}
		d := c.net.Space().Len()
		bound := bounds.Rackoff(d, c.target.NormInf(), c.net.NormInf())
		if !bound.GeqInt(int64(len(w.Word))) {
			return nil, fmt.Errorf("E5 %s: measured %d exceeds Rackoff bound %v", c.name, len(w.Word), bound)
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", len(w.Word)),
			fmt.Sprintf("%.3g", bound.Log10()),
		})
	}
	t.Verdict = "every measured witness is far below the (astronomical) bound, as Lemma 5.3 predicts"
	return t, nil
}

// E6Pottier compares measured Hilbert-basis norms with the Pottier
// bound used by Lemma 7.3.
func E6Pottier() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "minimal-solution norms vs Pottier bound (Lemma 7.3 substrate)",
		Claim:  "max ‖x‖₁ over minimal solutions ≤ (2 + Σ‖aᵢ‖∞)^d",
		Header: []string{"system", "d", "basis size", "max ‖x‖₁", "bound"},
	}
	systems := []struct {
		name string
		rows [][]int64
	}{
		{"x=y", [][]int64{{1, -1}}},
		{"2x=3y", [][]int64{{2, -3}}},
		{"x+y=2z", [][]int64{{1, 1, -2}}},
		{"5x=7y-3z", [][]int64{{5, -7, 3}}},
		{"two eqs", [][]int64{{1, -1, 0, 0}, {0, 1, -1, -1}}},
		{"3x+y=2z+4w", [][]int64{{3, 1, -2, -4}}},
	}
	for _, s := range systems {
		sys, err := hilbert.NewSystem(s.rows)
		if err != nil {
			return nil, err
		}
		basis, err := sys.MinimalSolutions(hilbert.Options{})
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", s.name, err)
		}
		measured := hilbert.MaxNorm1(basis)
		bound := bounds.Pottier(sys.Rows(), sys.SumColumnNormInf())
		if !bound.GeqInt(measured) {
			return nil, fmt.Errorf("E6 %s: measured %d exceeds Pottier bound %v", s.name, measured, bound)
		}
		t.Rows = append(t.Rows, []string{
			s.name,
			fmt.Sprintf("%d", sys.Rows()),
			fmt.Sprintf("%d", len(basis)),
			fmt.Sprintf("%d", measured),
			bound.String(),
		})
	}
	t.Verdict = "all bases within the Pottier bound"
	return t, nil
}

// E7Euler measures total-cycle lengths against the Lemma 7.2 bound
// |E|·|S| on randomized strongly connected control nets.
func E7Euler() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "total cycle lengths vs |E|·|S| (Lemma 7.2)",
		Claim:  "every strongly connected (S,T,E) has a total cycle of length ≤ |E|·|S|",
		Header: []string{"|S|", "|E|", "measured |θ|", "bound"},
	}
	for _, size := range []int{2, 4, 8, 16, 32} {
		net, err := ringControlNet(size)
		if err != nil {
			return nil, err
		}
		cyc, err := net.TotalCycle()
		if err != nil {
			return nil, fmt.Errorf("E7 |S|=%d: %w", size, err)
		}
		bound := bounds.Lemma72CycleLength(net.NumEdges(), net.NumStates())
		if int64(len(cyc)) > bound {
			return nil, fmt.Errorf("E7 |S|=%d: cycle %d exceeds bound %d", size, len(cyc), bound)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", net.NumStates()),
			fmt.Sprintf("%d", net.NumEdges()),
			fmt.Sprintf("%d", len(cyc)),
			fmt.Sprintf("%d", bound),
		})
	}
	t.Verdict = "all total cycles within |E|·|S|"
	return t, nil
}

// ringControlNet builds a strongly connected control net: a ring of
// size states with chords and self-loops, over a 2-place Petri net.
func ringControlNet(size int) (*ctrlnet.Net, error) {
	space := conf.MustSpace("x", "y")
	u := func(n string) conf.Config { return conf.MustUnit(space, n) }
	xy, err := petri.NewTransition("xy", u("x"), u("y"))
	if err != nil {
		return nil, err
	}
	yx, err := petri.NewTransition("yx", u("y"), u("x"))
	if err != nil {
		return nil, err
	}
	pnet, err := petri.New(space, []petri.Transition{xy, yx})
	if err != nil {
		return nil, err
	}
	states := make([]string, size)
	for i := range states {
		states[i] = fmt.Sprintf("s%d", i)
	}
	var edges []ctrlnet.Edge
	for i := 0; i < size; i++ {
		edges = append(edges, ctrlnet.Edge{From: states[i], Trans: i % 2, To: states[(i+1)%size]})
		// chord every 3rd state for extra edges
		if i%3 == 0 {
			edges = append(edges, ctrlnet.Edge{From: states[i], Trans: (i + 1) % 2, To: states[(i+size/2)%size]})
		}
	}
	return ctrlnet.New(states, pnet, edges)
}

// E8Bottom runs the constructive bottom-configuration search and
// compares certificate magnitudes with Theorem 6.1's bound b.
func E8Bottom() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "bottom-configuration certificates vs Theorem 6.1 bound b",
		Claim:  "|σ|, |w|, d‖α‖∞, d‖β‖∞, component ≤ b = (4+4‖T‖∞+2‖ρ‖∞)^(d^d(1+(2+d^d)^(d+1)))",
		Header: []string{"net", "d", "|σ|", "|w|", "|Q|", "component", "log10(b)"},
	}
	// The arena closure engine made the exploration cheap enough to
	// quadruple the budget the seed substrate could afford (1<<16).
	opts := core.ReachBottomOptions{Budget: petri.Budget{MaxConfigs: 1 << 18}}

	type tc struct {
		name string
		net  *petri.Net
		rho  conf.Config
	}
	var cases []tc
	{
		p, err := counting.Example42(2)
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc{"example42(x=3)", p.Net(),
			p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 3}))})
	}
	{
		space := conf.MustSpace("a", "b")
		u := func(n string) conf.Config { return conf.MustUnit(space, n) }
		pump, err := petri.NewTransition("pump", u("a"), u("a").Add(u("b")))
		if err != nil {
			return nil, err
		}
		net, err := petri.New(space, []petri.Transition{pump})
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc{"pump(unbounded)", net, u("a")})
	}
	{
		p, err := counting.FlockOfBirds(3)
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc{"flock3(x=4)", p.Net(),
			p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 4}))})
	}
	{
		p, err := counting.FlockOfBirds(4)
		if err != nil {
			return nil, err
		}
		cases = append(cases, tc{"flock4(x=5)", p.Net(),
			p.InitialConfig(conf.MustFromMap(p.Space(), map[string]int64{"i": 5}))})
	}
	for _, c := range cases {
		cert, err := core.ReachBottom(c.net, c.rho, opts)
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", c.name, err)
		}
		d := c.net.Space().Len()
		b := bounds.Theorem61B(d, c.net.NormInf(), c.rho.NormInf())
		for what, v := range map[string]int64{
			"|σ|":       int64(len(cert.Sigma)),
			"|w|":       int64(len(cert.W)),
			"component": int64(cert.ComponentSize),
			"d‖α‖∞":     int64(d) * cert.Alpha.NormInf(),
			"d‖β‖∞":     int64(d) * cert.Beta.NormInf(),
		} {
			if !b.GeqInt(v) {
				return nil, fmt.Errorf("E8 %s: %s = %d exceeds b", c.name, what, v)
			}
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", len(cert.Sigma)),
			fmt.Sprintf("%d", len(cert.W)),
			fmt.Sprintf("%d", len(cert.Q)),
			fmt.Sprintf("%d", cert.ComponentSize),
			fmt.Sprintf("%.3g", b.Log10()),
		})
	}
	t.Verdict = "all verified certificates are minuscule next to b, as Theorem 6.1 permits"
	return t, nil
}

// E9Stabilized measures the minimal small-values threshold of
// Lemma 5.4 against the formula h.
func E9Stabilized() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "minimal small-values threshold vs Lemma 5.4 formula",
		Claim:  "characterization holds for h ≥ ‖T‖∞(1+‖T‖∞)^(d^d); measured minimal h is tiny",
		Header: []string{"protocol", "ρ", "measured h", "log10(formula h)"},
	}
	budget := petri.Budget{MaxConfigs: 1 << 16}
	p, err := counting.Example42(2)
	if err != nil {
		return nil, err
	}
	keep, err := p.KeepMask(p.OutputStates(core.Out0))
	if err != nil {
		return nil, err
	}
	rhos := []map[string]int64{
		{"ib": 4, "pb": 1, "qb": 1},
		{"ib": 2},
		{"ib": 5, "qb": 3},
	}
	for _, m := range rhos {
		rho := conf.MustFromMap(p.Space(), m)
		h, err := core.MinimalCharacterizationH(p.Net(), keep, rho, 8, 3, budget)
		if err != nil {
			return nil, fmt.Errorf("E9 %v: %w", rho, err)
		}
		if h == 0 {
			return nil, fmt.Errorf("E9 %v: no threshold ≤ 8 found", rho)
		}
		formula := bounds.StabilizationH(p.States(), p.Net().NormInf())
		t.Rows = append(t.Rows, []string{
			p.Name(),
			rho.String(),
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%.3g", formula.Log10()),
		})
	}
	t.Verdict = "measured thresholds of 1–2 vs formula ~10^14000: Lemma 5.4 is comfortably loose"
	return t, nil
}

// E10Convergence measures simulated convergence of the constructions.
func E10Convergence() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "uniform-scheduler convergence of counting protocols",
		Claim:  "all constructions converge to the correct consensus; interactions grow with population",
		Header: []string{"protocol", "x", "expected", "trials", "correct", "mean steps"},
	}
	type tc struct {
		name string
		mk   func() (*core.Protocol, error)
		n    int64
		x    int64
	}
	cases := []tc{
		{"example42(4)", func() (*core.Protocol, error) { return counting.Example42(4) }, 4, 12},
		{"example42(4)", func() (*core.Protocol, error) { return counting.Example42(4) }, 4, 3},
		{"flock(8)", func() (*core.Protocol, error) { return counting.FlockOfBirds(8) }, 8, 40},
		{"flock(8)", func() (*core.Protocol, error) { return counting.FlockOfBirds(8) }, 8, 6},
		{"power2(4)", func() (*core.Protocol, error) { return counting.PowerOfTwo(4) }, 16, 64},
		{"power2(4)", func() (*core.Protocol, error) { return counting.PowerOfTwo(4) }, 16, 10},
		{"ldrdbl(3)", func() (*core.Protocol, error) { return counting.LeaderDoubling(3) }, 8, 20},
	}
	for _, c := range cases {
		p, err := c.mk()
		if err != nil {
			return nil, err
		}
		in, err := p.Input(map[string]int64{"i": c.x})
		if err != nil {
			return nil, err
		}
		expected := c.x >= c.n
		stats, err := sim.RunMany(context.Background(), p, in, expected, 20,
			sim.Options{Seed: 1234, MaxSteps: 400_000, StablePatience: 2000})
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", c.name, err)
		}
		if stats.Correct != stats.Converged || stats.Converged == 0 {
			return nil, fmt.Errorf("E10 %s x=%d: %d/%d correct of %d converged",
				c.name, c.x, stats.Correct, stats.Converged, stats.Trials)
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%d", c.x),
			fmt.Sprintf("%v", expected),
			fmt.Sprintf("%d", stats.Trials),
			fmt.Sprintf("%d", stats.Correct),
			fmt.Sprintf("%.0f", stats.MeanLastChange()),
		})
	}
	t.Verdict = "20/20 correct consensus everywhere; convergence cost grows with population"
	return t, nil
}

// E11LargeNBatch measures count-batched convergence at populations the
// per-interaction engine cannot reach: 10⁸+ agents per run. This is
// the regime where the paper's headline objects live (n = 2^(2^k)
// populations, Czerner's double-exponential thresholds, the Alistarh et
// al. trade-offs only show their asymptotics at such n), unlocked by
// the tau-leaping batch scheduler's sub-constant amortized cost per
// interaction.
//
// Each sweep executes through the sharded pipeline (internal/shard):
// the spec is planned into shards, every shard runs as an independent
// worker would, and the partial artifacts are merged — so the numbers
// below are, by the merge contract, bit-identical to a single-process
// sweep, and each point aggregates several trials with a real
// confidence interval instead of the single run per point of earlier
// revisions.
func E11LargeNBatch() (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "count-batched convergence at n ≥ 10^8 (sharded multi-trial sweeps)",
		Claim: "count-based batch simulation decides the counting predicates at " +
			"10^8+ agents in milliseconds per run, agreeing with the exact " +
			"semantics; shard/merge reproduces the single-process sweep exactly",
		Header: []string{"protocol", "agents", "expected", "trials", "correct", "mean ia", "±95% CI", "sweep wall"},
	}
	const trials = 5
	sweeps := []shard.SweepSpec{
		// Whole-run mode (patience 0): these protocols end in an
		// absorbing deadlock, the unambiguous convergence signal at
		// populations where any fixed patience is miscalibrated. The
		// step cap only guards against livelock (every E11 trajectory
		// is ≤ 2x−3 interactions, within int32 range).
		{Protocol: "power2", Param: 27, InputState: "i", Sizes: []int64{1<<27 - 1, 1 << 27},
			Trials: trials, Seed: 11, MaxSteps: math.MaxInt32, Scheduler: "countbatch"},
		{Protocol: "flock", Param: 8, InputState: "i", Sizes: []int64{100_000_000},
			Trials: trials, Seed: 11, MaxSteps: math.MaxInt32, Scheduler: "countbatch"},
		{Protocol: "example42", Param: 4, InputState: "i", Sizes: []int64{100_000_000},
			Trials: trials, Seed: 11, MaxSteps: math.MaxInt32, Scheduler: "countbatch"},
	}
	for _, sw := range sweeps {
		_, n, err := sw.Build()
		if err != nil {
			return nil, fmt.Errorf("E11 %s: %w", sw.Protocol, err)
		}
		m, err := shard.Plan(sw, 2)
		if err != nil {
			return nil, fmt.Errorf("E11 %s: %w", sw.Protocol, err)
		}
		start := time.Now()
		arts := make([]*shard.Artifact, 0, len(m.Shards))
		for _, spec := range m.Shards {
			a, err := shard.Run(context.Background(), m, spec.ID, 0)
			if err != nil {
				return nil, fmt.Errorf("E11 %s shard %s: %w", sw.Protocol, spec.ID, err)
			}
			arts = append(arts, a)
		}
		merged, err := shard.Merge(arts)
		if err != nil {
			return nil, fmt.Errorf("E11 %s merge: %w", sw.Protocol, err)
		}
		elapsed := time.Since(start)
		for _, pt := range merged.Points {
			st := &pt.Stats
			if st.Converged != trials || st.Correct != trials {
				return nil, fmt.Errorf("E11 %s x=%d: %d/%d correct of %d converged",
					sw.Protocol, pt.X, st.Correct, trials, st.Converged)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s(%d)", sw.Protocol, sw.Param),
				fmt.Sprintf("%d", pt.X),
				fmt.Sprintf("%v", pt.X >= n),
				fmt.Sprintf("%d", st.Trials),
				fmt.Sprintf("%d", st.Correct),
				fmt.Sprintf("%.3g", st.MeanSteps()),
				fmt.Sprintf("%.3g", st.HalfCI95Steps()),
				elapsed.Round(time.Millisecond).String(),
			})
		}
	}
	t.Verdict = "correct absorbing consensus in 5/5 trials at every population; " +
		"shard-merged statistics carry tight confidence intervals at 10^8 agents"
	return t, nil
}

// E11aAnytimeStopping measures what sequential stopping buys: the
// same sweep run exhaustively and under a CI-target stop rule, point
// by point. The stopped run must agree with the exhaustive one within
// the combined confidence intervals — stopping trades trials for a
// certified precision target, never for a different answer — and the
// merge-time truncation contract makes the stopped document a pure
// function of the spec, the block size and the rule, independent of
// how many workers raced over the cells.
func E11aAnytimeStopping() (*Table, error) {
	t := &Table{
		ID:    "E11a",
		Title: "sequential stopping under a 5% CI target (anytime sweeps)",
		Claim: "a per-size CI-target stop rule cuts trial counts by half or more " +
			"while the stopped means stay within the combined 95% CIs of the " +
			"exhaustive sweep",
		Header: []string{"agents", "planned", "done", "saved", "mean (stop)", "mean (full)", "|Δ| ≤ ΣCI"},
	}
	sw := shard.SweepSpec{
		Protocol: "flock", Param: 4, InputState: "i",
		Sizes: []int64{2, 4, 8, 16}, Trials: 48, Seed: 1,
		MaxSteps: 200000, Patience: 1000,
	}
	rule := sim.StopRule{TargetRelCI: 0.05, MinTrials: 8}
	m, err := shard.PlanCostBlock(sw, 1, shard.DefaultCost(sw.Scheduler), 4)
	if err != nil {
		return nil, fmt.Errorf("E11a plan: %w", err)
	}
	// Exhaustive reference: every planned cell, folded without a rule.
	full, err := shard.Run(context.Background(), m, m.Shards[0].ID, 0)
	if err != nil {
		return nil, fmt.Errorf("E11a exhaustive run: %w", err)
	}
	swc, pts, err := shard.CollectPartial([]*shard.Artifact{full}, nil)
	if err != nil {
		return nil, fmt.Errorf("E11a collect: %w", err)
	}
	exhaustive, err := shard.MergePartial(swc, pts, sim.StopRule{})
	if err != nil {
		return nil, fmt.Errorf("E11a exhaustive merge: %w", err)
	}
	// Stopped view: the same cells truncated at the canonical stopping
	// boundary. (Workers running live with the rule skip the truncated
	// cells instead of computing them; the document is identical.)
	stopped, err := shard.MergePartial(swc, pts, rule)
	if err != nil {
		return nil, fmt.Errorf("E11a stopped merge: %w", err)
	}
	totalPlanned, totalDone := 0, 0
	for i, pt := range stopped.Points {
		ref := &exhaustive.Points[i]
		if !pt.Stopped {
			return nil, fmt.Errorf("E11a x=%d: rule never fired in %d trials", pt.X, sw.Trials)
		}
		gap := math.Abs(pt.Stats.MeanSteps() - ref.Stats.MeanSteps())
		bound := pt.Stats.HalfCI95Steps() + ref.Stats.HalfCI95Steps()
		if gap > bound {
			return nil, fmt.Errorf("E11a x=%d: stopped mean drifted %.2f beyond the combined CI %.2f", pt.X, gap, bound)
		}
		totalPlanned += pt.TrialsPlanned
		totalDone += pt.TrialsDone
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pt.X),
			fmt.Sprintf("%d", pt.TrialsPlanned),
			fmt.Sprintf("%d", pt.TrialsDone),
			fmt.Sprintf("%.0f%%", 100*(1-float64(pt.TrialsDone)/float64(pt.TrialsPlanned))),
			fmt.Sprintf("%.1f", pt.Stats.MeanSteps()),
			fmt.Sprintf("%.1f", ref.Stats.MeanSteps()),
			fmt.Sprintf("%v", gap <= bound),
		})
	}
	if totalDone*2 > totalPlanned {
		return nil, fmt.Errorf("E11a: stopping saved only %d of %d trials", totalPlanned-totalDone, totalPlanned)
	}
	t.Verdict = fmt.Sprintf("stop rule fired on every size, ran %d of %d planned trials "+
		"(%.0f%% saved); every stopped mean within the combined 95%% CIs",
		totalDone, totalPlanned, 100*(1-float64(totalDone)/float64(totalPlanned)))
	return t, nil
}

// MachineTable is a bonus table: the squaring machine behind Tower.
func MachineTable() (*Table, error) {
	t := &Table{
		ID:     "E1b",
		Title:  "repeated-squaring machine values (Tower substrate)",
		Claim:  "k+1 instructions compute 2^(2^k)",
		Header: []string{"k", "instructions", "value"},
	}
	for k := 0; k <= 5; k++ {
		prog := machine.SquaringProgram(k)
		out, _, err := prog.Run()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", len(prog.Instrs)),
			out.String(),
		})
	}
	t.Verdict = "doubly-exponential values from linear-size programs"
	return t, nil
}

// NamedExperiment pairs an experiment id with its generator, so
// callers can select and time experiments without running the rest.
type NamedExperiment struct {
	ID  string
	Run func() (*Table, error)
}

// Index returns the experiments in canonical order. The IDs match the
// tables the generators produce and the DESIGN.md experiment index.
func Index() []NamedExperiment {
	return []NamedExperiment{
		{"E1", E1StateCounts},
		{"E1b", MachineTable},
		{"E2", E2Theorem43},
		{"E3", E3Gap},
		{"E4", E4VerifyCost},
		{"E5", E5Rackoff},
		{"E6", E6Pottier},
		{"E7", E7Euler},
		{"E8", E8Bottom},
		{"E9", E9Stabilized},
		{"E10", E10Convergence},
		{"E11", E11LargeNBatch},
		{"E11a", E11aAnytimeStopping},
		{"E12", E12ServeReplayCold},
		{"E12w", E12wServeReplayWarm},
	}
}

// All runs every experiment in order.
func All() ([]*Table, error) {
	idx := Index()
	out := make([]*Table, 0, len(idx))
	for _, e := range idx {
		tbl, err := e.Run()
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}
