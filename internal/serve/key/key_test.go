package key

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func mustKey(t *testing.T, q *Query) Key {
	t.Helper()
	k, err := Of(q)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func simQuery() *Query {
	return &Query{
		Kind:     KindSimulate,
		Spec:     Spec{Protocol: "flock", Param: 4},
		Simulate: &SimulateParams{X: 8, Trials: 3, Seed: 7, MaxSteps: 200000, Patience: 1000, Scheduler: "weighted"},
	}
}

// Keying must be insensitive to spelled-out defaults: the same
// computation requested tersely and verbosely is one cache entry.
func TestDefaultsShareKeys(t *testing.T) {
	terse := &Query{
		Kind:     KindSimulate,
		Spec:     Spec{Protocol: "flock", Param: 4},
		Simulate: &SimulateParams{X: 8},
	}
	verbose := &Query{
		Kind:     KindSimulate,
		Spec:     Spec{Protocol: "flock", Param: 4},
		Simulate: &SimulateParams{X: 8, Trials: 1, Seed: 1, MaxSteps: 1 << 20, Scheduler: "weighted"},
	}
	if a, b := mustKey(t, terse), mustKey(t, verbose); a != b {
		t.Fatalf("defaulted and explicit queries split keys: %s vs %s", a, b)
	}

	// A batching scheduler's batch/eps defaults are spelled out in the
	// canonical form, so omitting them keys like writing them.
	ta := &Query{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: 8, Scheduler: "auto"}}
	va := &Query{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: 8, Scheduler: "auto", Batch: 64, Eps: 0.05}}
	if a, b := mustKey(t, ta), mustKey(t, va); a != b {
		t.Fatalf("auto batch/eps defaults split keys: %s vs %s", a, b)
	}

	tv := &Query{Kind: KindVerify, Spec: Spec{Protocol: "flock", Param: 4}, Verify: &VerifyParams{}}
	vv := &Query{Kind: KindVerify, Spec: Spec{Protocol: "flock", Param: 4}, Verify: &VerifyParams{MaxX: 7, Budget: 1 << 20}}
	if a, b := mustKey(t, tv), mustKey(t, vv); a != b {
		t.Fatalf("verify max_x default (n+3) split keys: %s vs %s", a, b)
	}

	tb := &Query{Kind: KindBounds, Bounds: &BoundsParams{Op: "thm43"}}
	vb := &Query{Kind: KindBounds, Bounds: &BoundsParams{Op: "thm43", D: 10, W: 2, L: 2}}
	if a, b := mustKey(t, tb), mustKey(t, vb); a != b {
		t.Fatalf("bounds defaults split keys: %s vs %s", a, b)
	}

	ts := &Query{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2, 4}}}
	vs := &Query{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4},
		Sweep: &SweepParams{Sizes: []int64{2, 4}, Trials: 10, Seed: 1, MaxSteps: 1 << 20, Scheduler: "weighted", Block: 3}}
	if a, b := mustKey(t, ts), mustKey(t, vs); a != b {
		t.Fatalf("sweep defaults split keys: %s vs %s", a, b)
	}
	// The stop-rule floor default is spelled out too: an enabled rule
	// with a defaulted floor keys like the explicit floor.
	tr := &Query{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2, 4}, CITarget: 0.05}}
	vr := &Query{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2, 4}, CITarget: 0.05, MinTrials: 8}}
	if a, b := mustKey(t, tr), mustKey(t, vr); a != b {
		t.Fatalf("stop-rule floor default split keys: %s vs %s", a, b)
	}
}

func sweepQuery() *Query {
	return &Query{
		Kind: KindSweep,
		Spec: Spec{Protocol: "flock", Param: 4},
		Sweep: &SweepParams{Sizes: []int64{2, 4, 8}, Trials: 8, Seed: 7, MaxSteps: 200000,
			Patience: 1000, Scheduler: "weighted", Block: 2},
	}
}

// Every semantically meaningful sweep field must move the key —
// including the trial block (it changes the stream and the stopping
// boundaries) and the stop rule.
func TestSweepFieldsSplitKeys(t *testing.T) {
	base := mustKey(t, sweepQuery())
	for name, mutate := range map[string]func(*Query){
		"sizes":     func(q *Query) { q.Sweep.Sizes = []int64{2, 4, 16} },
		"trials":    func(q *Query) { q.Sweep.Trials = 9 },
		"seed":      func(q *Query) { q.Sweep.Seed = 8 },
		"block":     func(q *Query) { q.Sweep.Block = 4 },
		"ci_target": func(q *Query) { q.Sweep.CITarget = 0.05 },
		"scheduler": func(q *Query) { q.Sweep.Scheduler = "countbatch" },
	} {
		q := sweepQuery()
		mutate(q)
		if k := mustKey(t, q); k == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// Every semantically meaningful field must move the key.
func TestFieldsSplitKeys(t *testing.T) {
	base := mustKey(t, simQuery())
	for name, mutate := range map[string]func(*Query){
		"param":     func(q *Query) { q.Spec.Param = 5 },
		"protocol":  func(q *Query) { q.Spec.Protocol = "power2" },
		"x":         func(q *Query) { q.Simulate.X = 9 },
		"seed":      func(q *Query) { q.Simulate.Seed = 8 },
		"trials":    func(q *Query) { q.Simulate.Trials = 4 },
		"max_steps": func(q *Query) { q.Simulate.MaxSteps = 100000 },
		"patience":  func(q *Query) { q.Simulate.Patience = 999 },
		"scheduler": func(q *Query) { q.Simulate.Scheduler = "countbatch" },
	} {
		q := simQuery()
		mutate(q)
		if k := mustKey(t, q); k == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []*Query{
		{Kind: "explode"},
		{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}},
		{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: 2}, Verify: &VerifyParams{}},
		{Kind: KindSimulate, Spec: Spec{Protocol: "nope", Param: 4}, Simulate: &SimulateParams{X: 2}},
		{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: -1}},
		{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: 2, Scheduler: "weighted", Batch: 9}},
		{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: 2, Scheduler: "uniform", Eps: 0.1}},
		{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: 2, Scheduler: "auto", Eps: 1.5}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2}, Scheduler: "countbatch", Batch: -1}},
		{Kind: KindVerify, Spec: Spec{Protocol: "majority", Param: 0}, Verify: &VerifyParams{}},
		{Kind: KindVerify, Spec: Spec{Protocol: "flock", Param: 4}, Verify: &VerifyParams{Budget: -1}},
		{Kind: KindBounds, Bounds: &BoundsParams{Op: "nope"}},
		{Kind: KindBounds, Bounds: &BoundsParams{Op: "thm43", KMax: 5}},
		{Kind: KindBounds, Spec: Spec{Protocol: "flock", Param: 4}, Bounds: &BoundsParams{Op: "thm43"}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2, 2}}},
		{Kind: KindSweep, Spec: Spec{Protocol: "majority", Param: 0}, Sweep: &SweepParams{Sizes: []int64{2}}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2}, Block: -1}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2}, CITarget: 1.5}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2}, MinTrials: 4}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2}}, Verify: &VerifyParams{}},
	}
	for i, q := range bad {
		if _, err := Of(q); err == nil {
			t.Errorf("query %d unexpectedly keyed: %+v", i, q)
		}
	}
	// The removed batched scheduler never keys; the error names auto.
	for _, q := range []*Query{
		{Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 4}, Simulate: &SimulateParams{X: 2, Scheduler: "batched"}},
		{Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4}, Sweep: &SweepParams{Sizes: []int64{2}, Scheduler: "batched", Batch: 64}},
	} {
		if _, err := Of(q); err == nil || !strings.Contains(err.Error(), "auto") {
			t.Errorf("%s with scheduler batched: error %v does not name auto", q.Kind, err)
		}
	}
}

// goldenEntry pins one query's derived key: the cache's on-disk
// addresses must never move under a refactor, or every stored result
// silently misses (cache split) — and a *colliding* change could serve
// stale results for new semantics (cache poisoning). If this test
// fails because the derivation changed on purpose, bump SchemaVersion
// and regenerate with -update.
type goldenEntry struct {
	Name  string          `json:"name"`
	Query json.RawMessage `json:"query"`
	SHA   string          `json:"sha"`
	CRC   string          `json:"crc"`
}

func TestKeyGolden(t *testing.T) {
	queries := map[string]*Query{
		"simulate-flock":     simQuery(),
		"simulate-cb-power2": {Kind: KindSimulate, Spec: Spec{Protocol: "power2", Param: 10}, Simulate: &SimulateParams{X: 1024, Scheduler: "countbatch"}},
		"verify-flock":       {Kind: KindVerify, Spec: Spec{Protocol: "flock", Param: 4}, Verify: &VerifyParams{MaxX: 9, Budget: 1 << 16}},
		"bounds-section8":    {Kind: KindBounds, Bounds: &BoundsParams{Op: "section8", D: 4, T: 2, L: 2}},
		"sweep-flock":        sweepQuery(),
		"sweep-ci-flock": {Kind: KindSweep, Spec: Spec{Protocol: "flock", Param: 4},
			Sweep: &SweepParams{Sizes: []int64{2, 4, 8, 16}, Trials: 48, Block: 4, CITarget: 0.05}},
		"simulate-auto-flock": {Kind: KindSimulate, Spec: Spec{Protocol: "flock", Param: 8}, Simulate: &SimulateParams{X: 4096, Seed: 3, Scheduler: "auto"}},
		"sweep-cb-power2": {Kind: KindSweep, Spec: Spec{Protocol: "power2", Param: 6},
			Sweep: &SweepParams{Sizes: []int64{64, 4096}, Trials: 6, Seed: 5, Scheduler: "countbatch", Batch: 128}},
	}
	golden := filepath.Join("testdata", "key.golden.json")
	if *update {
		var entries []goldenEntry
		for _, name := range []string{"simulate-flock", "simulate-cb-power2", "verify-flock", "bounds-section8", "sweep-flock", "sweep-ci-flock", "simulate-auto-flock", "sweep-cb-power2"} {
			q := queries[name]
			k := mustKey(t, q)
			raw, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, goldenEntry{Name: name, Query: raw, SHA: k.SHA, CRC: k.CRC})
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(queries) {
		t.Fatalf("golden pins %d queries, test builds %d — regenerate with -update", len(entries), len(queries))
	}
	for _, e := range entries {
		q, ok := queries[e.Name]
		if !ok {
			t.Errorf("golden entry %q has no generating query", e.Name)
			continue
		}
		k := mustKey(t, q)
		if k.SHA != e.SHA || k.CRC != e.CRC {
			t.Errorf("%s: key drifted:\n  got  %s / %s\n  want %s / %s\n"+
				"a canonicalization change splits or poisons the cache; if intentional, bump key.SchemaVersion and -update",
				e.Name, k.SHA, k.CRC, e.SHA, e.CRC)
		}
		// The golden also pins the *parsed* form: a query round-tripped
		// through its stored JSON must key identically.
		var rq Query
		if err := json.Unmarshal(e.Query, &rq); err != nil {
			t.Fatal(err)
		}
		if rk := mustKey(t, &rq); rk != k {
			t.Errorf("%s: round-tripped query keys to %s, direct to %s", e.Name, rk, k)
		}
	}
}

// Normalization is idempotent: keying a query twice (the second time
// over its normalized self) cannot move the key.
func TestOfIdempotent(t *testing.T) {
	q := simQuery()
	k1 := mustKey(t, q)
	k2 := mustKey(t, q)
	if k1 != k2 {
		t.Fatalf("re-keying a normalized query moved the key: %s vs %s", k1, k2)
	}
}
