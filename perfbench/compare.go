package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compareMain is the regression gate: given two directories of result
// documents, it prints for each workload and end-to-end metric both
// medians, both quartile spreads and whether the move exceeds the
// metric's bound in BENCHMARK.json (read from the repository root, where
// run.sh runs), then the per-layer rows that moved most. It exits 1 when
// any end-to-end metric regressed past its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE_DIR HEAD_DIR")
		return 2
	}
	base, err := loadReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	head, err := loadReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}

	regressed := 0
	fmt.Printf("%-8s %-16s %12s %8s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "base_median", "spread", "head_median", "spread", "move", "bound", "verdict")
	bv, hv := values(base, 0), values(head, 0)
	for _, k := range sortedKeys(bv) {
		b, h := bv[k], hv[k]
		if len(h) == 0 {
			continue
		}
		bm, hm := median(b), median(h)
		move := (hm - bm) / bm
		verdict := "ok"
		bd, ok := bounds[k.metric]
		switch {
		case !ok:
			verdict = "no bound"
		case bd.worse(move) > bd.Bound:
			verdict = "REGRESSED"
			regressed++
		case spread(b) > bd.Bound || spread(h) > bd.Bound:
			verdict = "unresolved (spread above bound)"
		}
		fmt.Printf("%-8s %-16s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %5.0f%%  %s\n",
			k.workload, k.metric, bm, 100*spread(b), hm, 100*spread(h), 100*move, 100*bd.Bound, verdict)
	}

	type moved struct {
		rowKey
		base, head, rel float64
	}
	var rows []moved
	bl, hl := values(base, 1), values(head, 1)
	for _, k := range sortedKeys(bl) {
		if len(hl[k]) == 0 {
			continue
		}
		bm, hm := median(bl[k]), median(hl[k])
		rel := (hm - bm) / math.Max(math.Abs(bm), 1e-12)
		rows = append(rows, moved{k, bm, hm, rel})
	}
	sort.SliceStable(rows, func(i, j int) bool { return math.Abs(rows[i].rel) > math.Abs(rows[j].rel) })
	if len(rows) > 0 {
		fmt.Printf("\nper-layer rows that moved most:\n%-8s %-34s %14s %14s %8s\n", "workload", "metric", "base_median", "head_median", "move")
	}
	for i, r := range rows {
		if i == topLayerRows {
			break
		}
		fmt.Printf("%-8s %-34s %14.4f %14.4f %+7.1f%%\n", r.workload, r.metric, r.base, r.head, 100*r.rel)
	}
	if regressed > 0 {
		fmt.Printf("\n%d end-to-end metric(s) regressed past their bound\n", regressed)
		return 1
	}
	return 0
}

// topLayerRows is how many per-layer rows compare prints.
const topLayerRows = 10

type rowKey struct{ workload, metric string }

// values groups the metric values of the documents with the given
// trace setting by workload and metric.
func values(reports []*report, trace int) map[rowKey][]float64 {
	out := map[rowKey][]float64{}
	for _, r := range reports {
		if r.Trace != trace {
			continue
		}
		for name, m := range r.Metrics {
			k := rowKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

func sortedKeys(m map[rowKey][]float64) []rowKey {
	keys := make([]rowKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	return keys
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Max(math.Abs(median(xs)), 1e-12)
}

type bound struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worse returns how much worse a relative move is (negative: better).
func (b bound) worse(move float64) float64 {
	if b.Better == "higher" {
		return -move
	}
	return move
}

func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var desc struct {
		EndToEnd []struct {
			Name string `json:"name"`
			bound
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &desc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range desc.EndToEnd {
		out[m.Name] = m.bound
	}
	return out, nil
}

// loadReports reads every *.json result document of a directory.
func loadReports(dir string) ([]*report, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result documents", dir)
	}
	return out, nil
}
