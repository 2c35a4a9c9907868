// Command perfbench is the repository's end-to-end benchmark. One
// command runs one of three closed-loop workloads — verify (the closure
// engine), sweep (the samplers behind the shard pipeline) and serve
// (the ppserve daemon over loopback HTTP) — generated from a workload
// seed, checks every output, and prints the end-to-end metrics by name
// and unit. With --trace 1 it instead records spans around each call
// into a layer's public functions and prints the per-layer metrics and
// the tracing overhead. The last line of standard output is always one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload verify --seed 1 --seconds 10 --trace 0
//	perfbench compare base/ head/
//
// Every file it writes (temp stores, result documents, span dumps)
// lives under .bench_build/ in the current directory. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/hostmeta"
)

// workload is one closed-loop traffic source. Its inputs are a pure
// function of the seed it was built with.
type workload interface {
	// setup builds the inputs and warms caches; it is timed as setup_s.
	setup() error
	// clients is the number of closed-loop clients.
	clients() int
	// window is the number of consecutive operations per measurement
	// window: whole blocks of the stratified stream, so every window
	// runs the same mix.
	window() int64
	// begin starts a measured phase; tr is nil for an untraced phase.
	begin(tr *tracer) error
	// op runs operation seq on client c. With tr non-nil it records
	// spans and, after the timed part, runs the layer probes.
	op(c int, seq int64, tr *tracer) opResult
	// finish runs the end-of-run output checks: how many ran, and one
	// message per failure.
	finish() (checks int, failures []string)
	// extra returns the workload's own end-to-end figures.
	extra(ph phase) map[string]metric
	// layers derives per-layer metrics from a traced phase.
	layers(tr *tracer) map[string]metric
	close()
}

// opResult is one operation's outcome. lat covers the operation only,
// never the probes a traced run adds after it.
type opResult struct {
	lat  time.Duration
	io   time.Duration // part of lat spent in durable store publishes (serve)
	kind string        // workload-defined class (job class, hit/miss)
	work int64         // closure nodes explored (verify)
	err  error
}

var workloadNames = []string{"verify", "sweep", "serve"}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "verify":
		return newVerify(seed), nil
	case "sweep":
		return newSweep(seed), nil
	case "serve":
		return newServe(seed, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// setupRepeats is how many times an untraced run builds its workload;
// setup_s is the median, and the last build is the one measured.
const setupRepeats = 9

// companionOps is how many traced operations a traced run spends on
// each other workload, so that every per-layer metric is measured in
// every traced run (each layer is exercised by one workload only).
var companionOps = map[string]int64{"verify": 14, "sweep": 24, "serve": 320}

// report is the result document of one run.
type report struct {
	Schema      int               `json:"schema"`
	Host        hostmeta.Meta     `json:"host"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       int               `json:"trace"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedRatio float64           `json:"failed_ratio"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// Extra holds the workload-only end-to-end figures (hit/miss
	// latencies, closure throughput) next to the contract metrics, and
	// the unscaled figures the scaled ones were derived from.
	Extra map[string]metric `json:"extra,omitempty"`
	// WindowFactors and WindowDiskFactors are each measurement
	// window's CPU and disk scale factors, SetupFactors and
	// SetupDiskFactors each set-up's, so a shifted factor can be
	// spotted.
	WindowFactors     []float64 `json:"window_factors,omitempty"`
	WindowDiskFactors []float64 `json:"window_disk_factors,omitempty"`
	SetupFactors      []float64 `json:"setup_factors,omitempty"`
	SetupDiskFactors  []float64 `json:"setup_disk_factors,omitempty"`
	Notes             []string  `json:"notes,omitempty"`
	Spans             []string  `json:"spans,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: verify, sweep or serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if _, err := newWorkload(*name, *seed, ""); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir := filepath.Join(cwd, ".bench_build")
	for _, d := range []string{"results", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	r := &report{
		Schema: 1, Host: hostmeta.Collect(), Workload: *name, Seed: *seed,
		Seconds: *seconds, Trace: *trace,
	}
	d := time.Duration(*seconds * float64(time.Second))
	ref, err := newRefKernel(filepath.Join(dir, "tmp", "ref"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *trace == 0 {
		err = runUntraced(r, dir, d, ref)
	} else {
		err = runTraced(r, dir, d, ref)
	}
	if cerr := ref.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.FailedRatio = float64(r.Failed) / float64(max(r.Attempted, 1))
	if err := saveReport(r, dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(r)
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// runUntraced measures the end-to-end metrics.
func runUntraced(r *report, dir string, d time.Duration, ref *refKernel) error {
	var w workload
	var setups, rawSetups, ioSetups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(r.Workload, r.Seed, dir); err != nil {
			return err
		}
		before := ref.time()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("%s setup: %w", r.Workload, err)
		}
		took := time.Since(t0)
		rawSetups = append(rawSetups, took.Seconds())
		if iw, ok := w.(interface{ ioWait() time.Duration }); ok {
			// setup_s leaves the store's file operations out: on a
			// busy disk they doubled serve's set-up, and even scaled
			// by the disk factor they spread it by half between
			// runs. setup_io_s reports them on their own.
			io := min(iw.ioWait(), took)
			took -= io
			ioSetups = append(ioSetups, io.Seconds())
		}
		f, g := scales(before, ref.time())
		setups = append(setups, took.Seconds()*f)
		r.SetupFactors = append(r.SetupFactors, f)
		r.SetupDiskFactors = append(r.SetupDiskFactors, g)
	}
	defer w.close()
	if err := w.begin(nil); err != nil {
		return err
	}
	var seq atomic.Int64
	ph := measure(w, d, &seq, nil, ref)
	tally(r, ph.ops, w)

	lats := make([]time.Duration, len(ph.ops))
	for i, o := range ph.ops {
		lats[i] = o.lat
	}
	lms, raw := latencyMs(lats), latencyMs(ph.raw)
	n := len(ph.ops)
	r.Metrics = map[string]metric{
		"setup_s":      {median(setups), "s", len(setups)},
		"ops_per_s":    {float64(n) / ph.scaled.Seconds(), "1/s", n},
		"op_p50_ms":    {median(lms), "ms", n},
		"op_p99_ms":    {percentile(lms, 0.99), "ms", n},
		"peak_heap_mb": {median(ph.heapMB), "MB", len(ph.heapMB)},
	}
	r.Extra = w.extra(ph)
	r.Extra["failed_ratio"] = metric{float64(r.Failed) / float64(max(r.Attempted, 1)), "ratio", r.Attempted}
	r.Extra["raw_setup_s"] = metric{median(rawSetups), "s", len(rawSetups)}
	if ioSetups != nil {
		r.Extra["setup_io_s"] = metric{median(ioSetups), "s", len(ioSetups)}
	}
	r.Extra["raw_ops_per_s"] = metric{float64(n) / ph.wall.Seconds(), "1/s", n}
	r.Extra["raw_op_p50_ms"] = metric{median(raw), "ms", n}
	r.Extra["raw_op_p99_ms"] = metric{percentile(raw, 0.99), "ms", n}
	r.WindowFactors, r.WindowDiskFactors = ph.factors, ph.diskFactors
	r.Notes = append(r.Notes, fmt.Sprintf("times scaled to the reference speed: mean factor %.3f over %d windows of %d operations",
		ph.meanFactor(), len(ph.factors), w.window()))
	r.Notes = append(r.Notes, classTable(ph.ops)...)
	return nil
}

// classTable renders latency by operation class.
func classTable(ops []opResult) []string {
	by := map[string][]time.Duration{}
	for _, o := range ops {
		by[o.kind] = append(by[o.kind], o.lat)
	}
	kinds := make([]string, 0, len(by))
	for k := range by {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	lines := []string{fmt.Sprintf("class %-26s %8s %12s %12s", "name", "ops", "p50_ms", "p99_ms")}
	for _, k := range kinds {
		l := latencyMs(by[k])
		lines = append(lines, fmt.Sprintf("class %-26s %8d %12.4f %12.4f", k, len(l), median(l), percentile(l, 0.99)))
	}
	return lines
}

// runTraced measures the per-layer metrics: half the time untraced and
// half traced on the chosen workload (their throughput ratio is the
// tracing overhead), then a short traced pass over each other workload.
func runTraced(r *report, dir string, d time.Duration, ref *refKernel) error {
	r.Metrics = map[string]metric{}
	r.Extra = map[string]metric{}
	var ratio float64
	for _, name := range append([]string{r.Workload}, others(r.Workload)...) {
		w, err := newWorkload(name, r.Seed, dir)
		if err != nil {
			return err
		}
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("%s setup: %w", name, err)
		}
		tr := newTracer()
		var ops []opResult
		if name == r.Workload {
			if err := w.begin(nil); err != nil {
				w.close()
				return err
			}
			var seq atomic.Int64
			plain := measure(w, d/2, &seq, nil, ref)
			if err := w.begin(tr); err != nil {
				w.close()
				return err
			}
			traced := measure(w, d/2, &seq, tr, ref)
			ratio = busyThroughput(traced.ops) / busyThroughput(plain.ops)
			// The wall-clock ratio also counts the probes run between a
			// traced phase's operations, so it measures probe cost more
			// than span-recording cost; it is kept for reference.
			r.Extra["trace.overhead_ratio_wall"] = metric{
				(float64(len(traced.ops)) / traced.scaled.Seconds()) / (float64(len(plain.ops)) / plain.scaled.Seconds()),
				"ratio", len(traced.ops)}
			r.WindowFactors = append(plain.factors, traced.factors...)
			r.WindowDiskFactors = append(plain.diskFactors, traced.diskFactors...)
			ops = append(plain.ops, traced.ops...)
		} else {
			if err := w.begin(tr); err != nil {
				w.close()
				return err
			}
			ops = runOps(w, 0, companionOps[name], tr)
		}
		// Layers first: their consistency checks are reported by finish.
		for k, v := range w.layers(tr) {
			r.Metrics[k] = v
		}
		tally(r, ops, w)
		if n, ok := w.(interface{ notes() []string }); ok {
			r.Notes = append(r.Notes, n.notes()...)
		}
		spans := tr.snapshot()
		r.Notes = append(r.Notes, spanTable(name, spans)...)
		path := filepath.Join(dir, "results", fmt.Sprintf("spans-%s-s%d-%s.jsonl", r.Workload, r.Seed, name))
		if err := writeSpans(path, spans); err != nil {
			w.close()
			return err
		}
		r.Spans = append(r.Spans, path)
		w.close()
	}
	r.Metrics["trace.overhead_ratio"] = metric{ratio, "ratio", 1}
	return nil
}

func others(name string) []string {
	var out []string
	for _, n := range workloadNames {
		if n != name {
			out = append(out, n)
		}
	}
	return out
}

// busyThroughput is operations per second of client-busy time, so
// that probe work between the operations of a traced phase does not
// count.
func busyThroughput(ops []opResult) float64 {
	var busy time.Duration
	for _, o := range ops {
		busy += o.lat
	}
	return float64(len(ops)) / max(busy.Seconds(), 1e-9)
}

// tally folds operation errors and the workload's end checks into r.
func tally(r *report, ops []opResult, w workload) {
	r.Attempted += len(ops)
	for _, o := range ops {
		if o.err != nil {
			r.Failed++
			if len(r.Failures) < 20 {
				r.Failures = append(r.Failures, o.err.Error())
			}
		}
	}
	checks, fails := w.finish()
	r.Attempted += checks
	r.Failed += len(fails)
	r.Failures = append(r.Failures, fails...)
}

// spanTable renders per-name span totals with self times.
func spanTable(name string, spans []span) []string {
	sums := summarize(spans)
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("spans (%s): %-28s %8s %12s %12s", name, "name", "count", "mean_us", "self_us")}
	for _, n := range names {
		a := sums[n]
		lines = append(lines, fmt.Sprintf("spans (%s): %-28s %8d %12.1f %12.1f", name, n, a.count,
			a.meanUs(), float64(a.self)/1e3/float64(max(a.count, 1))))
	}
	return lines
}

// saveReport writes the result document to results/ under dir.
func saveReport(r *report, dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "results", fmt.Sprintf("%s-s%d-t%d.json", r.Workload, r.Seed, r.Trace))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints the human-readable report, then the one-line JSON
// result as the last line.
func printReport(r *report) {
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d  host: %d cpu, GOMAXPROCS %d, %s, commit %q\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	for _, n := range r.Notes {
		fmt.Println(n)
	}
	printMetrics := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Printf("%-8s %-34s %14.4f %-6s (n=%d)\n", title, n, m.Value, m.Unit, m.Samples)
		}
	}
	printMetrics("metric", r.Metrics)
	printMetrics("extra", r.Extra)
	for _, f := range r.Failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("attempted=%d failed=%d failed_ratio=%g\n", r.Attempted, r.Failed, r.FailedRatio)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(r.Metrics))
	for n, m := range r.Metrics {
		vals[n] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, vals})
	fmt.Println(string(line))
}
