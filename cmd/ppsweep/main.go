// Command ppsweep orchestrates sharded population-protocol sweeps: it
// plans a sweep into self-contained shards (cost-weighted so large-x
// shards don't straggle), runs one shard (the worker role, one
// invocation per shard, on any host), drives a whole fleet through a
// shared-directory dispatch queue with lease-based retry and
// crash resume, and merges the partial artifacts back into exactly
// the single-process sweep result.
//
// Usage:
//
//	ppsweep plan -protocol flock -param 8 -sizes 16,64,256 -trials 20 \
//	        -seed 1 -shards 4 -cost auto -block 5 -o plan.json
//	ppsweep run -plan plan.json -shard s002 -o part-s002.json
//	ppsweep run -plan plan.json -shard s002 -partials cells/   # resumable
//	ppsweep run -plan plan.json -shard s002 -partials cells/ -ci-target 0.05
//	ppsweep dispatch -plan plan.json -dir queue/ -ci-target 0.05 -o merged.json
//	ppsweep merge -o merged.json part-*.json
//	ppsweep merge -partial -o partial.json queue/
//	ppsweep status -plan plan.json -dir queue/
//	ppsweep merge-bench BENCH_PR1.json BENCH_PR2.json BENCH_PR4.json
//
// plan partitions the (size × trial) grid deterministically: the same
// flags always produce the identical manifest, so independent hosts
// can re-derive the plan instead of shipping it. It rejects a spec no
// worker could run, including -batch/-eps on a scheduler other than
// countbatch or auto and -eps outside (0, 1). -cost weighs cells
// by expected work (auto picks ~x for the exact schedulers, ~log x
// for countbatch and auto; uniform reproduces equal trial counts) and cuts
// shards at equal cost. run executes one shard's trials with
// positionally derived seeds and writes a partial artifact stamped
// with host metadata; SIGINT cancels promptly, leaving no artifact;
// with -partials each completed cell is persisted by atomic rename
// and a rerun resumes from the surviving cells. dispatch runs one
// queue worker per invocation: start it on every host against a
// shared directory and the fleet leases shards, heartbeats, steals
// expired leases from dead workers (per-shard attempt cap), resumes
// from their cell partials, and — when every shard has an artifact —
// merges. Every persisted artifact carries a content checksum,
// verified on read; corrupt files are quarantined into corrupt/ and
// recomputed, transient I/O errors are retried with jittered backoff,
// and the counters printed on exit say how often each happened.
// dispatch exits 0 on a drained queue, 3 when shards failed
// terminally, 4 when interrupted, 5 when queue I/O gave up after
// retries, 1 otherwise. merge verifies the artifacts belong to one
// sweep, detects
// overlapping or missing shards and mixed schema versions, folds the
// mergeable accumulators, and writes a merged document that is
// bit-identical to what an unsharded run of the same spec would have
// produced. merge-bench folds ppbench -json timing artifacts from
// many hosts or PRs into one per-experiment trajectory table.
//
// Sweeps are anytime computations. plan -block dices the trial axis
// into fixed blocks so cell boundaries — the granularity of resumable
// persistence, streamed deltas, and stopping decisions — are
// independent of the shard count. -ci-target enables sequential
// stopping on run and dispatch: a size stops once its 95% CI
// half-width falls to the target fraction of its mean steps (after
// the -min-trials floor), and remaining cells are cancelled; the
// reported document is truncated at the same canonical boundary by
// the merge, so stopping never changes results, only how much work
// they cost. merge -partial folds any subset of artifacts and cell
// partials (pass queue directories or files) into a valid document
// with per-point trials_done/trials_planned completeness; with every
// cell present it is byte-identical to a strict merge. status renders
// that view for a live queue directory without writing anything.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/registry"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppsweep:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps failure classes to distinct exit codes so wrapper
// scripts and CI can branch without parsing stderr: 3 = one or more
// shards failed terminally (the work keeps dying — inspect
// failed-*.json), 4 = interrupted/cancelled (rerun resumes), 5 = queue
// storage gave up after transient retries (fix the filesystem, rerun),
// 1 = everything else (bad flags, corrupt plan, …).
func exitCode(err error) int {
	switch {
	case errors.Is(err, shard.ErrShardsFailed):
		return 3
	case errors.Is(err, context.Canceled):
		return 4
	case errors.Is(err, shard.ErrQueueIO):
		return 5
	default:
		return 1
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: ppsweep <plan|run|dispatch|merge|status|merge-bench> [flags] (see -h of each subcommand)")
	}
	switch args[0] {
	case "plan":
		return runPlan(args[1:], out)
	case "run":
		return runShard(ctx, args[1:], out)
	case "dispatch":
		return runDispatch(ctx, args[1:], out)
	case "merge":
		return runMerge(args[1:], out)
	case "status":
		return runStatus(args[1:], out)
	case "merge-bench":
		return runMergeBench(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (have plan, run, dispatch, merge, status, merge-bench)", args[0])
	}
}

// stopRuleFlags registers the sequential-stopping flags shared by run,
// dispatch, merge and status; the returned closure builds and
// validates the rule after parsing.
func stopRuleFlags(fs *flag.FlagSet) func() (sim.StopRule, error) {
	ci := fs.Float64("ci-target", 0, "sequential stopping: stop a size once its 95% CI half-width is ≤ this fraction of its mean steps (0 = run every trial)")
	mt := fs.Int("min-trials", 0, "never stop a size before this many trials (0 = default 8; requires -ci-target)")
	return func() (sim.StopRule, error) {
		rule := sim.StopRule{TargetRelCI: *ci, MinTrials: *mt}
		if err := rule.Validate(); err != nil {
			return sim.StopRule{}, err
		}
		return rule, nil
	}
}

func runPlan(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppsweep plan", flag.ContinueOnError)
	var (
		protocol  = fs.String("protocol", "", fmt.Sprintf("construction: %v", registry.Names()))
		param     = fs.Int64("param", 2, "construction parameter (n or k)")
		inState   = fs.String("input", "i", "input state holding the swept agent count")
		sizes     = fs.String("sizes", "", "comma-separated population sizes, e.g. 8,64,512")
		trials    = fs.Int("trials", 10, "trials per size")
		seed      = fs.Int64("seed", 1, "sweep base seed")
		steps     = fs.Int("steps", 0, "max interactions per run (0 = sim default)")
		patience  = fs.Int("patience", 0, "consensus patience (0 = whole-run mode)")
		scheduler = fs.String("scheduler", "", "scheduler: weighted (default), uniform, countbatch, auto")
		batch     = fs.Int("batch", 0, "countbatch/auto aggregation threshold (0 = sim default)")
		eps       = fs.Float64("eps", 0, "countbatch/auto drift tolerance in (0,1) (0 = sim default)")
		shards    = fs.Int("shards", 1, "number of shards to plan")
		cost      = fs.String("cost", "auto", "cell cost model: auto (scheduler-aware), uniform (equal trial counts), linear, log")
		block     = fs.Int("block", 0, "dice each size's trial axis into blocks of this many trials, so cell boundaries are shard-count independent (0 = one cell per size per shard)")
		outPath   = fs.String("o", "plan.json", "manifest output path")
	)
	if err := fs.Parse(args); err != nil {
		return flagErr(err)
	}
	xs, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	sw := shard.SweepSpec{
		Protocol:   *protocol,
		Param:      *param,
		InputState: *inState,
		Sizes:      xs,
		Trials:     *trials,
		Seed:       *seed,
		MaxSteps:   *steps,
		Patience:   *patience,
		Scheduler:  *scheduler,
		Batch:      *batch,
		Epsilon:    *eps,
	}
	// Fail at plan time, not on the worker: the protocol must exist and
	// decide a counting predicate.
	if _, _, err := sw.Build(); err != nil {
		return err
	}
	model, err := shard.CostByName(*cost, sw.Scheduler)
	if err != nil {
		return err
	}
	m, err := shard.PlanCostBlock(sw, *shards, model, *block)
	if err != nil {
		return err
	}
	if err := writeJSON(*outPath, m); err != nil {
		return err
	}
	fmt.Fprintf(out, "planned %d shards over %d sizes × %d trials (cost model %s, imbalance %.2f) -> %s\n",
		len(m.Shards), len(sw.Sizes), sw.Trials, model.Name(), m.Imbalance(model), *outPath)
	for _, s := range m.Shards {
		fmt.Fprintf(out, "  %s: %d trials in %d cells, cost %d\n", s.ID, s.Trials(), len(s.Cells), s.Cost(model))
	}
	return nil
}

func runShard(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppsweep run", flag.ContinueOnError)
	var (
		planPath = fs.String("plan", "plan.json", "manifest path (from ppsweep plan)")
		shardID  = fs.String("shard", "", "shard id to execute, e.g. s002")
		workers  = fs.Int("workers", 0, "worker budget for the trial pool and scheduler draws (0 = all cores); results are identical for any value")
		partials = fs.String("partials", "", "resume directory: persist each cell on completion (atomic rename) and skip cells already present")
		outPath  = fs.String("o", "", "artifact output path (default part-<shard>.json)")
	)
	ruleOf := stopRuleFlags(fs)
	if err := fs.Parse(args); err != nil {
		return flagErr(err)
	}
	if *shardID == "" {
		return errors.New("run: -shard is required")
	}
	rule, err := ruleOf()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if rule.Enabled() && *partials == "" {
		return errors.New("run: -ci-target needs -partials; stopping decisions fold the cells persisted there")
	}
	var m shard.Manifest
	if err := readJSON(*planPath, &m); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	var art *shard.Artifact
	var counters shard.Counters
	if *partials != "" {
		art, counters, err = shard.RunResumableStop(ctx, &m, *shardID, *workers, *partials, rule, nil)
	} else {
		art, err = shard.Run(ctx, &m, *shardID, *workers)
	}
	if err != nil {
		return err
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("part-%s.json", *shardID)
	}
	if err := shard.WriteArtifact(path, art); err != nil {
		return err
	}
	trials := 0
	for _, pt := range art.Points {
		trials += pt.Stats.Trials
	}
	fmt.Fprintf(out, "shard %s: %d trials over %d cells -> %s\n", *shardID, trials, len(art.Points), path)
	if *partials != "" {
		fmt.Fprintf(out, "  %s\n", counters)
	}
	return nil
}

// runDispatch is one worker of a shared-directory shard queue: it
// leases open shards, executes them resumably (cell partials under
// <dir>/partials), steals expired leases from dead or wedged peers,
// and — once every shard of the plan has an artifact — optionally
// merges. Start one per host against a shared directory.
func runDispatch(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppsweep dispatch", flag.ContinueOnError)
	var (
		planPath    = fs.String("plan", "plan.json", "manifest path (from ppsweep plan)")
		dir         = fs.String("dir", "", "shared queue directory (leases, artifacts, cell partials)")
		workers     = fs.Int("workers", 0, "worker budget for the trial pool and scheduler draws (0 = all cores); results are identical for any value")
		leaseTTL    = fs.Duration("lease-ttl", time.Minute, "steal a shard whose lease heartbeat sequence number has not advanced for this long of local time")
		heartbeat   = fs.Duration("heartbeat", 0, "lease refresh period (0 = lease-ttl/4)")
		maxAttempts = fs.Int("max-attempts", 3, "per-shard acquisition cap before the shard is marked failed")
		poll        = fs.Duration("poll", 500*time.Millisecond, "initial queue rescan delay while peers hold every open shard (backs off with jitter)")
		pollMax     = fs.Duration("poll-max", 0, "idle rescan backoff cap (0 = 8×poll)")
		retries     = fs.Int("retry-attempts", 0, "tries per queue operation before giving up on transient I/O errors (0 = 5)")
		retryBase   = fs.Duration("retry-base", 0, "first transient-retry backoff, doubling with full jitter (0 = 20ms)")
		failAfter   = fs.Int("fail-after-cells", 0, "TESTING: die after persisting N cells, leaving lease and partials (simulates SIGKILL)")
		chaosSeed   = fs.Int64("chaos-seed", 0, "TESTING: inject a deterministic fault schedule derived from this seed into queue I/O")
		chaosFaults = fs.Int("chaos-faults", 0, "TESTING: number of faults in the -chaos-seed schedule (0 with a seed = 16)")
		outPath     = fs.String("o", "", "also merge the drained queue to this path")
	)
	ruleOf := stopRuleFlags(fs)
	if err := fs.Parse(args); err != nil {
		return flagErr(err)
	}
	if *dir == "" {
		return errors.New("dispatch: -dir is required")
	}
	rule, err := ruleOf()
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	var m shard.Manifest
	if err := readJSON(*planPath, &m); err != nil {
		return err
	}
	var fsys faultfs.FS
	if *chaosSeed != 0 || *chaosFaults > 0 {
		n := *chaosFaults
		if n <= 0 {
			n = 16
		}
		faulty := faultfs.NewFaulty(faultfs.OS(), faultfs.RandomSchedule(*chaosSeed, n))
		defer func() {
			for _, f := range faulty.Fired() {
				fmt.Fprintf(out, "chaos: injected %s\n", f)
			}
		}()
		fsys = faulty
	}
	res, err := shard.Dispatch(ctx, &m, shard.DispatchOptions{
		Dir:            *dir,
		Workers:        *workers,
		LeaseTTL:       *leaseTTL,
		Heartbeat:      *heartbeat,
		MaxAttempts:    *maxAttempts,
		Poll:           *poll,
		PollMax:        *pollMax,
		RetryAttempts:  *retries,
		RetryBase:      *retryBase,
		FS:             fsys,
		FailAfterCells: *failAfter,
		Stop:           rule,
	})
	// Counters surface on every exit path — a failed dispatch is
	// exactly when operators need the degradation story.
	fmt.Fprintf(out, "dispatch counters: %s\n", res.Counters)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dispatch drained: this worker completed %d of %d shards %v\n",
		len(res.Completed), len(m.Shards), res.Completed)
	if *outPath == "" {
		return nil
	}
	arts, err := shard.CollectArtifacts(*dir, &m)
	if err != nil {
		return err
	}
	if rule.Enabled() {
		// Stopped shards carry truncated trial ranges, so the strict
		// tiling merge does not apply: fold through the anytime path,
		// which re-derives the canonical stopping boundary.
		sw, pts, err := shard.CollectPartial(arts, nil)
		if err != nil {
			return err
		}
		merged, err := shard.MergePartial(sw, pts, rule)
		if err != nil {
			return err
		}
		if err := writeJSON(*outPath, merged); err != nil {
			return err
		}
		fmt.Fprintf(out, "merged %d artifacts (stop rule applied) -> %s\n", len(arts), *outPath)
		printAnytimeTable(out, merged)
		return nil
	}
	merged, err := shard.Merge(arts)
	if err != nil {
		return err
	}
	if err := writeJSON(*outPath, merged); err != nil {
		return err
	}
	fmt.Fprintf(out, "merged %d artifacts -> %s\n", len(arts), *outPath)
	printMergedTable(out, merged)
	return nil
}

func runMerge(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppsweep merge", flag.ContinueOnError)
	outPath := fs.String("o", "merged.json", "merged output path")
	partial := fs.Bool("partial", false, "anytime merge: fold any subset of artifacts, cell partials and queue directories into a prefix-valid document with per-point completeness")
	ruleOf := stopRuleFlags(fs)
	if err := fs.Parse(args); err != nil {
		return flagErr(err)
	}
	rule, err := ruleOf()
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if rule.Enabled() && !*partial {
		return errors.New("merge: -ci-target implies an anytime merge; add -partial")
	}
	if fs.NArg() == 0 {
		return errors.New("merge: no artifact files given")
	}
	arts, cells, err := loadMergeInputs(fs.Args())
	if err != nil {
		return err
	}
	if *partial {
		sw, pts, err := shard.CollectPartial(arts, cells)
		if err != nil {
			return err
		}
		merged, err := shard.MergePartial(sw, pts, rule)
		if err != nil {
			return err
		}
		if err := writeJSON(*outPath, merged); err != nil {
			return err
		}
		fmt.Fprintf(out, "merged %d artifacts + %d cells (anytime) -> %s\n", len(arts), len(cells), *outPath)
		printAnytimeTable(out, merged)
		return nil
	}
	if len(cells) > 0 {
		return fmt.Errorf("merge: %d cell partials among the inputs; cell-granularity inputs need -partial", len(cells))
	}
	merged, err := shard.Merge(arts)
	if err != nil {
		// The strict merge demands a complete tiling; incomplete or
		// stopped inputs are the anytime merge's job.
		return fmt.Errorf("%w (for a subset of a sweep, retry with -partial)", err)
	}
	if err := writeJSON(*outPath, merged); err != nil {
		return err
	}
	fmt.Fprintf(out, "merged %d artifacts -> %s\n", len(arts), *outPath)
	printMergedTable(out, merged)
	return nil
}

// loadMergeInputs reads merge arguments of any shape: a directory is
// scanned for part-*.json artifacts and partials/cell-*.json (a queue
// directory works directly), a cell-*.json file is a sealed cell
// partial, anything else must be a shard artifact.
func loadMergeInputs(paths []string) ([]*shard.Artifact, []*shard.CellArtifact, error) {
	var arts []*shard.Artifact
	var cells []*shard.CellArtifact
	for _, path := range paths {
		info, err := os.Stat(path)
		if err != nil {
			return nil, nil, err
		}
		if info.IsDir() {
			a, c, err := shard.ScanPartialDir(path)
			if err != nil {
				return nil, nil, err
			}
			arts = append(arts, a...)
			cells = append(cells, c...)
			continue
		}
		if strings.HasPrefix(filepath.Base(path), "cell-") {
			ca, err := shard.ReadCellFile(path)
			if err != nil {
				return nil, nil, err
			}
			cells = append(cells, ca)
			continue
		}
		a, err := shard.ReadArtifact(path)
		if err != nil {
			return nil, nil, err
		}
		arts = append(arts, a)
	}
	return arts, cells, nil
}

// runStatus renders the anytime view of a queue directory: how much of
// each sweep point is in, which sizes have stopped, and the stats so
// far. It reads what run and dispatch left behind and writes nothing,
// so it is safe to point at a live queue.
func runStatus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppsweep status", flag.ContinueOnError)
	var (
		planPath = fs.String("plan", "plan.json", "manifest path (from ppsweep plan)")
		dir      = fs.String("dir", "", "queue or partials directory to inspect")
	)
	ruleOf := stopRuleFlags(fs)
	if err := fs.Parse(args); err != nil {
		return flagErr(err)
	}
	if *dir == "" {
		return errors.New("status: -dir is required")
	}
	rule, err := ruleOf()
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	var m shard.Manifest
	if err := readJSON(*planPath, &m); err != nil {
		return err
	}
	if err := m.Validate(); err != nil {
		return err
	}
	arts, cells, err := loadMergeInputs([]string{*dir})
	if err != nil {
		return err
	}
	if len(arts) == 0 && len(cells) == 0 {
		fmt.Fprintf(out, "status: nothing computed yet in %s (0 of %d planned trials)\n", *dir, m.Sweep.Trials*len(m.Sweep.Sizes))
		return nil
	}
	sw, pts, err := shard.CollectPartial(arts, cells)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(sw, m.Sweep) {
		return fmt.Errorf("status: artifacts in %s belong to a different sweep than %s", *dir, *planPath)
	}
	merged, err := shard.MergePartial(sw, pts, rule)
	if err != nil {
		return err
	}
	done, planned := 0, 0
	for _, pt := range merged.Points {
		done += pt.Stats.Trials
		planned += sw.Trials
	}
	fmt.Fprintf(out, "status: %d artifacts + %d cells, %d of %d trials folded (%.0f%%)\n",
		len(arts), len(cells), done, planned, 100*float64(done)/float64(planned))
	printAnytimeTable(out, merged)
	return nil
}

// printAnytimeTable is printMergedTable plus completeness: trials done
// against planned and whether the stop rule fired for each size.
func printAnytimeTable(out io.Writer, merged *shard.AnytimeMerged) {
	fmt.Fprintf(out, "%10s %8s %8s %8s %10s %8s %14s %14s\n",
		"x", "done", "planned", "stopped", "converged", "correct", "mean steps", "±95% CI")
	for _, pt := range merged.Points {
		st := &pt.Stats
		done, planned := st.Trials, pt.TrialsPlanned
		if planned == 0 {
			planned = st.Trials
		}
		stoppedMark := ""
		if pt.Stopped {
			stoppedMark = "yes"
		}
		fmt.Fprintf(out, "%10d %8d %8d %8s %10d %8d %14.1f %14.1f\n",
			pt.X, done, planned, stoppedMark, st.Converged, st.Correct, st.MeanSteps(), st.HalfCI95Steps())
	}
}

func printMergedTable(out io.Writer, merged *shard.Merged) {
	fmt.Fprintf(out, "%10s %8s %10s %8s %14s %14s\n",
		"x", "trials", "converged", "correct", "mean steps", "±95% CI")
	for _, pt := range merged.Points {
		st := &pt.Stats
		fmt.Fprintf(out, "%10d %8d %10d %8d %14.1f %14.1f\n",
			pt.X, st.Trials, st.Converged, st.Correct, st.MeanSteps(), st.HalfCI95Steps())
	}
}

// runMergeBench folds ppbench -json timing artifacts from many hosts
// or PRs into one per-experiment trajectory table (columns in
// argument order — pass oldest first).
func runMergeBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppsweep merge-bench", flag.ContinueOnError)
	outPath := fs.String("o", "", "also write the merged trajectory as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return flagErr(err)
	}
	if fs.NArg() == 0 {
		return errors.New("merge-bench: no timing artifact files given")
	}
	labels := make([]string, 0, fs.NArg())
	arts := make([]*experiments.BenchArtifact, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		a, err := experiments.ParseBenchArtifact(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		labels = append(labels, strings.TrimSuffix(filepath.Base(path), ".json"))
		arts = append(arts, a)
	}
	tr, err := experiments.MergeBench(labels, arts)
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, tr); err != nil {
			return err
		}
		fmt.Fprintf(out, "merged %d timing artifacts -> %s\n", len(arts), *outPath)
	}
	fmt.Fprint(out, tr.Render())
	return nil
}

func parseSizes(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("plan: -sizes is required, e.g. -sizes 8,64,512")
	}
	parts := strings.Split(s, ",")
	xs := make([]int64, 0, len(parts))
	for _, p := range parts {
		x, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("plan: bad size %q: %w", p, err)
		}
		xs = append(xs, x)
	}
	return xs, nil
}

func flagErr(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
