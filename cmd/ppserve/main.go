// Command ppserve runs the protocol-query daemon, its replay client,
// and the store garbage collector.
//
// Usage:
//
//	ppserve serve -addr 127.0.0.1:8372 -store ppserve-store \
//	        [-deadline 30s] [-store-max-mb 512] [-chaos-seed N -chaos-faults M]
//	ppserve replay -addr http://127.0.0.1:8372 -file queries.jsonl \
//	        -passes 2 -min-hit-rate 0.9
//	ppserve gc -store ppserve-store [-quarantine-ttl 168h]
//
// serve starts the long-lived daemon: POST /v1/simulate, /v1/verify
// and /v1/bounds evaluate queries with a persistent content-addressed
// result cache under -store (a repeated query — in any equivalent
// spelling — is a file read, across restarts). POST /v1/sweep runs an
// anytime size sweep and streams NDJSON: one checksummed cell delta
// per finished (size, trial-block) cell while the compute runs, then
// a terminal merged document byte-identical to the cached artifact —
// a warm replay gets just the terminal line. Sweep bodies take the
// ppsweep vocabulary (sizes, trials, block, ci_target, min_trials);
// with ci_target each size stops once its 95% CI half-width reaches
// that fraction of its mean. GET /v1/jobs/{id}
// inspects a request's lifecycle record, GET /v1/keys pages the store
// inventory, GET /metrics reports the cache hit rate, per-phase
// latencies, admission balance and store footprint, and GET /healthz
// and /readyz are the liveness and readiness probes (/readyz goes 503
// while the store is degraded to compute-only mode). Every request
// runs under a compute deadline — -deadline, or a per-query default
// priced from its admission cost — and times out as 503 with a
// Retry-After hint. -store-max-mb bounds the store with LRU eviction.
// -addr may end in :0 to pick a free port; -addr-file writes the
// actual listening address for scripts to read. SIGINT shuts the
// daemon down gracefully. -chaos-seed/-chaos-faults inject a seeded
// fault schedule under the store for chaos drills: the daemon must
// keep answering correctly (recomputing or degrading as needed).
//
// replay streams a JSONL query file (one {"path": ..., "body": {...}}
// object per line; blank and #-comment lines skipped) at a running
// daemon, -passes times over, and reports each pass's cache hit rate
// from the X-Cache response headers. With -min-hit-rate it exits
// non-zero when the final pass's rate falls below the floor — the CI
// serve-smoke drill replays a mixed query file twice and requires
// ≥0.9 on the warm pass.
//
// gc runs an offline collection pass over a store directory: every
// artifact is checksum-verified (corrupt ones quarantined), stray
// publish temp files are swept, quarantine entries older than
// -quarantine-ttl are dropped, and the access journal is compacted.
// Run it offline — never against a live daemon's store.
//
// Exit codes: 0 = success, including a gc pass that found and
// repaired recoverable damage (corruption quarantined, strays swept);
// 1 = hard error — bad flags, bind failure, replay below the hit-rate
// floor, unreadable store.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/faultfs"
	"repro/internal/serve"
	"repro/internal/serve/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ppserve:", err)
		os.Exit(1)
	}
}

// run runs one subcommand. Asking a subcommand for help is not an
// error: its flag parse prints the usage and returns flag.ErrHelp
// before the subcommand opens a store or a listener, and run reports
// success.
func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("subcommand required: serve | replay")
	}
	var err error
	switch args[0] {
	case "serve":
		err = runServe(ctx, args[1:], out)
	case "replay":
		err = runReplay(ctx, args[1:], out)
	case "gc":
		err = runGC(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	return err
}

func runServe(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppserve serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address (port 0 picks a free port)")
	storeDir := fs.String("store", "ppserve-store", "result store directory")
	workers := fs.Int("workers", 0, "per-query worker budget (0 = all cores)")
	admit := fs.Int64("admit", 0, "admission bucket capacity in cost units (0 = default)")
	jobWindow := fs.Int("job-window", 0, "jobs kept for /v1/jobs (0 = default)")
	addrFile := fs.String("addr-file", "", "write the actual listening address to this file")
	deadline := fs.Duration("deadline", 0, "per-request compute deadline (0 = priced per query from its admission cost)")
	storeMaxMB := fs.Int64("store-max-mb", 0, "store footprint bound in MiB, enforced by LRU eviction (0 = unbounded)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the injected fault schedule (with -chaos-faults)")
	chaosFaults := fs.Int("chaos-faults", 0, "inject this many seeded faults under the store (0 = none; chaos drills only)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var storeFS faultfs.FS
	var faulty *faultfs.Faulty
	if *chaosFaults > 0 {
		schedule := faultfs.RandomSchedule(*chaosSeed, *chaosFaults)
		faulty = faultfs.NewFaulty(faultfs.OS(), schedule)
		storeFS = faulty
		fmt.Fprintf(out, "ppserve: CHAOS MODE: %d faults from seed %d under the store\n", len(schedule), *chaosSeed)
	}
	s, err := serve.New(serve.Config{
		StoreDir:      *storeDir,
		Workers:       *workers,
		AdmitCapacity: *admit,
		JobWindow:     *jobWindow,
		Deadline:      *deadline,
		StoreMaxBytes: *storeMaxMB << 20,
		FS:            storeFS,
	})
	if err != nil {
		return err
	}
	defer func() {
		if faulty != nil {
			for _, f := range faulty.Fired() {
				fmt.Fprintf(out, "ppserve: chaos fired: %s\n", f)
			}
		}
	}()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	actual := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(actual+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(out, "ppserve: listening on http://%s (store %s)\n", actual, *storeDir)

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "ppserve: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runGC runs one offline store collection pass and prints the report.
// Recoverable damage it repaired is still exit 0: the store is
// healthy afterwards, which is what a cron invocation cares about.
func runGC(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppserve gc", flag.ContinueOnError)
	storeDir := fs.String("store", "ppserve-store", "result store directory")
	ttl := fs.Duration("quarantine-ttl", 7*24*time.Hour, "drop quarantined files older than this (0 = keep forever)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	rep, err := store.GC(*storeDir, store.GCOptions{QuarantineTTL: *ttl})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "gc %s: %d objects (%d bytes) verified=%d quarantined=%d dropped_tmp=%d dropped_quarantine=%d journal_lines=%d\n",
		*storeDir, rep.Objects, rep.Bytes, rep.Verified, rep.Quarantined, rep.DroppedTmp, rep.DroppedQuarantine, rep.JournalLines)
	return nil
}

// replayQuery is one line of a replay file.
type replayQuery struct {
	Path string          `json:"path"`
	Body json.RawMessage `json:"body"`
}

// parseFlags parses a subcommand's flags and rejects a positional
// argument: the flag package stops at the first one, so the flags
// after it would go unread.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

func readQueries(path string) ([]replayQuery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var queries []replayQuery
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var q replayQuery
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !strings.HasPrefix(q.Path, "/v1/") || len(q.Body) == 0 {
			return nil, fmt.Errorf("%s:%d: need a /v1/... path and a body", path, line)
		}
		queries = append(queries, q)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("%s: no queries", path)
	}
	return queries, nil
}

func runReplay(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ppserve replay", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8372", "daemon base URL")
	file := fs.String("file", "", "JSONL query file (required)")
	passes := fs.Int("passes", 2, "number of replay passes")
	minHitRate := fs.Float64("min-hit-rate", 0, "fail unless the final pass's hit rate reaches this floor")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("-file is required")
	}
	if *passes < 1 {
		return fmt.Errorf("-passes must be positive (got %d)", *passes)
	}
	queries, err := readQueries(*file)
	if err != nil {
		return err
	}
	base := strings.TrimSuffix(*addr, "/")
	client := &http.Client{}
	var lastRate float64
	for pass := 1; pass <= *passes; pass++ {
		hits := 0
		for i, q := range queries {
			req, err := http.NewRequestWithContext(ctx, "POST", base+q.Path, bytes.NewReader(q.Body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("pass %d query %d (%s): %s: %s", pass, i+1, q.Path, resp.Status, bytes.TrimSpace(body))
			}
			if resp.Header.Get("X-Cache") == "hit" {
				hits++
			}
		}
		lastRate = float64(hits) / float64(len(queries))
		fmt.Fprintf(out, "pass %d: %d/%d hits (%.1f%%)\n", pass, hits, len(queries), 100*lastRate)
	}
	if err := printMetrics(ctx, client, base, out); err != nil {
		return err
	}
	if *minHitRate > 0 && lastRate < *minHitRate {
		return fmt.Errorf("final pass hit rate %.3f below the %.3f floor", lastRate, *minHitRate)
	}
	return nil
}

// printMetrics summarizes the daemon's own view after a replay, so a
// drill's log shows the server-side hit rate next to the client-side
// one.
func printMetrics(ctx context.Context, client *http.Client, base string, out io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var m serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	fmt.Fprintf(out, "daemon: requests=%d failures=%d cache hit_rate=%.3f (hits=%d dedups=%d misses=%d) store objects=%d bytes=%d\n",
		m.Requests, m.Failures, m.Cache.HitRate, m.Cache.Hits, m.Cache.Dedups, m.Cache.Misses,
		m.Store.Objects, m.Store.Bytes)
	return nil
}
