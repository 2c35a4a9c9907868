package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// testDaemon runs a daemon over a temp store on an httptest listener.
func testDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{StoreDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func writeQueries(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Two replay passes over a mixed file: the cold pass misses, the warm
// pass hits 100%, and the -min-hit-rate floor passes.
func TestReplayWarmPassHits(t *testing.T) {
	ts := testDaemon(t)
	file := writeQueries(t,
		`# comment and the blank line below are skipped`,
		``,
		`{"path": "/v1/bounds", "body": {"op": "rackoff"}}`,
		`{"path": "/v1/bounds", "body": {"op": "minstates"}}`,
		`{"path": "/v1/simulate", "body": {"spec": {"protocol": "flock", "param": 3}, "x": 5, "trials": 2, "max_steps": 30000}}`,
	)
	var sb strings.Builder
	err := run(context.Background(), []string{
		"replay", "-addr", ts.URL, "-file", file, "-passes", "2", "-min-hit-rate", "0.9",
	}, &sb)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "pass 1: 0/3 hits") {
		t.Errorf("cold pass not all misses:\n%s", out)
	}
	if !strings.Contains(out, "pass 2: 3/3 hits") {
		t.Errorf("warm pass not all hits:\n%s", out)
	}
	if !strings.Contains(out, "hit_rate=0.500") {
		t.Errorf("daemon metrics line missing or wrong:\n%s", out)
	}
}

// The floor actually fails a cold-only replay.
func TestReplayMinHitRateFails(t *testing.T) {
	ts := testDaemon(t)
	file := writeQueries(t, `{"path": "/v1/bounds", "body": {"op": "rackoff"}}`)
	err := run(context.Background(), []string{
		"replay", "-addr", ts.URL, "-file", file, "-passes", "1", "-min-hit-rate", "0.9",
	}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "below") {
		t.Fatalf("cold pass passed the 0.9 floor: %v", err)
	}
}

// A failing query names its line; a malformed file line is rejected
// before any traffic.
func TestReplayRejects(t *testing.T) {
	ts := testDaemon(t)
	bad := writeQueries(t, `{"path": "/v1/bounds", "body": {"op": "nosuch"}}`)
	err := run(context.Background(), []string{"replay", "-addr", ts.URL, "-file", bad}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("bad query not reported: %v", err)
	}
	malformed := writeQueries(t, `{"path": "/v1/bounds"}`)
	err = run(context.Background(), []string{"replay", "-addr", ts.URL, "-file", malformed}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "need a /v1/") {
		t.Fatalf("malformed line not rejected: %v", err)
	}
}

// The serve subcommand end to end: boot on a free port, publish the
// address via -addr-file, answer queries (cache surviving within the
// daemon), shut down cleanly on context cancellation.
func TestServeSubcommand(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr.txt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var sb strings.Builder
	go func() {
		done <- run(ctx, []string{
			"serve", "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "store"),
			"-workers", "2", "-addr-file", addrFile,
		}, &sb)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never published its address; output so far:\n%s", sb.String())
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	base := "http://" + addr

	file := writeQueries(t, `{"path": "/v1/bounds", "body": {"op": "section8"}}`)
	var rb strings.Builder
	if err := run(context.Background(), []string{
		"replay", "-addr", base, "-file", file, "-passes", "2", "-min-hit-rate", "0.9",
	}, &rb); err != nil {
		t.Fatalf("replay against live daemon: %v\n%s", err, rb.String())
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exit: %v\n%s", err, sb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(sb.String(), "shutting down") {
		t.Errorf("no graceful shutdown message:\n%s", sb.String())
	}
}

// The checked-in example replay file is well-formed and covers all
// three query endpoints — the CI smoke drill depends on it.
func TestExampleQueriesFile(t *testing.T) {
	queries, err := readQueries(filepath.Join("..", "..", "examples", "serve", "queries.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, q := range queries {
		seen[q.Path] = true
	}
	for _, path := range []string{"/v1/simulate", "/v1/verify", "/v1/bounds"} {
		if !seen[path] {
			t.Errorf("example file exercises no %s query", path)
		}
	}
}

// flag stops at the first positional argument, so a stray one would
// silently drop every flag after it; each must be rejected by name
// before a subcommand opens a store or a listener.
func TestStrayArguments(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	for _, tc := range []struct {
		args  []string
		stray string
	}{
		{[]string{"serve", "extra", "-store", store}, "extra"},
		{[]string{"serve", "-store", store, "-addr", "127.0.0.1:0", "extra"}, "extra"},
		{[]string{"gc", "-store", store, "extra"}, "extra"},
		{[]string{"replay", "-file", "q.jsonl", "extra"}, "extra"},
	} {
		err := run(context.Background(), tc.args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), `unexpected argument "`+tc.stray+`"`) {
			t.Errorf("run(%v) = %v, want it to name the argument %q", tc.args, err, tc.stray)
		}
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("a rejected subcommand created %s (stat: %v)", store, err)
	}
}

// Asking a subcommand for help is not an error: the command prints the
// usage to stderr and exits 0, starting no daemon and opening no
// store. Each case runs the command's main in a child process of the
// test binary to see its exit status.
func TestHelp(t *testing.T) {
	if args := os.Getenv("PPSERVE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"ppserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	store := filepath.Join(t.TempDir(), "store")
	for _, tc := range []struct{ args, usage string }{
		{"serve -h", "ppserve serve"},
		{"serve -addr 127.0.0.1:0 -store " + store + " -help", "ppserve serve"},
		{"gc -h", "ppserve gc"},
		{"gc -store " + store + " -h", "ppserve gc"},
		{"replay -h", "ppserve replay"},
		{"replay -file q.jsonl -help", "ppserve replay"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelp$")
		cmd.Env = append(os.Environ(), "PPSERVE_TEST_ARGS="+tc.args)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("ppserve %s: %v; stderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "Usage of "+tc.usage) || strings.Contains(stderr.String(), "help requested") {
			t.Errorf("ppserve %s: stderr %q, want the usage alone", tc.args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("ppserve %s: stdout %q, want none", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("a help request created %s (stat: %v)", store, err)
	}
}
