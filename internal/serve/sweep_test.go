package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/serve/key"
	"repro/internal/shard"
	"repro/internal/sim"
)

// sweepBody is the test sweep: small enough to finish instantly,
// blocked so each size streams several deltas.
const sweepBody = `{"spec":{"protocol":"flock","param":4},"sizes":[2,4,8],"trials":8,"seed":7,"max_steps":200000,"patience":1000,"block":2}`

func sweepTestQuery(t *testing.T) *key.Query {
	t.Helper()
	var req sweepRequest
	if err := json.Unmarshal([]byte(sweepBody), &req); err != nil {
		t.Fatal(err)
	}
	return &key.Query{Kind: key.KindSweep, Spec: req.Spec, Sweep: &req.SweepParams}
}

// The replay-client contract on a cold stream: every non-terminal line
// is a checksum-valid cell delta, completeness strictly increases
// delta over delta, the folded deltas equal the terminal document, and
// the terminal line is byte-identical to the stored artifact's result.
func TestSweepStreamColdThenWarm(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(sweepBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("cold sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	if c := rec.Header().Get("X-Cache"); c != "miss" {
		t.Fatalf("cold sweep X-Cache %q, want miss", c)
	}
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("cold stream has %d lines; want deltas plus a terminal document", len(lines))
	}
	deltas, terminal := lines[:len(lines)-1], lines[len(lines)-1]

	var cells []*shard.CellArtifact
	done := 0
	for i, line := range deltas {
		ca, err := shard.DecodeCellLine(line)
		if err != nil {
			t.Fatalf("delta %d invalid: %v\n%s", i, err, line)
		}
		next := done + ca.Stats.Trials
		if next <= done {
			t.Fatalf("delta %d: completeness did not increase (%d -> %d)", i, done, next)
		}
		done = next
		cells = append(cells, ca)
	}

	var merged shard.AnytimeMerged
	if err := json.Unmarshal(terminal, &merged); err != nil {
		t.Fatalf("terminal line is not a merged document: %v", err)
	}
	if merged.Partial {
		t.Fatal("completed sweep reported partial")
	}
	if done != len(merged.Points)*8 {
		t.Fatalf("deltas cover %d trials, terminal document %d points × 8", done, len(merged.Points))
	}
	// Folding the deltas reproduces the terminal document exactly.
	sw, pts, err := shard.CollectPartial(nil, cells)
	if err != nil {
		t.Fatal(err)
	}
	refold, err := shard.MergePartial(sw, pts, sim.StopRule{})
	if err != nil {
		t.Fatal(err)
	}
	refoldBytes, err := json.Marshal(refold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refoldBytes, terminal) {
		t.Fatalf("folded deltas differ from terminal line:\n%s\nvs\n%s", refoldBytes, terminal)
	}
	// The terminal line is the stored artifact, byte for byte.
	k, err := key.Of(sweepTestQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	art, err := s.Store().Get(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(art.Result), terminal) {
		t.Fatalf("stored artifact differs from terminal line:\n%s\nvs\n%s", art.Result, terminal)
	}

	// Warm replay: one line only (the terminal document), X-Cache hit,
	// identical bytes.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(sweepBody)))
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm sweep: status %d", rec2.Code)
	}
	if c := rec2.Header().Get("X-Cache"); c != "hit" {
		t.Fatalf("warm sweep X-Cache %q, want hit", c)
	}
	warm := bytes.Split(bytes.TrimSpace(rec2.Body.Bytes()), []byte("\n"))
	if len(warm) != 1 {
		t.Fatalf("warm stream has %d lines, want just the terminal document", len(warm))
	}
	if !bytes.Equal(warm[0], terminal) {
		t.Fatal("warm terminal line differs from cold one")
	}
}

// slowObjectReads delays every read under the store's objects/ tree,
// so concurrent warm requests for one key overlap in one store flight.
type slowObjectReads struct{ faultfs.FS }

func (f slowObjectReads) ReadFile(name string) ([]byte, error) {
	if strings.Contains(name, string(filepath.Separator)+"objects"+string(filepath.Separator)) {
		time.Sleep(20 * time.Millisecond)
	}
	return f.FS.ReadFile(name)
}

// Warm requests collapsed into one store flight share the flight's
// artifact, Result bytes included: writing the terminal line must not
// touch them. Run under -race, the shared backing array is where a
// writer that appends the newline to the result itself is caught.
func TestSweepConcurrentWarmRepliesShareResult(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, FS: slowObjectReads{faultfs.OS()}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	cold := httptest.NewRecorder()
	h.ServeHTTP(cold, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(sweepBody)))
	if cold.Code != http.StatusOK {
		t.Fatalf("cold sweep: status %d: %s", cold.Code, cold.Body.String())
	}
	lines := bytes.Split(bytes.TrimSpace(cold.Body.Bytes()), []byte("\n"))
	want := append(bytes.Clone(lines[len(lines)-1]), '\n')

	const n = 8
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(sweepBody)))
		}(recs[i])
	}
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("warm request %d: status %d, X-Cache %q: %s", i, rec.Code, rec.Header().Get("X-Cache"), rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("warm request %d: body %q, want the terminal line %q", i, rec.Body.Bytes(), want)
		}
	}
	if s.Store().Counters().Dedups == 0 {
		t.Fatal("no warm request joined another's flight; the test did not exercise a shared artifact")
	}
}

// A sweep with a CI target stops early: the terminal document marks
// every size stopped with fewer trials done than planned, and the
// stream carries fewer deltas than the exhaustive plan would.
func TestSweepStreamStopsEarly(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	body := `{"spec":{"protocol":"flock","param":4},"sizes":[2,4,8,16],"trials":48,"seed":1,"max_steps":200000,"patience":1000,"block":4,"ci_target":0.05}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	var merged shard.AnytimeMerged
	if err := json.Unmarshal(lines[len(lines)-1], &merged); err != nil {
		t.Fatal(err)
	}
	for _, pt := range merged.Points {
		if !pt.Stopped {
			t.Errorf("x=%d not stopped under a rule every size satisfies", pt.X)
		}
		if pt.TrialsDone >= pt.TrialsPlanned {
			t.Errorf("x=%d: stopping saved nothing (%d of %d)", pt.X, pt.TrialsDone, pt.TrialsPlanned)
		}
	}
	if exhaustive := 4 * 48 / 4; len(lines)-1 >= exhaustive {
		t.Errorf("stream carried %d deltas; stopping should cut well below the %d-cell plan", len(lines)-1, exhaustive)
	}
}

// notifyWriter signals the first streamed byte, so the disconnect test
// can cancel mid-stream rather than racing the whole compute.
type notifyWriter struct {
	httptest.ResponseRecorder
	mu    sync.Mutex
	once  sync.Once
	first chan struct{}
}

func (nw *notifyWriter) Write(b []byte) (int, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.once.Do(func() { close(nw.first) })
	return nw.ResponseRecorder.Write(b)
}

func (nw *notifyWriter) WriteHeader(code int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.ResponseRecorder.WriteHeader(code)
}

// A client that disconnects mid-stream cancels the compute and leaks
// no admission tokens: the bucket refills to capacity once the handler
// unwinds.
func TestSweepDisconnectReleasesAdmission(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// Big enough that the compute cannot finish before the cancel
	// lands: many sizes, many trials, one-trial blocks.
	body := `{"spec":{"protocol":"flock","param":4},"sizes":[64,128,256,512,1024],"trials":64,"block":1,"max_steps":1000000}`

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)).WithContext(ctx)
	nw := &notifyWriter{ResponseRecorder: *httptest.NewRecorder(), first: make(chan struct{})}
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		h.ServeHTTP(nw, req)
	}()
	<-nw.first
	cancel()
	<-doneCh

	capacity, avail, _ := s.admit.snapshot()
	if avail != capacity {
		t.Fatalf("admission bucket at %d of %d after a mid-stream disconnect: tokens leaked", avail, capacity)
	}
}

// Malformed sweep requests fail as JSON errors before any stream
// starts: unknown members, non-counting protocols, bad stop rules.
func TestSweepBadRequests(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for name, body := range map[string]string{
		"unknown member":  `{"spec":{"protocol":"flock","param":4},"sizes":[2],"trialz":3}`,
		"no sizes":        `{"spec":{"protocol":"flock","param":4}}`,
		"non-counting":    `{"spec":{"protocol":"majority","param":0},"sizes":[2]}`,
		"bad ci_target":   `{"spec":{"protocol":"flock","param":4},"sizes":[2],"ci_target":2}`,
		"floor sans rule": `{"spec":{"protocol":"flock","param":4},"sizes":[2],"min_trials":4}`,
	} {
		rec, doc := post(t, h, "/v1/sweep", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
		if _, ok := doc["error"]; !ok {
			t.Errorf("%s: no error member in %s", name, rec.Body.String())
		}
	}
}

// /v1/sweep and the ppsweep pipeline are one computation: for the same
// spec, block and rule, the stream's deltas are exactly the cells a
// 1-shard PlanCostBlock run computes, in execution order, and the
// terminal line is the pipeline's MergePartial document byte for byte.
// Covers an exhaustive sweep and a ci_target sweep that stops early.
func TestSweepMatchesPipelineBytes(t *testing.T) {
	for name, tc := range map[string]struct {
		body  string
		sw    shard.SweepSpec
		block int
		rule  sim.StopRule
	}{
		"exhaustive": {
			body: sweepBody,
			sw: shard.SweepSpec{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{2, 4, 8},
				Trials: 8, Seed: 7, MaxSteps: 200000, Patience: 1000},
			block: 2,
		},
		"ci_target": {
			body: `{"spec":{"protocol":"flock","param":4},"sizes":[2,4,8,16],"trials":48,"seed":1,"max_steps":200000,"patience":1000,"block":4,"ci_target":0.05}`,
			sw: shard.SweepSpec{Protocol: "flock", Param: 4, InputState: "i", Sizes: []int64{2, 4, 8, 16},
				Trials: 48, Seed: 1, MaxSteps: 200000, Patience: 1000},
			block: 4,
			rule:  sim.StopRule{TargetRelCI: 0.05},
		},
	} {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			testServer(t).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
			deltas, terminal := lines[:len(lines)-1], lines[len(lines)-1]

			m, err := shard.PlanCostBlock(tc.sw, 1, shard.DefaultCost(tc.sw.Scheduler), tc.block)
			if err != nil {
				t.Fatal(err)
			}
			var computed []shard.PartialPoint
			art, _, err := shard.RunResumableStop(context.Background(), m, "s000", 2, t.TempDir(), tc.rule,
				func(x int64, lo, hi int, st sim.Stats) {
					computed = append(computed, shard.PartialPoint{X: x, TrialLo: lo, TrialHi: hi, Stats: st})
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(deltas) != len(computed) {
				t.Fatalf("stream carried %d deltas, pipeline computed %d cells", len(deltas), len(computed))
			}
			for i, line := range deltas {
				ca, err := shard.DecodeCellLine(line)
				if err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				got := shard.PartialPoint{X: ca.Cell.X, TrialLo: ca.Cell.TrialLo, TrialHi: ca.Cell.TrialHi, Stats: ca.Stats}
				if got != computed[i] || !reflect.DeepEqual(ca.Sweep, tc.sw) {
					t.Fatalf("delta %d is %+v of %+v, pipeline computed %+v of %+v", i, got, ca.Sweep, computed[i], tc.sw)
				}
			}
			merged, err := shard.MergePartial(tc.sw, art.Points, tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(merged)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(terminal, want) {
				t.Fatalf("terminal line differs from the pipeline's merge:\n%s\nvs\n%s", terminal, want)
			}
		})
	}
}
