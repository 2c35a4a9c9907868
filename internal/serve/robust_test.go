package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// A request whose deadline has passed resolves as 503 + Retry-After
// with the job in timed_out. A 1ns deadline expires before the compute
// starts; TestDeadlineLandsMidClosure covers one that lands inside the
// closure walk.
func TestDeadlineTimesOutCompute(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec, doc := post(t, h, "/v1/verify", `{"spec":{"protocol":"flock","param":2},"max_x":4,"budget":200000}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	if doc["error"] == nil {
		t.Fatalf("timeout response has no error member: %s", rec.Body.String())
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Timeouts != 1 || m.Failures != 1 {
		t.Errorf("timeouts=%d failures=%d, want 1 and 1", m.Timeouts, m.Failures)
	}
	if m.Jobs["timed_out"] != 1 {
		t.Errorf("job states %v, want one timed_out", m.Jobs)
	}
	// The tokens came back: a cheap follow-up sails through.
	if rec, _ := post(t, h, "/v1/bounds", `{"op":"rackoff"}`); rec.Code != http.StatusServiceUnavailable && rec.Code != http.StatusOK {
		t.Fatalf("follow-up after timeout: %d %s", rec.Code, rec.Body.String())
	}
}

// The deadline lands inside the closure walk, not in admission:
// uncancelled, this query's compute takes ≈1.6 s on a 2-vCPU VM (its
// largest closure has 337842 configurations), over 30 times the 50 ms
// deadline. The request context reaches every verify closure, so the
// walk stops at its next checkpoint and the client gets 503 with
// Retry-After and a timed_out job a few milliseconds after the
// deadline.
func TestDeadlineLandsMidClosure(t *testing.T) {
	const deadline = 50 * time.Millisecond
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	start := time.Now()
	rec, _ := post(t, h, "/v1/verify", `{"spec":{"protocol":"power2","param":7},"max_x":160}`)
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request past its deadline: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	if elapsed > 10*deadline {
		t.Errorf("answered after %v; a walk that polls its context stops within a few ms of the %v deadline", elapsed, deadline)
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Timeouts != 1 || m.Jobs["timed_out"] != 1 {
		t.Errorf("timeouts=%d jobs=%v, want one timed_out job", m.Timeouts, m.Jobs)
	}
}

// A request that dies waiting for admission tokens is a timed_out job
// too (admitted → timed_out), with the same 503 + Retry-After shape.
func TestDeadlineTimesOutAdmissionWait(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, Deadline: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the bucket so even a one-token bounds query must wait.
	capacity, _, _ := s.admit.snapshot()
	if err := s.admit.acquire(context.Background(), capacity); err != nil {
		t.Fatal(err)
	}
	defer s.admit.release(capacity)

	h := s.Handler()
	rec, _ := post(t, h, "/v1/bounds", `{"op":"rackoff"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("starved request: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Timeouts != 1 || m.Jobs["timed_out"] != 1 {
		t.Errorf("timeouts=%d jobs=%v, want a timed_out job", m.Timeouts, m.Jobs)
	}
}

// The per-key circuit breaker: a poison query (its verify budget can
// never cover the closure) fails threshold times, then is refused
// without recomputing; after the TTL one probe is let through, and its
// failure re-opens the circuit.
func TestBreakerOpensRefusesAndHalfOpens(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Budget 2 cannot hold flock(2)'s closure for any input: ErrBudget
	// every time — the canonical poison query.
	poison := `{"spec":{"protocol":"flock","param":2},"max_x":4,"budget":2}`
	for i := 0; i < 3; i++ {
		rec, _ := post(t, h, "/v1/verify", poison)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("failing compute %d: %d %s", i+1, rec.Code, rec.Body.String())
		}
	}
	rec, doc := post(t, h, "/v1/verify", poison)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("open circuit answered %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("refusal without a Retry-After hint")
	}
	if !strings.Contains(string(doc["error"]), "circuit is open") {
		t.Errorf("refusal reason: %s", doc["error"])
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Breaker.Open != 1 || m.Breaker.Tripped != 1 || m.Breaker.Refused != 1 {
		t.Errorf("breaker snapshot %+v, want open=1 tripped=1 refused=1", m.Breaker)
	}
	// The refused request never reached the engines: still 3 misses.
	if m.Cache.Misses != 3 {
		t.Errorf("misses = %d after a refusal, want 3", m.Cache.Misses)
	}

	// Advance the breaker's clock past the TTL: the next request is the
	// half-open probe (it recomputes and fails → the circuit re-opens),
	// and the one after is refused again.
	s.breaker.now = func() time.Time { return time.Now().Add(31 * time.Second) }
	if rec, _ := post(t, h, "/v1/verify", poison); rec.Code != http.StatusInternalServerError {
		t.Fatalf("half-open probe not let through: %d %s", rec.Code, rec.Body.String())
	}
	if rec, _ := post(t, h, "/v1/verify", poison); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("re-opened circuit answered %d %s", rec.Code, rec.Body.String())
	}
	get(t, h, "/metrics", &m)
	if m.Breaker.Tripped != 2 {
		t.Errorf("tripped = %d after the failed probe, want 2", m.Breaker.Tripped)
	}
}

// Bodies over the limit are cut off with 413 before they can balloon
// memory, and still count as a failed request in /metrics.
func TestOversizedBodyRejected(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	huge := `{"op":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	rec, doc := post(t, h, "/v1/bounds", huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", rec.Code)
	}
	if !strings.Contains(string(doc["error"]), "exceeds") {
		t.Errorf("413 reason: %s", doc["error"])
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Requests != 1 || m.Failures != 1 {
		t.Errorf("requests=%d failures=%d, want 1 and 1", m.Requests, m.Failures)
	}
	// A maximal-but-legal body still parses (and fails validation, not
	// the size limit).
	ok := `{"op":"` + strings.Repeat("a", 100) + `"}`
	if rec, _ := post(t, h, "/v1/bounds", ok); rec.Code != http.StatusBadRequest {
		t.Errorf("legal-sized bad op: %d", rec.Code)
	}
}

// Degraded mode end to end through the HTTP surface: a dead disk under
// the store turns the daemon compute-only — requests still answer —
// and /healthz stays green while /readyz goes 503 until the self-heal
// probe wins, after which publishing resumes.
func TestReadyzTracksDegradationAndSelfHeal(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS(), []faultfs.Fault{
		{Op: faultfs.OpWrite, Nth: 1, Path: "objects", Err: syscall.ENOSPC},
	})
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, FS: faulty, StoreProbeBase: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := get(t, h, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("fresh daemon not ready: %d %s", rec.Code, rec.Body.String())
	}

	// The publish hits ENOSPC: the request is still served (compute-only
	// degradation is never a request error), but readiness flips.
	rec, _ := post(t, h, "/v1/bounds", `{"op":"rackoff"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("request failed because the disk was sick: %d %s", rec.Code, rec.Body.String())
	}
	var ready struct {
		Status string `json:"status"`
		Store  struct {
			Reason string `json:"reason"`
		} `json:"store"`
	}
	if rec := get(t, h, "/readyz", &ready); rec.Code != http.StatusServiceUnavailable || ready.Status != "degraded" {
		t.Fatalf("/readyz on a degraded store: %d %+v", rec.Code, ready)
	}
	if !strings.Contains(ready.Store.Reason, "no space") {
		t.Errorf("degradation reason lost: %+v", ready.Store)
	}
	if rec := get(t, h, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("degradation leaked into liveness: %d", rec.Code)
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if !m.Store.Degraded || m.Cache.PutFailures != 1 {
		t.Errorf("metrics during degradation: degraded=%v put_failures=%d", m.Store.Degraded, m.Cache.PutFailures)
	}

	// The fault was one-shot: the probe heals the store on its own.
	deadline := time.Now().Add(10 * time.Second)
	for s.store.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rec := get(t, h, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after heal: %d %s", rec.Code, rec.Body.String())
	}
	if c := s.store.Counters(); c.Healed != 1 {
		t.Errorf("healed = %d, want 1", c.Healed)
	}
	// Persisting resumed: the same query recomputes once more (it was
	// never stored) and then hits from disk.
	if rec, _ := post(t, h, "/v1/bounds", `{"op":"rackoff"}`); rec.Header().Get("X-Cache") != "miss" {
		t.Fatal("degraded-era result was somehow persisted")
	}
	if rec, _ := post(t, h, "/v1/bounds", `{"op":"rackoff"}`); rec.Header().Get("X-Cache") != "hit" {
		t.Fatal("healed store still not persisting")
	}
}

// /v1/keys pages the store inventory with a cursor and validates its
// limit.
func TestKeysEndpoint(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for _, op := range []string{"rackoff", "minstates", "section8"} {
		if rec, _ := post(t, h, "/v1/bounds", fmt.Sprintf(`{"op":%q}`, op)); rec.Code != http.StatusOK {
			t.Fatalf("seeding %s: %d", op, rec.Code)
		}
	}
	var page keysResponse
	if rec := get(t, h, "/v1/keys?limit=2", &page); rec.Code != http.StatusOK {
		t.Fatalf("/v1/keys: %d %s", rec.Code, rec.Body.String())
	}
	if len(page.Keys) != 2 || page.Next == "" {
		t.Fatalf("first page %+v, want 2 keys and a cursor", page)
	}
	var rest keysResponse
	get(t, h, "/v1/keys?limit=2&after="+page.Next, &rest)
	if len(rest.Keys) != 1 || rest.Next != "" {
		t.Fatalf("second page %+v, want the final key and no cursor", rest)
	}
	for _, ki := range append(page.Keys, rest.Keys...) {
		if !strings.HasPrefix(ki.Key, "sha256:") || ki.Kind != "bounds" || ki.Bytes == 0 {
			t.Errorf("incomplete inventory row %+v", ki)
		}
	}
	for _, bad := range []string{"0", "-3", "1001", "x"} {
		if rec := get(t, h, "/v1/keys?limit="+bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("limit=%s accepted: %d", bad, rec.Code)
		}
	}
}

// Cancelled admission waiters must not leak tokens or wedge the cond
// var: under a storm of acquires whose contexts die at random points,
// the bucket balance returns to capacity and a full-capacity acquire
// still goes through. Run with -race.
func TestAdmissionCancelledWaitersDoNotLeak(t *testing.T) {
	a := newAdmitter(4)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*time.Millisecond)
			defer cancel()
			if err := a.acquire(ctx, 3); err == nil {
				time.Sleep(time.Millisecond)
				a.release(3)
			}
		}(i)
	}
	wg.Wait()
	capacity, avail, _ := a.snapshot()
	if avail != capacity {
		t.Fatalf("bucket leaked: %d of %d tokens after quiesce", avail, capacity)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.acquire(ctx, capacity); err != nil {
		t.Fatalf("bucket wedged after cancelled waiters: %v", err)
	}
	a.release(capacity)
}

// The serve-path chaos property: a seeded fault schedule under the
// store must never change an answer. Every response during the storm
// is either the byte-exact artifact a clean daemon computes or a clean
// typed error; once the schedule exhausts and the store heals, a warm
// replay serves every query as a disk hit.
func TestServePathChaos(t *testing.T) {
	queries := []struct{ path, body string }{
		{"/v1/bounds", `{"op":"rackoff"}`},
		{"/v1/bounds", `{"op":"minstates"}`},
		{"/v1/bounds", `{"op":"section8"}`},
		{"/v1/simulate", `{"spec":{"protocol":"flock","param":3},"x":5,"trials":2,"max_steps":30000,"seed":7}`},
		{"/v1/verify", `{"spec":{"protocol":"flock","param":2},"max_x":4,"budget":200000}`},
	}
	// Ground truth from a fault-free daemon.
	clean := testServer(t).Handler()
	want := make([]string, len(queries))
	for i, q := range queries {
		rec, doc := post(t, clean, q.path, q.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("clean daemon rejected %s: %d %s", q.path, rec.Code, rec.Body.String())
		}
		want[i] = string(doc["result"])
	}

	for _, seed := range []int64{1, 7, 1984} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faulty := faultfs.NewFaulty(faultfs.OS(), faultfs.RandomSchedule(seed, 24))
			s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, FS: faulty, StoreProbeBase: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()

			// The storm: concurrent clients replay the mix while the
			// schedule fires underneath them.
			var wg sync.WaitGroup
			errs := make(chan error, 4*3*len(queries))
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for pass := 0; pass < 3; pass++ {
						for i, q := range queries {
							req := httptest.NewRequest("POST", q.path, strings.NewReader(q.body))
							rec := httptest.NewRecorder()
							h.ServeHTTP(rec, req)
							var doc map[string]json.RawMessage
							if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
								errs <- fmt.Errorf("%s: non-JSON response under chaos: %q", q.path, rec.Body.String())
								continue
							}
							switch {
							case rec.Code == http.StatusOK:
								if string(doc["result"]) != want[i] {
									errs <- fmt.Errorf("%s: chaos changed the answer:\n got %s\nwant %s", q.path, doc["result"], want[i])
								}
							case rec.Code >= 500:
								if doc["error"] == nil {
									errs <- fmt.Errorf("%s: %d without a typed error: %s", q.path, rec.Code, rec.Body.String())
								}
							default:
								errs <- fmt.Errorf("%s: unexpected status %d under chaos: %s", q.path, rec.Code, rec.Body.String())
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				t.Fatalf("fired faults:\n%s", strings.Join(faulty.Fired(), "\n"))
			}

			// Let the store heal if the storm degraded it.
			deadline := time.Now().Add(10 * time.Second)
			for s.store.Degraded() {
				if time.Now().After(deadline) {
					t.Fatal("store never healed after the storm")
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Settle: a late-scheduled fault may still tear one more
			// publish, so replay until a full pass is all warm hits —
			// the schedule is finite, so this converges fast.
			for pass := 1; ; pass++ {
				allHits := true
				for i, q := range queries {
					rec, doc := post(t, h, q.path, q.body)
					if rec.Code != http.StatusOK {
						t.Fatalf("post-chaos replay of %s: %d %s", q.path, rec.Code, rec.Body.String())
					}
					if string(doc["result"]) != want[i] {
						t.Fatalf("post-chaos replay of %s changed the answer:\n got %s\nwant %s", q.path, doc["result"], want[i])
					}
					if rec.Header().Get("X-Cache") != "hit" {
						allHits = false
					}
				}
				if allHits {
					break
				}
				if pass >= 20 {
					t.Fatalf("warm replay never reached 100%% hits; fired faults:\n%s", strings.Join(faulty.Fired(), "\n"))
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
