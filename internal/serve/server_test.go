package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/key"
	"repro/internal/sim"
	"repro/internal/verify"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s: non-JSON response %q", path, rec.Body.String())
	}
	return rec, doc
}

func get(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: non-JSON response %q", path, rec.Body.String())
		}
	}
	return rec
}

// One query through each endpoint: first POST misses and computes,
// an equivalent POST (different spelling, same meaning) hits, and
// the result documents are byte-identical.
func TestEndpointsMissThenHit(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	cases := []struct{ path, first, equivalent string }{
		{
			"/v1/simulate",
			`{"spec":{"protocol":"flock","param":4},"x":6,"trials":2,"max_steps":30000,"seed":7}`,
			`{"seed":7,"trials":2,"max_steps":30000,"x":6,"scheduler":"weighted","spec":{"param":4,"protocol":"flock"}}`,
		},
		{
			"/v1/verify",
			`{"spec":{"protocol":"flock","param":2},"max_x":4,"budget":200000}`,
			`{"budget":200000,"max_x":4,"spec":{"protocol":"flock","param":2}}`,
		},
		{
			"/v1/bounds",
			`{"op":"rackoff"}`,
			`{"op":"rackoff","d":5,"t":1,"r":1}`,
		},
	}
	for _, c := range cases {
		rec, doc := post(t, h, c.path, c.first)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("X-Cache") != "miss" || string(doc["cache"]) != `"miss"` {
			t.Errorf("%s: cold request not a miss (%s)", c.path, doc["cache"])
		}
		rec2, doc2 := post(t, h, c.path, c.equivalent)
		if rec2.Code != http.StatusOK {
			t.Fatalf("%s equivalent: %d %s", c.path, rec2.Code, rec2.Body.String())
		}
		if rec2.Header().Get("X-Cache") != "hit" {
			t.Errorf("%s: equivalent spelling missed the cache", c.path)
		}
		if string(doc["key"]) != string(doc2["key"]) {
			t.Errorf("%s: equivalent spellings keyed apart: %s vs %s", c.path, doc["key"], doc2["key"])
		}
		if string(doc["result"]) != string(doc2["result"]) {
			t.Errorf("%s: hit served a different result", c.path)
		}
	}

	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Requests != int64(2*len(cases)) {
		t.Errorf("requests = %d, want %d", m.Requests, 2*len(cases))
	}
	if m.Cache.Misses != int64(len(cases)) || m.Cache.Hits != int64(len(cases)) {
		t.Errorf("cache = %+v, want %d misses and %d hits", m.Cache.Counters, len(cases), len(cases))
	}
	if m.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", m.Cache.HitRate)
	}
	for _, phase := range []string{"admit", "plan", "run"} {
		if m.Phases[phase].Count == 0 {
			t.Errorf("phase %q never observed", phase)
		}
	}
	if m.Jobs["cached"] != 2*len(cases) {
		t.Errorf("cached jobs = %d, want %d", m.Jobs["cached"], 2*len(cases))
	}
}

// A served job is inspectable at /v1/jobs/{id} with its lifecycle
// record; unknown ids are 404.
func TestJobEndpoint(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec, doc := post(t, h, "/v1/bounds", `{"op":"minstates"}`)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	var id string
	if err := json.Unmarshal(doc["job"], &id); err != nil {
		t.Fatal(err)
	}
	var v JobView
	if rec := get(t, h, "/v1/jobs/"+id, &v); rec.Code != http.StatusOK {
		t.Fatalf("job lookup: %d", rec.Code)
	}
	if v.State != "cached" || v.Cache != "miss" || v.Kind != "bounds" || v.Key == "" {
		t.Errorf("job view %+v", v)
	}
	if v.Phases["admit"] == "" || v.Phases["plan"] == "" || v.Phases["run"] == "" {
		t.Errorf("job view lacks phase timings: %+v", v.Phases)
	}
	if rec := get(t, h, "/v1/jobs/j99999999", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", rec.Code)
	}
}

// Client errors never consume tokens or reach the engines: unknown
// members, malformed parameter combinations, and unknown protocols
// are all 400s, and a query costing more than the whole bucket is
// rejected with 429, however large its price: pricing saturates, and
// the deadline priced from it never expires before admission.
func TestRequestRejections(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	bad := []struct {
		path, body string
		code       int
	}{
		{"/v1/simulate", `{"spec":{"protocol":"flock","param":4},"x":6,"typo":1}`, http.StatusBadRequest},
		{"/v1/simulate", `{"spec":{"protocol":"nosuch","param":4},"x":6}`, http.StatusBadRequest},
		{"/v1/simulate", `{"spec":{"protocol":"flock","param":4},"x":6,"eps":0.1}`, http.StatusBadRequest},
		{"/v1/verify", `{"spec":{"protocol":"majority","param":0},"max_x":3}`, http.StatusBadRequest},
		{"/v1/bounds", `{"op":"nosuch"}`, http.StatusBadRequest},
		{"/v1/bounds", `{"op":"rackoff","kmax":3}`, http.StatusBadRequest},
		// Cost = trials × per-trial cost: astronomically over capacity.
		{"/v1/simulate", `{"spec":{"protocol":"flock","param":4},"x":1000000000,"trials":1000000}`, http.StatusTooManyRequests},
		// A population of 2⁶³−1 agents: x + y must not wrap to a price
		// of one token, nor the price to an expired deadline.
		{"/v1/simulate", `{"spec":{"protocol":"majority","param":0},"x":9223372036854775807,"y":0}`, http.StatusTooManyRequests},
		{"/v1/simulate", `{"spec":{"protocol":"majority","param":0},"x":9223372036854775807,"y":1}`, http.StatusTooManyRequests},
	}
	overCapacity := 0
	for _, c := range bad {
		rec, doc := post(t, h, c.path, c.body)
		if rec.Code != c.code {
			t.Errorf("%s %s: code %d, want %d (%s)", c.path, c.body, rec.Code, c.code, rec.Body.String())
		}
		if doc["error"] == nil {
			t.Errorf("%s %s: no error member in %s", c.path, c.body, rec.Body.String())
		}
		if c.code == http.StatusTooManyRequests {
			overCapacity++
		}
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Failures != int64(len(bad)) {
		t.Errorf("failures = %d, want %d", m.Failures, len(bad))
	}
	if m.Admission.Rejected != int64(overCapacity) || m.Timeouts != 0 {
		t.Errorf("admission rejections = %d, timeouts = %d, want %d and 0", m.Admission.Rejected, m.Timeouts, overCapacity)
	}
	if m.Admission.Available != m.Admission.Capacity {
		t.Errorf("rejected requests leaked tokens: %d of %d available", m.Admission.Available, m.Admission.Capacity)
	}
}

// A query refused at admission ends its job: the job record reads
// failed with the reason, and the failure is counted once.
func TestAdmissionRejectionFailsJob(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 1, AdmitCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// 600 agents under the linear cost model: 600 tokens, over 10.
	rec, _ := post(t, h, "/v1/simulate", `{"spec":{"protocol":"flock","param":4},"x":600}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity simulate: %d %s", rec.Code, rec.Body.String())
	}
	var v JobView
	if rec := get(t, h, "/v1/jobs/j00000001", &v); rec.Code != http.StatusOK {
		t.Fatalf("job lookup: %d", rec.Code)
	}
	if v.State != "failed" || !strings.Contains(v.Error, "exceeds admission capacity") {
		t.Errorf("rejected job = %+v, want failed with the admission reason", v)
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Jobs["failed"] != 1 || m.Jobs["admitted"] != 0 {
		t.Errorf("jobs = %v, want one failed and none admitted", m.Jobs)
	}
	if m.Failures != 1 || m.Admission.Rejected != 1 {
		t.Errorf("failures = %d, rejected = %d, want 1 and 1", m.Failures, m.Admission.Rejected)
	}
}

// Every cost gets a deadline between the floor and the cap, however
// large: the cap applies before the cost is turned into a duration.
func TestHugeCostGetsCappedDeadline(t *testing.T) {
	s := testServer(t)
	for _, cost := range []int64{0, 1 << 14, 114 << 14, 115 << 14, 1 << 50, math.MaxInt64} {
		if d := s.deadlineFor(cost); d < 5*time.Second || d > 2*time.Minute {
			t.Errorf("deadlineFor(%d) = %v, want within [5s, 2m]", cost, d)
		}
	}
}

// Bounds queries outside bounds.Query.Check's domain are 400s before
// admission, with the rule's own error text. Each of them once hung a
// compute goroutine for good (minstates with m < 0), panicked, or
// computed a +Inf row whose encoding failed into a 500 and a breaker
// strike. The daemon runs under a short deadline and every request
// under a longer one, so a hang fails the test instead of stalling it.
func TestBoundsOutsideDomainRejected(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, Deadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	bodies := []string{
		`{"op":"minstates","m":-1}`,
		`{"op":"thm43","d":-1}`,
		`{"op":"cor44","kmax":-3}`,
		`{"op":"thm43","d":15}`,
		`{"op":"rackoff","d":200}`,
		`{"op":"thm43","d":2000}`,
		`{"op":"section8","d":100}`,
		`{"op":"cor44","kmax":1024}`,
	}
	for _, body := range bodies {
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bounds", strings.NewReader(body)))
			done <- rec
		}()
		select {
		case rec := <-done:
			var doc struct{ Error string }
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &doc) != nil ||
				!strings.HasPrefix(doc.Error, "bounds: ") {
				t.Errorf("%s: status %d, body %s; want 400 with the bounds domain error", body, rec.Code, rec.Body.String())
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: no response within 10s", body)
		}
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Admission.Available != m.Admission.Capacity {
		t.Errorf("rejected bounds queries hold admission tokens: %d of %d available", m.Admission.Available, m.Admission.Capacity)
	}
}

// The removed batched scheduler is a client error on both endpoints
// that take a scheduler, and the message names its replacement.
func TestBatchedSchedulerRemoved(t *testing.T) {
	h := testServer(t).Handler()
	for path, body := range map[string]string{
		"/v1/simulate": `{"spec":{"protocol":"flock","param":4},"x":6,"scheduler":"batched"}`,
		"/v1/sweep":    `{"spec":{"protocol":"flock","param":4},"sizes":[2],"scheduler":"batched","batch":64}`,
	} {
		rec, doc := post(t, h, path, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(string(doc["error"]), "auto") {
			t.Errorf("%s: status %d, body %s; want 400 naming auto", path, rec.Code, rec.Body.String())
		}
	}
}

// Admission queues rather than stampedes: with a bucket sized for one
// query, concurrent identical-cost queries all complete (serially),
// and the bucket refills to capacity.
func TestAdmissionQueues(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 1, AdmitCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var wg sync.WaitGroup
	codes := make([]int, 6)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/bounds", strings.NewReader(`{"op":"minstates"}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: %d", i, code)
		}
	}
	cap, avail, rejected := s.admit.snapshot()
	if avail != cap || rejected != 0 {
		t.Errorf("bucket after drain: avail=%d cap=%d rejected=%d", avail, cap, rejected)
	}
}

// A canceled admission wait returns with the context's error instead
// of parking forever.
func TestAdmissionWaitHonorsContext(t *testing.T) {
	a := newAdmitter(1)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx, 1) }()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled wait acquired tokens")
	}
	a.release(1)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatalf("bucket wedged after canceled wait: %v", err)
	}
}

// The simulate result document is faithful: for flock(n) with x ≥ n
// the expected consensus is true and the sampler agrees.
func TestSimulateResultDocument(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec, doc := post(t, h, "/v1/simulate",
		`{"spec":{"protocol":"flock","param":3},"x":5,"trials":4,"seed":3,"max_steps":50000}`)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	var res sim.QueryResult
	if err := json.Unmarshal(doc["result"], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Expected {
		t.Errorf("flock(3) with x=5: expected consensus should be true")
	}
	if res.Stats.Trials != 4 {
		t.Errorf("trials = %d, want 4", res.Stats.Trials)
	}
	if res.CorrectRate != 1 {
		t.Errorf("correct rate = %g, want 1 (stats %+v)", res.CorrectRate, res.Stats)
	}
}

// Verify results round through the daemon: flock(2) is a correct
// counting protocol over the checked range.
func TestVerifyResultDocument(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec, doc := post(t, h, "/v1/verify", `{"spec":{"protocol":"flock","param":2},"max_x":4,"budget":200000}`)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	var res verify.QueryResult
	if err := json.Unmarshal(doc["result"], &res); err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Inputs == 0 {
		t.Errorf("verify result %+v", res)
	}
}

// queryCost scales with what the engines will actually do.
func TestQueryCost(t *testing.T) {
	mk := func(body string, kind string) *key.Query {
		t.Helper()
		q := &key.Query{Kind: kind}
		var err error
		switch kind {
		case key.KindSimulate:
			q.Spec = key.Spec{Protocol: "flock", Param: 4}
			q.Simulate = &key.SimulateParams{}
			err = json.Unmarshal([]byte(body), q.Simulate)
		case key.KindVerify:
			q.Spec = key.Spec{Protocol: "flock", Param: 4}
			q.Verify = &key.VerifyParams{}
			err = json.Unmarshal([]byte(body), q.Verify)
		case key.KindBounds:
			q.Bounds = &key.BoundsParams{}
			err = json.Unmarshal([]byte(body), q.Bounds)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Normalize(); err != nil {
			t.Fatal(err)
		}
		return q
	}
	if c := queryCost(mk(`{"op":"section8"}`, key.KindBounds)); c != 1 {
		t.Errorf("bounds cost = %d, want 1", c)
	}
	if c := queryCost(mk(`{"max_x":4,"budget":5000}`, key.KindVerify)); c != 5000 {
		t.Errorf("verify cost = %d, want its budget", c)
	}
	small := queryCost(mk(`{"x":10,"trials":1}`, key.KindSimulate))
	big := queryCost(mk(`{"x":10,"trials":8}`, key.KindSimulate))
	if big != 8*small {
		t.Errorf("simulate cost not linear in trials: %d vs %d", big, small)
	}
	huge := queryCost(mk(`{"x":4000000000,"trials":2000000000}`, key.KindSimulate))
	if huge <= 0 {
		t.Errorf("saturating cost went non-positive: %d", huge)
	}
}
