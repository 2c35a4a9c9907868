package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/key"
	"repro/internal/serve/store"
)

// simulateKey keys a small simulate query, for tests that drive the
// store directly.
func simulateKey(t *testing.T, x int64) key.Key {
	t.Helper()
	k, err := key.Of(&key.Query{Kind: key.KindSimulate, Spec: key.Spec{Protocol: "flock", Param: 4}, Simulate: &key.SimulateParams{X: x}})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// A result whose JSON has several byte spellings — a compute may hand
// over <, > and & unescaped — reaches the client in one: the miss
// that computed it and the hit that reads it back answer with the same
// query envelope and the same sweep terminal line.
func TestMissAndHitResponsesByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := simulateKey(t, 5)
	compute := func(context.Context) (json.RawMessage, error) { return json.RawMessage(`{"s":"<a&b>"}`), nil }
	var envelopes, lines [2][]byte
	for i, wantHit := range []bool{false, true} {
		art, hit, err := st.GetOrCompute(context.Background(), k, key.KindSimulate, compute)
		if err != nil || hit != wantHit {
			t.Fatalf("lookup %d: hit=%v err=%v, want hit=%v", i, hit, err, wantHit)
		}
		rec := httptest.NewRecorder()
		writeResult(rec, "j00000001", k, "hit", key.KindSimulate, art.Result)
		envelopes[i] = rec.Body.Bytes()
		if lines[i], err = terminalLine(art.Result); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(envelopes[0], envelopes[1]) {
		t.Errorf("query envelope: miss\n%s\nhit\n%s", envelopes[0], envelopes[1])
	}
	if !bytes.Equal(lines[0], lines[1]) {
		t.Errorf("sweep terminal line: miss %s, hit %s", lines[0], lines[1])
	}
	if want := `{"s":"\u003ca\u0026b\u003e"}`; string(lines[1]) != want {
		t.Errorf("terminal line %s, want json.Marshal's spelling %s", lines[1], want)
	}
}

// writeResult writes, around a result's sealed bytes, exactly what
// writeJSON writes for the same envelope: the stored bytes are the
// response, with no re-encoding.
func TestWriteResultMatchesWriteJSON(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, result := range []string{
		`{"predicate":"i >= 4","stats":{"trials":3,"sum":[1,2,{}]},"rate":1e-7,"empty":[],"obj":{}}`,
		`[]`, `{}`, `"<a&b>\u2028"`, `9007199254740993`, `null`, `[[[1]],{"a":{"b":[true,false]}}]`,
	} {
		k := simulateKey(t, int64(100+i))
		art, _, err := st.GetOrCompute(context.Background(), k, key.KindVerify, func(context.Context) (json.RawMessage, error) {
			return json.RawMessage(result), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := httptest.NewRecorder()
		writeResult(got, "j00000042", k, "miss", key.KindVerify, art.Result)
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, struct {
			Job    string          `json:"job"`
			Key    string          `json:"key"`
			Cache  string          `json:"cache"`
			Kind   string          `json:"kind"`
			Result json.RawMessage `json:"result"`
		}{"j00000042", k.String(), "miss", key.KindVerify, json.RawMessage(result)})
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("result %s:\nwriteResult\n%s\nwriteJSON\n%s", result, got.Body.Bytes(), want.Body.Bytes())
		}
		if got.Header().Get("Content-Type") != "application/json" || got.Header().Get("X-Cache") != "miss" {
			t.Errorf("result %s: headers %v", result, got.Header())
		}
	}
}

// warmHitAllocCeilings bound the allocations of one in-process warm
// hit per endpoint, request and recorder included: the artifact read,
// one canonicalization pass, the small members and the response write.
// Before hits were served from their sealed bytes the same requests
// made 106 (simulate), 176–214 (verify), 130–135 (bounds) and 249–310
// (sweep) allocations.
var warmHitAllocCeilings = map[string]float64{
	"/v1/simulate": 72,
	"/v1/verify":   72,
	"/v1/bounds":   80,
	"/v1/sweep":    76,
}

func TestWarmHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	h := testServer(t).Handler()
	for _, e := range hitPool {
		serveOnce(t, h, e.path, e.spellings[0], "miss")
		for _, body := range e.spellings {
			allocs := testing.AllocsPerRun(50, func() {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", e.path, strings.NewReader(body)))
			})
			if ceiling := warmHitAllocCeilings[e.path]; allocs > ceiling {
				t.Errorf("warm hit POST %s %s: %.0f allocations, ceiling %.0f", e.path, body, allocs, ceiling)
			}
		}
	}
}

// A protocol over the size cap is refused before anything is built or
// admitted: flock(2^20) would be 2^39 transitions over 2^20 states.
// The rejection allocates what decoding the request and writing the
// error take, orders of magnitude below one build of even flock(3).
func TestOversizedProtocolRejected(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for path, body := range map[string]string{
		"/v1/verify":   `{"spec":{"protocol":"flock","param":1048576}}`,
		"/v1/sweep":    `{"spec":{"protocol":"flock","param":1048576},"sizes":[2]}`,
		"/v1/simulate": `{"spec":{"protocol":"flock","param":1048576},"x":3}`,
	} {
		rec, doc := post(t, h, path, body)
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(string(doc["error"]), "cap") {
			t.Fatalf("%s: status %d %s, want 422 naming the size cap", path, rec.Code, rec.Body.String())
		}
		allocs := testing.AllocsPerRun(20, func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", path, strings.NewReader(body)))
		})
		if !raceEnabled && allocs > 60 {
			t.Errorf("%s: rejecting flock(2^20) made %.0f allocations; something was built", path, allocs)
		}
	}
	var m MetricsSnapshot
	get(t, h, "/metrics", &m)
	if m.Admission.Available != m.Admission.Capacity || m.Cache.Misses != 0 {
		t.Errorf("rejected queries took tokens (%d of %d available) or computed (%d misses)",
			m.Admission.Available, m.Admission.Capacity, m.Cache.Misses)
	}
	// Just under the cap is admitted and served.
	rec, _ := post(t, h, "/v1/verify", `{"spec":{"protocol":"flock","param":64},"max_x":2,"budget":1000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("flock(64) verify: status %d %s", rec.Code, rec.Body.String())
	}
}

// A job keeps no result bytes, and its invariant still refuses to
// cache a job that has nothing to serve.
func TestCachedJobMustServe(t *testing.T) {
	jobs := newJobTable(4)
	j, err := jobs.create(key.KindBounds, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	j.key, j.hasKey = key.Key{SHA: strings.Repeat("0", 64), CRC: "crc32c:00000000"}, true
	if err := j.to(StatePlanned); err != nil {
		t.Fatal(err)
	}
	if err := j.cached(1, 0, true); err == nil {
		t.Fatal("a job that served nothing reached cached")
	}
	if err := j.cached(1, 42, true); err != nil {
		t.Fatalf("a job that served 42 bytes did not reach cached: %v", err)
	}
	if v := j.view(); v.State != "cached" || v.Cache != "hit" {
		t.Fatalf("view %+v", v)
	}
}
