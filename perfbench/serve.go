package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/faultfs"
	"repro/internal/serve"
	"repro/internal/serve/key"
	"repro/internal/sim"
)

// poolEntry is one warm query: several spellings that must all land on
// one cache key, and the result bytes of its first (missing) request.
type poolEntry struct {
	path      string
	spellings []string
	key       string // 64 hex digits of the cache key
	result    []byte
}

// warmPool returns the prewarmed queries: cheap, covering the four POST
// endpoints, each with alternate spellings (member order, omitted or
// spelled-out defaults).
func warmPool() []poolEntry {
	eps := strconv.FormatFloat(sim.DefaultEpsilon, 'g', -1, 64)
	return []poolEntry{
		{path: "/v1/simulate", spellings: []string{
			`{"spec":{"protocol":"flock","param":4},"x":6,"trials":3,"seed":11,"max_steps":50000}`,
			`{"max_steps":50000,"seed":11,"trials":3,"x":6,"spec":{"param":4,"protocol":"flock"}}`,
			`{"spec":{"protocol":"flock","param":4},"x":6,"trials":3,"seed":11,"max_steps":50000,"scheduler":"weighted","patience":0}`,
		}},
		{path: "/v1/simulate", spellings: []string{
			`{"spec":{"protocol":"example42","param":3},"x":5,"trials":2,"seed":1,"max_steps":50000}`,
			`{"spec":{"param":3,"protocol":"example42"},"x":5,"trials":2,"max_steps":50000}`,
		}},
		{path: "/v1/simulate", spellings: []string{
			`{"spec":{"protocol":"majority","param":0},"x":9,"y":6,"trials":2,"seed":5,"max_steps":50000}`,
			`{"y":6,"x":9,"spec":{"protocol":"majority"},"trials":2,"seed":5,"max_steps":50000,"scheduler":"weighted"}`,
		}},
		{path: "/v1/simulate", spellings: []string{
			`{"spec":{"protocol":"power2","param":8},"x":300,"trials":2,"seed":2,"max_steps":200000,"scheduler":"countbatch"}`,
			fmt.Sprintf(`{"scheduler":"countbatch","batch":%d,"eps":%s,"spec":{"protocol":"power2","param":8},"x":300,"trials":2,"seed":2,"max_steps":200000}`,
				sim.DefaultMinBatch, eps),
		}},
		{path: "/v1/simulate", spellings: []string{
			`{"spec":{"protocol":"flock","param":4},"x":3,"trials":3,"seed":11,"max_steps":50000}`,
			`{"x":3,"trials":3,"seed":11,"max_steps":50000,"patience":0,"spec":{"param":4,"protocol":"flock"}}`,
		}},
		{path: "/v1/verify", spellings: []string{
			`{"spec":{"protocol":"flock","param":2},"max_x":5,"budget":200000}`,
			`{"budget":200000,"spec":{"param":2,"protocol":"flock"}}`,
		}},
		{path: "/v1/verify", spellings: []string{
			`{"spec":{"protocol":"example42","param":2},"max_x":4,"budget":400000}`,
			`{"max_x":4,"budget":400000,"spec":{"param":2,"protocol":"example42"}}`,
		}},
		{path: "/v1/bounds", spellings: []string{`{"op":"thm43","d":6}`, `{"d":6,"op":"thm43","w":2,"l":2}`}},
		{path: "/v1/bounds", spellings: []string{`{"op":"rackoff"}`, `{"op":"rackoff","d":5,"t":1,"r":1}`}},
		{path: "/v1/bounds", spellings: []string{`{"op":"section8","d":4,"t":2,"l":2}`, `{"op":"section8"}`}},
		{path: "/v1/bounds", spellings: []string{`{"op":"cor44","kmax":12}`, `{"kmax":12,"op":"cor44","h":0.49,"m":2}`}},
		{path: "/v1/bounds", spellings: []string{`{"op":"minstates"}`, `{"op":"minstates","log10n":9,"m":2}`}},
		{path: "/v1/sweep", spellings: []string{
			`{"spec":{"protocol":"flock","param":4},"sizes":[2,4,8],"trials":6,"seed":3,"max_steps":50000,"block":3}`,
			`{"block":3,"max_steps":50000,"seed":3,"trials":6,"sizes":[2,4,8],"spec":{"param":4,"protocol":"flock"},"scheduler":"weighted"}`,
		}},
		{path: "/v1/sweep", spellings: []string{
			`{"spec":{"protocol":"power2","param":3},"sizes":[4,8,16],"trials":4,"seed":7,"max_steps":100000}`,
			`{"spec":{"protocol":"power2","param":3},"sizes":[4,8,16],"trials":4,"seed":7,"max_steps":100000,"block":1}`,
		}},
	}
}

// The serve stream's stratified mix: per block of 40 requests, 36 warm
// repeats and one fresh key on each POST endpoint (10% misses).
var serveWeights = []int{36, 1, 1, 1, 1}

// fresh returns a cheap query on the class's endpoint whose key no
// earlier request of the run used: u makes it unique.
func fresh(class int, u int64) (path, body string) {
	switch class {
	case 1:
		return "/v1/simulate", fmt.Sprintf(`{"spec":{"protocol":"flock","param":4},"x":6,"trials":2,"seed":%d,"max_steps":50000}`, 1_000_000+u)
	case 2:
		return "/v1/verify", fmt.Sprintf(`{"spec":{"protocol":"flock","param":2},"max_x":4,"budget":%d}`, 100_000+u)
	case 3:
		// The pool holds minstates at its default log10n = 9; fresh
		// ones start above it.
		return "/v1/bounds", fmt.Sprintf(`{"op":"minstates","log10n":%s}`, strconv.FormatFloat(10+float64(u)/1e6, 'g', -1, 64))
	default:
		return "/v1/sweep", fmt.Sprintf(`{"spec":{"protocol":"flock","param":4},"sizes":[2,4],"trials":2,"seed":%d,"max_steps":50000,"block":1}`, 1_000_000+u)
	}
}

type serveWL struct {
	seed int64
	dir  string

	root    string // temp directory holding the store
	fs      *timingFS
	handler http.Handler
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	pool    []poolEntry
	stream  *blockStream

	base, phase        serve.MetricsSnapshot // at the first and latest begin
	expHits, expMisses atomic.Int64          // cache outcomes the stream generated
	breakdown          []string              // hit/miss attribution of the traced phase
	breakdownChecks    int                   // consistency checks run on the breakdown
	breakdownFails     []string              // and the ones that failed
}

const serveClients = 2

func newServe(seed int64, dir string) *serveWL { return &serveWL{seed: seed, dir: dir} }

func (s *serveWL) clients() int { return serveClients }

// window is forty blocks of the request stream: about a third of a second.
func (s *serveWL) window() int64 { return 40 * int64(len(s.stream.block)) }

// setup boots a daemon over a fresh store behind a real HTTP server on
// 127.0.0.1 and prewarms the pool: every first spelling must miss and
// every alternate spelling must then hit with the same result bytes.
func (s *serveWL) setup() error {
	root, err := os.MkdirTemp(filepath.Join(s.dir, "tmp"), "serve-")
	if err != nil {
		return err
	}
	s.root = root
	s.fs = &timingFS{base: faultfs.OS(), read: map[string][]byte{}, byKey: map[string]time.Duration{}}
	srv, err := serve.New(serve.Config{StoreDir: filepath.Join(root, "store"), FS: s.fs})
	if err != nil {
		return err
	}
	s.handler = srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true},
		Timeout:   time.Minute,
	}
	s.stream = newBlockStream(s.seed, serveWeights)

	s.pool = warmPool()
	for i := range s.pool {
		e := &s.pool[i]
		q, err := queryOf(e.path, e.spellings[0])
		if err != nil {
			return err
		}
		k, err := key.Of(q)
		if err != nil {
			return err
		}
		e.key = k.SHA
		res, err := s.post(e.path, e.spellings[0])
		if err == nil {
			err = res.check(e.key, "miss", nil)
		}
		if err != nil {
			return fmt.Errorf("prewarm %s %s: %w", e.path, e.spellings[0], err)
		}
		e.result = res.result
		for _, sp := range e.spellings[1:] {
			res, err := s.post(e.path, sp)
			if err == nil {
				err = res.check(e.key, "hit", e.result)
			}
			if err != nil {
				return fmt.Errorf("prewarm alternate spelling %s %s: %w", e.path, sp, err)
			}
		}
	}
	return nil
}

// response is what a client keeps of one answer.
type response struct {
	status int
	cache  string
	key    string // 64 hex digits; empty for /v1/sweep, which carries none
	result []byte
	body   []byte
}

// check compares a response with the generator's expectation.
func (r *response) check(wantKey, wantCache string, wantResult []byte) error {
	switch {
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	case r.cache != wantCache:
		return fmt.Errorf("X-Cache %q, expected %q", r.cache, wantCache)
	case r.key != "" && r.key != wantKey:
		return fmt.Errorf("key %s, expected %s", r.key, wantKey)
	case wantResult != nil && !bytes.Equal(r.result, wantResult):
		return fmt.Errorf("result bytes differ from the key's first answer")
	}
	return nil
}

func (s *serveWL) post(path, body string) (*response, error) {
	resp, err := s.client.Post(s.url+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseResponse(path, resp.StatusCode, resp.Header.Get("X-Cache"), data)
}

// parseResponse extracts the result document: the "result" member of a
// query response, or the terminal line of a /v1/sweep stream.
func parseResponse(path string, status int, cache string, data []byte) (*response, error) {
	r := &response{status: status, cache: cache, body: data}
	if status != http.StatusOK {
		return r, nil
	}
	if path == "/v1/sweep" {
		lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
		r.result = lines[len(lines)-1]
		return r, nil
	}
	var env struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("response: %w", err)
	}
	r.key = strings.TrimPrefix(env.Key, "sha256:")
	r.result = env.Result
	return r, nil
}

// queryOf decodes a request body the way the daemon does.
func queryOf(path, body string) (*key.Query, error) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	switch path {
	case "/v1/simulate":
		var req struct {
			Spec key.Spec `json:"spec"`
			key.SimulateParams
		}
		err := dec.Decode(&req)
		return &key.Query{Kind: key.KindSimulate, Spec: req.Spec, Simulate: &req.SimulateParams}, err
	case "/v1/verify":
		var req struct {
			Spec key.Spec `json:"spec"`
			key.VerifyParams
		}
		err := dec.Decode(&req)
		return &key.Query{Kind: key.KindVerify, Spec: req.Spec, Verify: &req.VerifyParams}, err
	case "/v1/bounds":
		var req struct{ key.BoundsParams }
		err := dec.Decode(&req)
		return &key.Query{Kind: key.KindBounds, Bounds: &req.BoundsParams}, err
	case "/v1/sweep":
		var req struct {
			Spec key.Spec `json:"spec"`
			key.SweepParams
		}
		err := dec.Decode(&req)
		return &key.Query{Kind: key.KindSweep, Spec: req.Spec, Sweep: &req.SweepParams}, err
	}
	return nil, fmt.Errorf("no endpoint %s", path)
}

func (s *serveWL) metrics() (serve.MetricsSnapshot, error) {
	var m serve.MetricsSnapshot
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// begin snapshots /metrics (the first snapshot is the baseline of the
// end-of-run counter check) and switches store-operation timing on or
// off for the phase.
func (s *serveWL) begin(tr *tracer) error {
	m, err := s.metrics()
	if err != nil {
		return err
	}
	if s.base.Instance == "" {
		s.base = m
	}
	s.phase = m
	s.fs.tr.Store(tr)
	s.fs.takeAll()
	return nil
}

func (s *serveWL) op(_ int, seq int64, tr *tracer) opResult {
	class := s.stream.at(seq)
	var path, body, wantKey string
	var want *poolEntry
	name, cache := "serve.miss", "miss"
	if class == 0 {
		r := opRand(s.seed, seq)
		want = &s.pool[r.IntN(len(s.pool))]
		path, body, wantKey = want.path, want.spellings[r.IntN(len(want.spellings))], want.key
		name, cache = "serve.hit", "hit"
		s.expHits.Add(1)
	} else {
		path, body = fresh(class, seq)
		s.expMisses.Add(1)
	}
	id := tr.begin(seq, 0, name)
	t0 := time.Now()
	res, err := s.post(path, body)
	lat := time.Since(t0)
	tr.end(id, 0)
	if err == nil {
		var wantResult []byte
		if want != nil {
			wantResult = want.result
		} else if res.key != "" {
			wantKey = res.key
		}
		err = res.check(wantKey, cache, wantResult)
	}
	var io time.Duration
	if err == nil && wantKey == "" {
		// /v1/sweep answers carry no key.
		var q *key.Query
		if q, err = queryOf(path, body); err == nil {
			var k key.Key
			k, err = key.Of(q)
			wantKey = k.SHA
		}
	}
	if err == nil {
		io = s.fs.take(wantKey, want == nil)
	}
	if err == nil && tr != nil {
		err = s.probe(path, body, res, want, tr, seq, id)
		s.fs.take(wantKey, want == nil) // the probe's own store operations
	}
	if err != nil {
		err = fmt.Errorf("serve %s %s: %w", path, body, err)
	}
	return opResult{lat: lat, io: io, kind: cache + " " + path, err: err}
}

// probe attributes a request's time to the layers behind it: key.Of on
// the same body, and for a warm hit the same request through
// Handler().ServeHTTP in-process and canon.Checksum over the artifact
// bytes the store read. Store operations are timed by the timing FS.
func (s *serveWL) probe(path, body string, res *response, want *poolEntry, tr *tracer, seq int64, req int32) error {
	q, err := queryOf(path, body)
	if err != nil {
		return err
	}
	id := tr.begin(seq, 0, "key.of")
	k, err := key.Of(q)
	tr.end(id, 0)
	if err != nil {
		return err
	}
	if res.key != "" && res.key != k.SHA {
		return fmt.Errorf("key.Of gives %s, the daemon %s", k.SHA, res.key)
	}
	tr.setKey(req, k.SHA)
	if want == nil {
		return nil
	}

	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	id = tr.begin(seq, 0, "serve.handler")
	s.handler.ServeHTTP(rec, hreq)
	tr.end(id, 0)
	tr.setKey(id, k.SHA)
	s.expHits.Add(1)
	inproc, err := parseResponse(path, rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes())
	if err == nil {
		err = inproc.check(want.key, "hit", want.result)
	}
	if err != nil {
		return fmt.Errorf("in-process replay: %w", err)
	}

	data := s.fs.artifact(k.SHA)
	if data == nil {
		return fmt.Errorf("no artifact read recorded for key %s", k.SHA)
	}
	id = tr.begin(seq, 0, "canon.checksum")
	_, err = canon.Checksum(data, "checksum")
	tr.end(id, int64(len(data)))
	return err
}

// finish checks the daemon's own counters against the generated
// stream: over the measured phases the /metrics hit (plus shared
// flight) and miss deltas must equal the generated hit and miss
// counts, with no failed request.
func (s *serveWL) finish() (int, []string) {
	m, err := s.metrics()
	if err != nil {
		return 1, []string{"serve /metrics: " + err.Error()}
	}
	var fails []string
	hits := (m.Cache.Hits + m.Cache.Dedups) - (s.base.Cache.Hits + s.base.Cache.Dedups)
	misses := m.Cache.Misses - s.base.Cache.Misses
	if hits != s.expHits.Load() || misses != s.expMisses.Load() {
		fails = append(fails, fmt.Sprintf("serve /metrics counted %d hits and %d misses, the stream generated %d and %d",
			hits, misses, s.expHits.Load(), s.expMisses.Load()))
	}
	if d := m.Failures - s.base.Failures; d != 0 {
		fails = append(fails, fmt.Sprintf("serve /metrics counted %d failed requests", d))
	}
	return 2 + s.breakdownChecks, append(fails, s.breakdownFails...)
}

func (s *serveWL) extra(ph phase) map[string]metric {
	var hit, miss []time.Duration
	for _, o := range ph.ops {
		if strings.HasPrefix(o.kind, "hit") {
			hit = append(hit, o.lat)
		} else {
			miss = append(miss, o.lat)
		}
	}
	h, m := latencyMs(hit), latencyMs(miss)
	return map[string]metric{
		"hit_p50_ms":  {median(h), "ms", len(h)},
		"hit_p99_ms":  {percentile(h, 0.99), "ms", len(h)},
		"miss_p50_ms": {median(m), "ms", len(m)},
	}
}

// attribute assigns each store operation recorded by t to the request
// (or in-process replay) it served: same cache key — or key prefix,
// for directory operations — and an interval that contains the
// operation's start. The store operations become the request's child
// spans.
func attribute(t *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	owners := map[string][]int{}
	for i, s := range spans {
		if (s.Name == "serve.hit" || s.Name == "serve.miss" || s.Name == "serve.handler") && len(s.Key) == 64 {
			owners[s.Key] = append(owners[s.Key], i)
			owners[s.Key[:2]] = append(owners[s.Key[:2]], i)
		}
	}
	for i := range spans {
		fs := &spans[i]
		if fs.Job != -1 {
			continue
		}
		best := -1
		for _, o := range owners[fs.Key] {
			ow := &spans[o]
			if ow.Start <= fs.Start && fs.Start <= ow.End && (best < 0 || ow.Start > spans[best].Start) {
				best = o
			}
		}
		if best >= 0 {
			fs.Parent, fs.Job = spans[best].ID, spans[best].Job
		}
	}
}

func (s *serveWL) layers(tr *tracer) map[string]metric {
	attribute(tr)
	spans := tr.snapshot()
	sums := summarize(spans)
	kind := map[int32]string{}
	for _, sp := range spans {
		kind[sp.ID] = sp.Name
	}
	// Store operations split by the kind of request they served.
	onHit, onMiss := map[string]*opAcc{}, map[string]*opAcc{}
	for _, sp := range spans {
		if sp.Job == -1 || sp.Parent == 0 || !strings.HasPrefix(sp.Name, "store.") {
			continue
		}
		m := onMiss
		if k := kind[sp.Parent]; k == "serve.hit" || k == "serve.handler" {
			m = onHit
		}
		a := m[sp.Name]
		if a == nil {
			a = &opAcc{}
			m[sp.Name] = a
		}
		a.total += sp.dur()
		a.count++
	}
	meanUs := func(m map[string]*opAcc, name string) float64 {
		if a := m[name]; a != nil && a.count > 0 {
			return float64(a.total) / 1e3 / float64(a.count)
		}
		return 0
	}
	missCount := max(sums["serve.miss"].count, 1)
	perMissMs := func(names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			if a := onMiss[n]; a != nil {
				t += a.total
			}
		}
		return ms(t) / float64(missCount)
	}

	now, err := s.metrics()
	if err != nil {
		now = s.phase
	}
	phaseUs := func(name string) float64 {
		a, b := s.phase.Phases[name], now.Phases[name]
		n := b.Count - a.Count
		return float64(b.Count*b.MeanNs-a.Count*a.MeanNs) / 1e3 / float64(max(n, 1))
	}
	c0, c1 := s.phase.Cache, now.Cache
	hits, misses, dedups := c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Dedups-c0.Dedups

	roundtrip := sums["serve.hit"].meanUs()
	handler := sums["serve.handler"].meanUs()
	keyOf := sums["key.of"].meanUs()
	read := meanUs(onHit, "store.read")
	checksum := sums["canon.checksum"].meanUs()
	journal := meanUs(onHit, "store.journal_append")
	// The serve self time is a remainder, not a measured span: key.Of
	// and canon.Checksum are replayed outside the handler. So check it
	// against the independent spans: the parts must fit in the handler
	// and the handler in the round trip.
	self := handler - keyOf - read - checksum - journal
	s.breakdownChecks, s.breakdownFails = 2, nil
	if self < 0 {
		s.breakdownFails = append(s.breakdownFails, fmt.Sprintf(
			"serve hit breakdown: key.Of, store read, canon.Checksum and journal append (%.1f µs) exceed the in-process handler (%.1f µs)",
			handler-self, handler))
	}
	if roundtrip < handler {
		s.breakdownFails = append(s.breakdownFails, fmt.Sprintf(
			"serve hit breakdown: the in-process handler (%.1f µs) exceeds the loopback round trip (%.1f µs)", handler, roundtrip))
	}
	s.breakdown = []string{
		fmt.Sprintf("serve hit breakdown (mean µs per warm hit): roundtrip %.1f = loopback %.1f + handler %.1f;", roundtrip, roundtrip-handler, handler),
		fmt.Sprintf("  handler %.1f = key.Of %.1f + store read %.1f + canon.Checksum %.1f + journal append %.1f + serve self %.1f (remainder)",
			handler, keyOf, read, checksum, journal, self),
		fmt.Sprintf("  journal append share of a hit: %.1f%% of the handler, %.1f%% of the round trip",
			100*journal/max(handler, 1e-9), 100*journal/max(roundtrip, 1e-9)),
		fmt.Sprintf("serve miss publish (mean ms per miss): write+fsync %.3f, rename %.3f, dir fsync %.3f, mkdir %.3f",
			perMissMs("store.write_sync"), perMissMs("store.rename"), perMissMs("store.sync_dir"), perMissMs("store.mkdir")),
	}
	return map[string]metric{
		"serve.roundtrip_us":         {roundtrip, "us", sums["serve.hit"].count},
		"serve.handler_us":           {handler, "us", sums["serve.handler"].count},
		"serve.loopback_overhead_us": {roundtrip - handler, "us", sums["serve.hit"].count},
		"serve.handler_self_us":      {self, "us", sums["serve.handler"].count},
		"serve.admit_wait_us":        {phaseUs("admit"), "us", int(now.Phases["admit"].Count - s.phase.Phases["admit"].Count)},
		"serve.run_phase_us":         {phaseUs("run"), "us", int(now.Phases["run"].Count - s.phase.Phases["run"].Count)},
		"serve.admission_rejected":   {float64(now.Admission.Rejected - s.phase.Admission.Rejected), "count", 1},
		"key.of_us":                  {keyOf, "us", sums["key.of"].count},
		"canon.checksum_us":          {checksum, "us", sums["canon.checksum"].count},
		"canon.bytes_per_s":          {float64(sums["canon.checksum"].n) / max(sums["canon.checksum"].total.Seconds(), 1e-9), "B/s", sums["canon.checksum"].count},
		"store.read_us":              {read, "us", onHit["store.read"].n()},
		"store.journal_append_us":    {journal, "us", onHit["store.journal_append"].n()},
		"store.journal_hit_share":    {journal / max(handler, 1e-9), "ratio", sums["serve.handler"].count},
		"store.publish_ms":           {perMissMs("store.write_sync", "store.rename", "store.sync_dir", "store.mkdir"), "ms", missCount},
		"store.fsync_ms":             {perMissMs("store.write_sync", "store.sync_dir"), "ms", missCount},
		"store.hits":                 {float64(hits), "count", 1},
		"store.misses":               {float64(misses), "count", 1},
		"store.dedups":               {float64(dedups), "count", 1},
		"store.io_retries":           {float64(c1.IORetries - c0.IORetries), "count", 1},
		"store.hit_ratio":            {float64(hits+dedups) / float64(max(hits+dedups+misses, 1)), "ratio", int(hits + dedups + misses)},
	}
}

// opAcc sums one kind of store operation.
type opAcc struct {
	total time.Duration
	count int
}

func (a *opAcc) n() int {
	if a == nil {
		return 0
	}
	return a.count
}

func (s *serveWL) notes() []string { return s.breakdown }

// ioWait is the time set-up spent in store file operations: the
// prewarm publishes every pool artifact durably.
func (s *serveWL) ioWait() time.Duration { return time.Duration(s.fs.io.Load()) }

func (s *serveWL) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.hs.Shutdown(ctx) // a hung connection is cut at the timeout; nothing to report
		cancel()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		s.client.CloseIdleConnections()
	}
	if s.root != "" {
		os.RemoveAll(s.root)
	}
}

// timingFS wraps the store's filesystem seam. While a tracer is set it
// records every operation as a span labelled with the cache key it
// touched, and keeps the first bytes read for each artifact so the
// checksum probe can run on the same bytes.
type timingFS struct {
	base faultfs.FS
	tr   atomic.Pointer[tracer]
	// io is the total time spent in the store's file operations,
	// traced or not.
	io atomic.Int64

	mu    sync.Mutex
	read  map[string][]byte
	byKey map[string]time.Duration // publish time per key or key prefix, until taken
}

// take returns and forgets the publish time recorded for a cache key
// and, with dirs, for its objects/<xx> directory.
func (f *timingFS) take(sha string, dirs bool) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.byKey[sha]
	delete(f.byKey, sha)
	if dirs && len(sha) == 64 {
		d += f.byKey[sha[:2]]
		delete(f.byKey, sha[:2])
	}
	return d
}

// takeAll forgets every recorded publish time.
func (f *timingFS) takeAll() {
	f.mu.Lock()
	clear(f.byKey)
	f.mu.Unlock()
}

func (f *timingFS) artifact(sha string) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.read[sha]
}

// objectKey extracts the key from an objects/<xx>/<sha>.json[.tmp.*]
// path, or the two-hex fan-out prefix from an objects/<xx> directory.
func objectKey(path string) string {
	base := filepath.Base(path)
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	if len(base) == 64 || (len(base) == 2 && filepath.Base(filepath.Dir(path)) == "objects") {
		return base
	}
	return ""
}

// timed runs one file operation. The durable ones (write and fsync,
// rename, directory fsync) are the operations the reference publish
// mirrors, whose time the disk's speed governs; their time is also
// booked to the key.
func (f *timingFS) timed(name, key string, n int64, durable bool, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	f.io.Add(int64(t1.Sub(t0)))
	if durable && key != "" {
		f.mu.Lock()
		f.byKey[key] += t1.Sub(t0)
		f.mu.Unlock()
	}
	f.tr.Load().record(name, key, t0, t1, n)
	return err
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := f.timed("store.read", objectKey(name), 0, false, func() error {
		var err error
		data, err = f.base.ReadFile(name)
		return err
	})
	if err == nil && f.tr.Load() != nil {
		if k := objectKey(name); len(k) == 64 {
			f.mu.Lock()
			if f.read[k] == nil {
				f.read[k] = data
			}
			f.mu.Unlock()
		}
	}
	return data, err
}

func (f *timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return f.timed("store.write", objectKey(name), int64(len(data)), false, func() error { return f.base.WriteFile(name, data, perm) })
}

func (f *timingFS) WriteFileSync(name string, data []byte, perm os.FileMode) error {
	return f.timed("store.write_sync", objectKey(name), int64(len(data)), true, func() error { return f.base.WriteFileSync(name, data, perm) })
}

func (f *timingFS) Append(name string, data []byte, perm os.FileMode) error {
	k := ""
	if fields := strings.Fields(string(data)); len(fields) > 1 {
		k = fields[1] // journal line: <op> <sha> <kind> <size> <unix>
	}
	return f.timed("store.journal_append", k, int64(len(data)), false, func() error { return f.base.Append(name, data, perm) })
}

func (f *timingFS) Rename(oldname, newname string) error {
	return f.timed("store.rename", objectKey(newname), 0, true, func() error { return f.base.Rename(oldname, newname) })
}

func (f *timingFS) Link(oldname, newname string) error {
	return f.timed("store.link", objectKey(newname), 0, false, func() error { return f.base.Link(oldname, newname) })
}

func (f *timingFS) Remove(name string) error {
	return f.timed("store.remove", objectKey(name), 0, false, func() error { return f.base.Remove(name) })
}

func (f *timingFS) Stat(name string) (os.FileInfo, error) {
	var fi os.FileInfo
	err := f.timed("store.stat", objectKey(name), 0, false, func() error {
		var err error
		fi, err = f.base.Stat(name)
		return err
	})
	return fi, err
}

func (f *timingFS) MkdirAll(name string, perm os.FileMode) error {
	return f.timed("store.mkdir", objectKey(name), 0, false, func() error { return f.base.MkdirAll(name, perm) })
}

func (f *timingFS) SyncDir(name string) error {
	return f.timed("store.sync_dir", objectKey(name), 0, true, func() error { return f.base.SyncDir(name) })
}

func (f *timingFS) Now() time.Time { return f.base.Now() }
