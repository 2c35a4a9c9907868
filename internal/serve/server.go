// Package serve is the ppserve daemon: a long-lived HTTP/JSON front
// end over the repo's simulation, verification, and bounds engines
// with a persistent content-addressed result cache.
//
// Every request is reduced to a canonical query (internal/serve/key):
// defaults are filled explicitly, parameters validated, and the
// canonical bytes hashed, so any two requests that mean the same
// computation share one cache key and one stored artifact — the
// daemon's answer to a repeated query is a file read, not a
// recomputation, across restarts. Results live in the
// content-addressed store (internal/serve/store), published through
// the faultfs fsync-temp→rename seam and checksum-verified on read;
// a corrupt artifact is quarantined and recomputed, never served.
// Concurrent identical queries collapse into one compute via the
// store's singleflight.
//
// Each request walks the lifecycle state machine in sm.go —
// admitted → planned → running → cached/failed/timed_out — with every
// transition checked against the allowed-transition table and the
// job's invariant (a cached job holds its artifact, a failed job its
// reason); the conformance test pins every legal path and every
// illegal edge. Admission control is a token bucket denominated in
// shard cost-model units: a query's estimated cost (trials × per-trial
// cost, or the verify closure budget) must fit the bucket before any
// engine work starts, so expensive bursts queue instead of
// stampeding the samplers. /metrics exposes the cache hit rate,
// per-phase latencies, admission balance, breaker and store health,
// and store footprint.
//
// The serve path is self-limiting and self-healing. Every request
// runs under a compute deadline — Config.Deadline, or a per-query
// default priced from the same cost model admission uses — and the
// deadline's context is plumbed into the engines, so an expired
// request stops burning workers; the client gets 503 with a
// Retry-After hint sized to the bucket's backlog, and the job lands
// in the terminal timed_out state (distinct from failed: the query
// was fine, retrying later may hit warm). A query whose compute keeps
// failing trips a per-key circuit breaker — while the circuit is open
// the daemon refuses that key for free, and after the TTL exactly one
// half-open probe decides whether it closes. Request bodies are
// capped (413 past the limit), /healthz answers liveness while the
// process is up, and /readyz flips to 503 while the store underneath
// is degraded to compute-only mode, healing itself in the background.
//
// /v1/sweep is the anytime endpoint: an NDJSON stream of checksummed
// per-cell delta lines while the compute runs — each delta a sealed
// shard.CellArtifact whose cumulative trial counts give the client a
// strictly increasing completeness view — followed by one terminal
// merged document byte-identical to the stored artifact, so a client
// folding deltas can cross-check the fold and a warm replay (which
// skips straight to the terminal line, X-Cache: hit) returns exactly
// the bytes the cold stream promised. Sweep queries run through the
// ppsweep pipeline itself — planned by internal/shard with the same
// block dicing, executed by its one cell executor under the same stop
// rule, folded by MergePartial — so daemon and CLI produce
// interchangeable artifacts; a stream cut by a failure or deadline is detectable by
// its missing terminal line, and a disconnected client cancels the
// compute and returns its admission tokens.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/faultfs"
	"repro/internal/hostmeta"
	"repro/internal/serve/key"
	"repro/internal/serve/store"
)

// Config sizes one daemon.
type Config struct {
	// StoreDir roots the content-addressed result store.
	StoreDir string
	// Workers bounds each compute's worker pool (0 = GOMAXPROCS).
	Workers int
	// AdmitCapacity sizes the admission token bucket in shard
	// cost-model units (0 = the default capacity).
	AdmitCapacity int64
	// JobWindow bounds the /v1/jobs record table (0 = 4096).
	JobWindow int
	// Deadline caps each request's wall time inside the daemon —
	// admission wait plus compute. 0 prices a per-query default from
	// the same cost estimate admission uses (deadlineFor), so cheap
	// queries time out in seconds and a maximal verify gets minutes.
	Deadline time.Duration
	// StoreMaxBytes bounds the result store's on-disk footprint with
	// LRU eviction (0 = unbounded).
	StoreMaxBytes int64
	// BreakerThreshold consecutive compute failures for one key open
	// its circuit for BreakerTTL: the query is refused with the cached
	// failure instead of recomputed (0 = 3 failures, 30s).
	BreakerThreshold int
	BreakerTTL       time.Duration
	// StoreProbeBase is the degraded store's first self-heal probe
	// delay, doubling to 30s (0 = 250ms); chaos tests shrink it.
	StoreProbeBase time.Duration
	// FS is the filesystem seam for the store (nil = the real OS);
	// tests inject faults here.
	FS faultfs.FS
}

// Server is one ppserve daemon instance.
type Server struct {
	store    *store.Store
	admit    *admitter
	breaker  *breaker
	metrics  metrics
	jobs     *jobTable
	identity hostmeta.Process
	workers  int
	deadline time.Duration
	started  time.Time
}

// New opens the store and assembles a daemon.
func New(cfg Config) (*Server, error) {
	st, err := store.Open(cfg.StoreDir, store.Options{
		FS:        cfg.FS,
		MaxBytes:  cfg.StoreMaxBytes,
		ProbeBase: cfg.StoreProbeBase,
	})
	if err != nil {
		return nil, err
	}
	return &Server{
		store:    st,
		admit:    newAdmitter(cfg.AdmitCapacity),
		breaker:  newBreaker(cfg.BreakerThreshold, cfg.BreakerTTL),
		jobs:     newJobTable(cfg.JobWindow),
		identity: hostmeta.CollectProcess(),
		workers:  cfg.Workers,
		deadline: cfg.Deadline,
		started:  time.Now(),
	}, nil
}

// deadlineFor prices a request's compute deadline from its admission
// cost when no explicit Config.Deadline is set: a floor for cheap
// queries plus a cost-proportional term, capped — the same unit
// admission reasons in, so "expensive" buys time as well as tokens.
func (s *Server) deadlineFor(cost int64) time.Duration {
	if s.deadline > 0 {
		return s.deadline
	}
	d := 5*time.Second + time.Duration(cost/(1<<14))*time.Second
	if d > 2*time.Minute {
		d = 2 * time.Minute
	}
	return d
}

// retryAfter derives a Retry-After hint (seconds) from the admission
// balance: an idle daemon says "right away", a saturated one backs
// clients off up to 30s.
func (s *Server) retryAfter() int {
	capacity, avail, _ := s.admit.snapshot()
	if capacity <= 0 {
		return 1
	}
	return int(1 + 29*(capacity-avail)/capacity)
}

// Store exposes the result store (for the replay client and tests).
func (s *Server) Store() *store.Store { return s.store }

// Handler builds the daemon's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		var req simulateRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		s.run(w, r, &key.Query{Kind: key.KindSimulate, Spec: req.Spec, Simulate: &req.SimulateParams})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req verifyRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		s.run(w, r, &key.Query{Kind: key.KindVerify, Spec: req.Spec, Verify: &req.VerifyParams})
	})
	mux.HandleFunc("POST /v1/bounds", func(w http.ResponseWriter, r *http.Request) {
		var req boundsRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		s.run(w, r, &key.Query{Kind: key.KindBounds, Bounds: &req.BoundsParams})
	})
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var req sweepRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		s.runSweep(w, r, &key.Query{Kind: key.KindSweep, Spec: req.Spec, Sweep: &req.SweepParams})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.jobs.get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no such job (the record window may have evicted it)"))
			return
		}
		writeJSON(w, http.StatusOK, j.view())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.metrics.snapshot(s.store, s.admit, s.breaker, s.jobs, s.identity.Instance(), s.started))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and serving. Degradation is a
		// readiness concern, never a liveness one.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		h := s.store.Health()
		status := http.StatusOK
		ready := "ok"
		if h.Degraded {
			// Still serving (compute-only), but a load balancer should
			// prefer a replica whose cache persists.
			status = http.StatusServiceUnavailable
			ready = "degraded"
		}
		writeJSON(w, status, map[string]any{"status": ready, "store": h})
	})
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 || n > 1000 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("limit must be in [1, 1000], got %q", v))
				return
			}
			limit = n
		}
		page, next := s.store.Keys(r.URL.Query().Get("after"), limit)
		writeJSON(w, http.StatusOK, keysResponse{Keys: page, Next: next})
	})
	return mux
}

// keysResponse pages the store inventory: keyset pagination, so a
// page is consistent even while puts and evictions race the listing.
type keysResponse struct {
	Keys []store.KeyInfo `json:"keys"`
	// Next is the cursor for the following page ("" when exhausted);
	// pass it back as ?after=.
	Next string `json:"next,omitempty"`
}

// Per-endpoint request bodies: the protocol spec plus the endpoint's
// parameter block inlined — exactly the fields the cache key hashes,
// so a request body IS its key material. Unknown members are
// rejected: a typoed parameter must not silently key as the default.
type simulateRequest struct {
	Spec key.Spec `json:"spec"`
	key.SimulateParams
}

type verifyRequest struct {
	Spec key.Spec `json:"spec"`
	key.VerifyParams
}

type boundsRequest struct {
	key.BoundsParams
}

// queryResponse is every query endpoint's response envelope.
type queryResponse struct {
	Job    string          `json:"job"`
	Key    string          `json:"key"`
	Cache  string          `json:"cache"`
	Kind   string          `json:"kind"`
	Result json.RawMessage `json:"result"`
}

// run drives one query through the full lifecycle:
// deadline + admission (tokens) → plan (canonicalize + key) →
// breaker check → store lookup / singleflight compute → response.
// Every state change goes through the job's SM; an illegal transition
// here is a bug, surfaced as a 500 rather than papered over.
//
// The whole walk runs under a compute deadline (Config.Deadline, or a
// per-query default priced from the admission cost). When it expires
// — or the client disconnects — the context cancellation propagates
// into the engines (sim polls it, petri.Budget.Cancel carries it into
// the verify closure walk), the job lands in timed_out, the held
// admission tokens are released immediately, and the client gets 503
// with a Retry-After derived from the admission balance.
func (s *Server) run(w http.ResponseWriter, r *http.Request, q *key.Query) {
	s.metrics.requests.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	// Normalization must precede admission: the cost estimate reads
	// the defaults-filled form. A malformed query is the client's
	// fault and never consumes tokens.
	if err := q.Normalize(); err != nil {
		s.metrics.failures.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cost := queryCost(q)
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(cost))
	defer cancel()

	// The job record exists before admission, so a request that dies
	// waiting for tokens is a visible timed_out job, not a mystery.
	j, err := s.jobs.create(q.Kind, time.Now())
	if err != nil {
		s.metrics.failures.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	fail := func(status int, err error) {
		s.metrics.failures.Add(1)
		j.mu.Lock()
		j.errMsg = err.Error()
		smErr := j.sm.To(StateFailed)
		j.mu.Unlock()
		if smErr != nil {
			err = errors.Join(err, smErr)
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
	}

	// timeout resolves a request whose deadline expired or whose
	// client vanished: the job is timed_out either way (the query
	// itself was fine — re-posting it later may even hit warm), and
	// the 503 tells a still-listening client when to come back.
	timeout := func(cause error) {
		s.metrics.failures.Add(1)
		s.metrics.timeouts.Add(1)
		j.mu.Lock()
		j.errMsg = cause.Error()
		smErr := j.sm.To(StateTimedOut)
		j.mu.Unlock()
		if smErr != nil {
			writeError(w, http.StatusInternalServerError, errors.Join(cause, smErr))
			return
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusServiceUnavailable, cause)
	}

	tAdmit := time.Now()
	if err := s.admit.acquire(ctx, cost); err != nil {
		if ctx.Err() != nil {
			timeout(fmt.Errorf("serve: admission wait exceeded the request deadline: %w", err))
			return
		}
		s.metrics.failures.Add(1)
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	defer s.admit.release(cost)
	admitDur := time.Since(tAdmit)
	s.metrics.observePhase(phaseAdmit, admitDur)
	j.mu.Lock()
	j.phases[phaseAdmit] = admitDur
	j.mu.Unlock()

	tPlan := time.Now()
	k, err := key.Of(q)
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	j.mu.Lock()
	j.key, j.hasKey = k, true
	smErr := j.sm.To(StatePlanned)
	j.phases[phasePlan] = time.Since(tPlan)
	j.mu.Unlock()
	if smErr != nil {
		fail(http.StatusInternalServerError, smErr)
		return
	}
	s.metrics.observePhase(phasePlan, j.phases[phasePlan])

	if open, remaining, lastErr := s.breaker.check(k.SHA); open {
		j.mu.Lock()
		j.errMsg = "circuit open: " + lastErr
		smErr := j.sm.To(StateFailed)
		j.mu.Unlock()
		s.metrics.failures.Add(1)
		if smErr != nil {
			writeError(w, http.StatusInternalServerError, smErr)
			return
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(remaining/time.Second)+1))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: this query keeps failing and its circuit is open for %s: %s", remaining.Round(time.Millisecond), lastErr))
		return
	}

	tRun := time.Now()
	art, hit, err := s.store.GetOrCompute(ctx, k, q.Kind, func(ctx context.Context) (json.RawMessage, error) {
		// This closure runs only when this job leads a cache-miss
		// compute; followers and disk hits stay in planned.
		if err := j.to(StateRunning); err != nil {
			return nil, err
		}
		return s.compute(ctx, q)
	})
	runDur := time.Since(tRun)
	s.metrics.observePhase(phaseRun, runDur)
	if err != nil {
		if ctx.Err() != nil {
			// Deadline or disconnect. Only a deadline feeds the breaker:
			// a query that cannot finish in its time budget is poison,
			// a client that hung up says nothing about the query.
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.breaker.failure(k.SHA, "deadline exceeded: "+err.Error())
			}
			timeout(fmt.Errorf("serve: compute exceeded the request deadline: %w", err))
			return
		}
		s.breaker.failure(k.SHA, err.Error())
		fail(http.StatusInternalServerError, err)
		return
	}
	s.breaker.success(k.SHA)
	j.mu.Lock()
	j.phases[phaseRun] = runDur
	j.artifact, j.hit = art, hit
	smErr = j.sm.To(StateCached)
	j.mu.Unlock()
	if smErr != nil {
		fail(http.StatusInternalServerError, smErr)
		return
	}

	cache := "miss"
	if hit {
		cache = "hit"
	}
	w.Header().Set("X-Cache", cache)
	writeJSON(w, http.StatusOK, queryResponse{
		Job:    j.id,
		Key:    k.String(),
		Cache:  cache,
		Kind:   q.Kind,
		Result: art.Result,
	})
}

// maxBodyBytes bounds a query body. Real queries are a few hundred
// bytes of parameters; a megabyte is already absurd, and an unbounded
// decoder would buffer whatever a hostile client streams.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes a JSON request body; unknown members
// are a 400 so a typo cannot silently become a default (and a
// different cache key than the client intended), and bodies over
// maxBodyBytes are cut off with 413 before they can balloon memory.
// A rejected body still counts as a request and a failure in
// /metrics.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		s.metrics.requests.Add(1)
		s.metrics.failures.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
