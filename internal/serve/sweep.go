package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/hostmeta"
	"repro/internal/registry"
	"repro/internal/serve/key"
	"repro/internal/shard"
	"repro/internal/sim"
)

// sweepRequest is the POST /v1/sweep body: the protocol spec plus the
// sweep parameter block inlined, exactly the cache-key material.
type sweepRequest struct {
	Spec key.Spec `json:"spec"`
	key.SweepParams
}

// ndjsonWriter serializes the /v1/sweep stream: per-cell delta lines
// while the compute runs, then one terminal merged-document line. The
// header (status 200, Content-Type, X-Cache) is written lazily at the
// first line, so a request that fails before any delta still gets a
// proper JSON error status; once a line is out, the response is
// committed and a later failure can only truncate the stream (which
// the replay client detects by the missing terminal line). Writes are
// serialized: the compute closure emits deltas from sampler
// goroutines.
type ndjsonWriter struct {
	w     http.ResponseWriter
	cache string // X-Cache value, decided before the first write

	mu    sync.Mutex
	wrote bool
}

func (nw *ndjsonWriter) writeLine(line []byte) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.wrote {
		nw.w.Header().Set("Content-Type", "application/x-ndjson")
		nw.w.Header().Set("X-Cache", nw.cache)
		nw.w.WriteHeader(http.StatusOK)
		nw.wrote = true
	}
	if _, err := nw.w.Write(line); err != nil {
		return err
	}
	if _, err := io.WriteString(nw.w, "\n"); err != nil {
		return err
	}
	if f, ok := nw.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

func (nw *ndjsonWriter) committed() bool {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.wrote
}

// runSweep drives one anytime sweep query: the same lifecycle as run()
// — normalize → admit → plan → breaker → store singleflight — but the
// response is an NDJSON stream. When this request leads a cache-miss
// compute, every finished cell is streamed as a sealed delta line the
// moment it lands; a warm hit (or a follower collapsed into a leader's
// flight) skips straight to the terminal line. The terminal line is
// byte-identical to the stored artifact's result document, so a client
// folding deltas can cross-check against it and a replayed query gets
// exactly the bytes the stream promised.
func (s *Server) runSweep(w http.ResponseWriter, r *http.Request, q *key.Query) {
	s.metrics.requests.Add(1)
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	if status, err := s.admissible(q); err != nil {
		writeError(w, status, err)
		return
	}
	cost := queryCost(q)
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(cost))
	defer cancel()

	j, err := s.jobs.create(q.Kind, time.Now())
	if err != nil {
		s.metrics.failures.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}

	nw := &ndjsonWriter{w: w, cache: "miss"}

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
		if !nw.committed() {
			writeError(w, status, err)
		}
	}
	timeout := func(cause error) {
		s.metrics.failures.Add(1)
		s.metrics.timeouts.Add(1)
		j.mu.Lock()
		j.errMsg = cause.Error()
		smErr := j.sm.To(StateTimedOut)
		j.mu.Unlock()
		if nw.committed() {
			return // mid-stream: the truncated stream is the signal
		}
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
	k, err := key.OfNormalized(q)
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
		// Leader of a cache-miss flight: this request streams every
		// delta. Followers and warm hits never enter here and get only
		// the terminal line.
		if err := j.to(StateRunning); err != nil {
			return nil, err
		}
		return s.computeSweep(ctx, q, func(ca *shard.CellArtifact) error {
			line, err := shard.SealCellLine(ca)
			if err != nil {
				return err
			}
			return nw.writeLine(line)
		})
	})
	runDur := time.Since(tRun)
	s.metrics.observePhase(phaseRun, runDur)
	if err != nil {
		if ctx.Err() != nil {
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
	line, err := terminalLine(art.Result)
	if err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	if smErr := j.cached(runDur, len(line), hit); smErr != nil {
		fail(http.StatusInternalServerError, smErr)
		return
	}
	if hit {
		nw.cache = "hit"
	}
	_ = nw.writeLine(line)
}

// terminalLine is a sweep's terminal line: the compact form of the
// stored artifact's result bytes. Compacting undoes only the sealed
// layout's indentation, so the line is the merged document exactly as
// computeSweep marshaled it, on a miss and on every hit.
func terminalLine(result []byte) ([]byte, error) {
	var line bytes.Buffer
	line.Grow(len(result))
	if err := json.Compact(&line, result); err != nil {
		return nil, err
	}
	return line.Bytes(), nil
}

// computeSweep executes one normalized sweep query through the ppsweep
// pipeline itself: shard.PlanCostBlock plans it as one shard (the
// daemon is a single process; parallelism lives inside the samplers),
// shard.RunResumableStop runs the cells with no partials directory
// under the query's stop rule, handing each computed cell to emit,
// and shard.MergePartial folds them into the result document. Sharing
// the executor is what makes the daemon's documents byte-compatible
// with the pipeline's: the same spec, block and rule produce the same
// cells, the same stopping boundary, and the same merged bytes. An
// emit error cancels the run and is returned.
func (s *Server) computeSweep(ctx context.Context, q *key.Query, emit func(*shard.CellArtifact) error) (json.RawMessage, error) {
	sw, rule, err := sweepSpecOf(q)
	if err != nil {
		return nil, err
	}
	m, err := shard.PlanCostBlock(sw, 1, shard.DefaultCost(sw.Scheduler), q.Sweep.Block)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	host := hostmeta.Collect()
	var emitErr error
	art, _, err := shard.RunResumableStop(ctx, m, m.Shards[0].ID, s.workers, "", rule, func(x int64, lo, hi int, st sim.Stats) {
		if emitErr == nil {
			emitErr = emit(&shard.CellArtifact{Schema: shard.ArtifactSchema, Sweep: sw,
				Cell: shard.Cell{X: x, TrialLo: lo, TrialHi: hi}, Stats: st, Host: host})
			if emitErr != nil {
				cancel()
			}
		}
	})
	if emitErr != nil {
		return nil, emitErr
	}
	if err != nil {
		return nil, err
	}
	merged, err := shard.MergePartial(sw, art.Points, rule)
	if err != nil {
		return nil, err
	}
	return json.Marshal(merged)
}

// sweepSpecOf translates a normalized sweep query into the shard
// pipeline's spec and stop rule. The input state is the registry
// entry's, so nothing is built here.
func sweepSpecOf(q *key.Query) (shard.SweepSpec, sim.StopRule, error) {
	p := q.Sweep
	e, err := registry.Lookup(q.Spec.Protocol)
	if err != nil {
		return shard.SweepSpec{}, sim.StopRule{}, err
	}
	sw := shard.SweepSpec{
		Protocol:   q.Spec.Protocol,
		Param:      q.Spec.Param,
		InputState: e.Input,
		Sizes:      p.Sizes,
		Trials:     p.Trials,
		Seed:       p.Seed,
		MaxSteps:   p.MaxSteps,
		Patience:   p.Patience,
	}
	// The spec's scheduler fields follow ppsweep's omit-the-default
	// convention so daemon and CLI sweeps of one workload share
	// artifact bytes.
	if p.Scheduler != "weighted" {
		sw.Scheduler = p.Scheduler
		sw.Batch = p.Batch
		sw.Epsilon = p.Eps
	}
	rule := sim.StopRule{TargetRelCI: p.CITarget, MinTrials: p.MinTrials}
	if !rule.Enabled() {
		rule = sim.StopRule{}
	}
	return sw, rule, nil
}
