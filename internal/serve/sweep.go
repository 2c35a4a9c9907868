package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

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

// document is the sweep's terminal line (terminalLine).
func (nw *ndjsonWriter) document(result []byte) ([]byte, error) { return terminalLine(result) }

// send writes the terminal line. X-Cache is hit only when this
// request streamed no delta: a warm hit, or a follower of another
// request's flight.
func (nw *ndjsonWriter) send(_ string, _ key.Key, cache, _ string, doc []byte) {
	nw.cache = cache
	_ = nw.writeLine(doc)
}

// fail writes an error document while nothing is streamed yet. Once
// a line is out the response is committed, and the stream's missing
// terminal line is the only signal a failure can leave.
func (nw *ndjsonWriter) fail(status, retryAfter int, err error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if !nw.wrote {
		writeFailure(nw.w, status, retryAfter, err)
	}
}

// sweep runs one anytime sweep request through the lifecycle (run),
// answered as an NDJSON stream. When this request leads a cache-miss
// compute, every finished cell is streamed as a sealed delta line the
// moment it lands; a warm hit (or a follower collapsed into a leader's
// flight) skips straight to the terminal line. The terminal line is
// byte-identical to the stored artifact's result document, so a client
// folding deltas can cross-check against it and a replayed query gets
// exactly the bytes the stream promised.
func (s *Server) sweep(w http.ResponseWriter, r *http.Request, q *key.Query) {
	nw := &ndjsonWriter{w: w, cache: "miss"}
	s.run(r, q, nw, func(ctx context.Context) (json.RawMessage, error) {
		return s.computeSweep(ctx, q, func(ca *shard.CellArtifact) error {
			line, err := shard.SealCellLine(ca)
			if err != nil {
				return err
			}
			return nw.writeLine(line)
		})
	})
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
