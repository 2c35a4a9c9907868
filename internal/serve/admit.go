package serve

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/registry"
	"repro/internal/serve/key"
	"repro/internal/shard"
)

// admitter is ppserve's admission control: a token bucket sized in
// shard cost-model units. Each request estimates its cost before any
// work runs and must acquire that many tokens; requests over capacity
// are rejected outright (they could never run), requests over the
// currently available balance wait their turn or give up with their
// context. Tokens are returned when the request reaches a terminal
// state, so a burst of expensive queries queues instead of stampeding
// the samplers.
type admitter struct {
	capacity int64

	mu    sync.Mutex
	cond  *sync.Cond
	avail int64
	// rejected counts requests refused outright (cost > capacity).
	rejected int64
}

func newAdmitter(capacity int64) *admitter {
	if capacity <= 0 {
		capacity = defaultAdmitCapacity
	}
	a := &admitter{capacity: capacity, avail: capacity}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// defaultAdmitCapacity is roughly one maximal verify query (budget
// 1<<20 configurations) plus headroom for cheap traffic alongside it.
const defaultAdmitCapacity = 3 << 19

// acquire blocks until n tokens are available or ctx is done. A
// request costing more than the whole bucket is rejected immediately:
// it would starve forever otherwise.
func (a *admitter) acquire(ctx context.Context, n int64) error {
	if n <= 0 {
		n = 1
	}
	if n > a.capacity {
		a.mu.Lock()
		a.rejected++
		a.mu.Unlock()
		return fmt.Errorf("serve: query cost %d exceeds admission capacity %d; shrink trials, budget, or population", n, a.capacity)
	}
	// Tokens on hand are taken without arming the cancellation wake-up
	// below, whose registration allocates on every request.
	a.mu.Lock()
	if a.avail >= n {
		a.avail -= n
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	// Waiters park on the cond; context cancellation has to wake them.
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.cond.Broadcast()
	})
	defer stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.avail < n {
		if ctx.Err() != nil {
			return fmt.Errorf("serve: admission wait: %w", ctx.Err())
		}
		a.cond.Wait()
	}
	a.avail -= n
	return nil
}

// release returns n tokens and wakes waiters.
func (a *admitter) release(n int64) {
	if n <= 0 {
		n = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.avail += n
	if a.avail > a.capacity {
		a.avail = a.capacity
	}
	a.cond.Broadcast()
}

// snapshot returns (capacity, available, rejected) for /metrics.
func (a *admitter) snapshot() (int64, int64, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capacity, a.avail, a.rejected
}

// maxProtocolCells caps the protocol a query may name, in
// registry.Shape.Cells units (transitions × (states + 8), which Make's
// allocation follows at 30–60 bytes a cell): 2^21 cells bound one
// construction to roughly 120 MB and 0.15 s, the order of one maximal
// verify closure (DESIGN.md, admission policy).
const maxProtocolCells = 1 << 21

// checkProtocolSize prices the protocol a normalized query names from
// the registry's arithmetic shape, without building it, and refuses
// one over maxProtocolCells. Bounds queries name none.
func checkProtocolSize(q *key.Query) error {
	if q.Kind == key.KindBounds {
		return nil
	}
	sh, err := registry.ShapeOf(q.Spec.Protocol, q.Spec.Param)
	if err != nil {
		return err
	}
	if c := sh.Cells(); c > maxProtocolCells {
		return fmt.Errorf("serve: %s(%d) has %d states and %d transitions (%d cells), over the daemon's cap of %d cells",
			q.Spec.Protocol, q.Spec.Param, sh.States, sh.Transitions, c, maxProtocolCells)
	}
	return nil
}

// queryCost estimates a normalized query's token cost in shard
// cost-model units. Bounds queries are closed-form arithmetic: one
// token. Verify is bounded by its configuration budget. Simulation
// and sweeps reuse the shard dispatcher's per-scheduler cost model
// over each population size, times trials. Every estimate saturates at
// math.MaxInt64, so a query too large to price is over capacity.
func queryCost(q *key.Query) int64 {
	switch q.Kind {
	case key.KindBounds:
		return 1
	case key.KindVerify:
		return int64(q.Verify.Budget)
	case key.KindSimulate:
		p := q.Simulate
		n := p.X + p.Y
		if n < p.X { // X, Y ≥ 0 after normalization: the sum wrapped
			n = math.MaxInt64
		}
		return trialsCost(p.Scheduler, []int64{n}, p.Trials)
	case key.KindSweep:
		return trialsCost(q.Sweep.Scheduler, q.Sweep.Sizes, q.Sweep.Trials)
	default:
		return 1
	}
}

// trialsCost prices trials runs at each population size under the
// scheduler's cost model, saturating at math.MaxInt64.
func trialsCost(scheduler string, sizes []int64, trials int) int64 {
	model := shard.DefaultCost(scheduler)
	total := int64(0)
	for _, x := range sizes {
		per := max(model.TrialCost(x), 1)
		if trials > 0 && per > math.MaxInt64/int64(trials) {
			return math.MaxInt64
		}
		c := per * int64(trials)
		if total > math.MaxInt64-c {
			return math.MaxInt64
		}
		total += c
	}
	return total
}
