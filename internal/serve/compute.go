package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/registry"
	"repro/internal/serve/key"
)

// compute evaluates one normalized query to its result document — the
// json.RawMessage sealed into the store artifact. It runs only on a
// cache miss, inside the store's singleflight, with the daemon's
// worker budget; everything request-dependent is already pinned in
// the query (and hence in the cache key), so the same query computes
// the same document on any host. Each kind's evaluation is its query's
// Eval, the one ppsim, ppverify and ppbounds print.
func (s *Server) compute(ctx context.Context, q *key.Query) (json.RawMessage, error) {
	if q.Kind == key.KindBounds {
		return marshal(q.Bounds.Eval())
	}
	e, err := registry.Lookup(q.Spec.Protocol)
	if err != nil {
		return nil, err
	}
	p, n, err := registry.Make(q.Spec.Protocol, q.Spec.Param)
	if err != nil {
		return nil, err
	}
	switch q.Kind {
	case key.KindSimulate:
		return marshal(q.Simulate.Eval(ctx, p, e.Input, n, s.workers))
	case key.KindVerify:
		return marshal(q.Verify.Eval(ctx, p, e.Input, n, s.workers))
	default:
		return nil, fmt.Errorf("serve: no compute for kind %q", q.Kind)
	}
}

// marshal encodes an evaluation's result document.
func marshal[T any](res *T, err error) (json.RawMessage, error) {
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
