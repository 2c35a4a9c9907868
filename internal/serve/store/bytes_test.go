package store

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/serve/key"
)

// htmlResult is a result a compute may hand over unescaped: the same
// JSON value has several byte spellings, and a store must not answer
// a miss in one and the later hits of its key in another.
const htmlResult = `{"s":"<a&b>"}`

// A miss answers with exactly the bytes every later hit of its key
// reads back from disk, in a healthy store and in a degraded one.
func TestMissAndHitResultBytesEqual(t *testing.T) {
	compute := func(context.Context) (json.RawMessage, error) { return json.RawMessage(htmlResult), nil }
	s := openTest(t, nil)
	k := testKey(t, 9)
	miss, hit, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, compute)
	if err != nil || hit {
		t.Fatalf("cold lookup: hit=%v err=%v", hit, err)
	}
	warm, hit, err := s.GetOrCompute(context.Background(), k, key.KindSimulate, compute)
	if err != nil || !hit {
		t.Fatalf("warm lookup: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(miss.Result, warm.Result) {
		t.Fatalf("miss answered %s, the hit of its key %s", miss.Result, warm.Result)
	}

	degraded := openTest(t, nil)
	degraded.health.degrade("test: compute-only")
	got, _, err := degraded.GetOrCompute(context.Background(), k, key.KindSimulate, compute)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Result, warm.Result) {
		t.Fatalf("degraded miss answered %s, a healthy store's hit %s", got.Result, warm.Result)
	}
}
