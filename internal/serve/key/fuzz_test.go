package key

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzKeyOf feeds arbitrary JSON to the query decoder and the key
// derivation, whatever the protocol parameter: keying reads the
// registry's arithmetic shape and never builds a protocol. Of never
// panics; whatever it accepts keys stably: the
// normalized query, and its JSON round trip, key as the original did.
// The removed batched scheduler never keys.
func FuzzKeyOf(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "key.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		f.Add([]byte(e.Query))
	}
	f.Add([]byte(`{"kind":"simulate","spec":{"protocol":"flock","param":4},"simulate":{"x":2,"scheduler":"batched","batch":64}}`))
	f.Add([]byte(`{"kind":"sweep","spec":{"protocol":"flock","param":4},"sweep":{"sizes":[2],"scheduler":"auto","eps":0.3}}`))
	f.Add([]byte(`{"kind":"verify","spec":{"protocol":"flock","param":1048576},"verify":{}}`))
	f.Add([]byte(`{"kind":"sweep","spec":{"protocol":"example41","param":9223372036854775807},"sweep":{"sizes":[2]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Query
		if json.Unmarshal(data, &q) != nil {
			return
		}
		batched := (q.Simulate != nil && q.Simulate.Scheduler == "batched") ||
			(q.Sweep != nil && q.Sweep.Scheduler == "batched")
		k, err := Of(&q)
		if err != nil {
			return
		}
		if batched {
			t.Fatalf("scheduler batched keyed to %s", k)
		}
		if again, err := Of(&q); err != nil || again != k {
			t.Fatalf("normalized query keys to %s (%v), original to %s", again, err, k)
		}
		raw, err := json.Marshal(&q)
		if err != nil {
			t.Fatal(err)
		}
		var rq Query
		if err := json.Unmarshal(raw, &rq); err != nil {
			t.Fatalf("normalized query does not decode: %v\n%s", err, raw)
		}
		if rk, err := Of(&rq); err != nil || rk != k {
			t.Fatalf("round-tripped query keys to %s (%v), original to %s\n%s", rk, err, k, raw)
		}
	})
}
