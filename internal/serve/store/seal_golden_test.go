package store

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/hostmeta"
	"repro/internal/serve/key"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The sealed bytes of a store artifact are pinned: artifacts already
// in a store must keep verifying, and a new seal of the same value
// must not change a byte. The result embeds a nested "checksum"
// member (which the seal must keep) and an integer past 2^53.
// -update rewrites the file, only for a declared format change.
func TestSealedGolden(t *testing.T) {
	k := key.Key{SHA: strings.Repeat("0123456789abcdef", 4)}
	a := &Artifact{Schema: ArtifactSchema, Key: k.String(), Kind: key.KindSimulate,
		Server:   hostmeta.Meta{Hostname: "golden", OS: "linux", Arch: "amd64", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		Instance: "golden-1",
		Result:   json.RawMessage(`{ "checksum": "nested", "n": 9007199254740993, "s": "<a&b>" }`)}
	got, err := canon.Seal(a, &a.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sealed", "artifact.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sealed bytes drifted from the golden:\n got %s\nwant %s", got, want)
	}
	back, reason := decode(want, k, nil)
	if back == nil {
		t.Fatalf("golden artifact does not verify: %s", reason)
	}
	// The result reads back as the file's own bytes of the member:
	// sealed (HTML-escaped) and indented one level deep.
	wantRes := "{\n    \"checksum\": \"nested\",\n    \"n\": 9007199254740993,\n    \"s\": \"\\u003ca\\u0026b\\u003e\"\n  }"
	if back.Key != a.Key || string(back.Result) != wantRes {
		t.Errorf("golden artifact decodes to key %s result %s, sealed key %s result %s", back.Key, back.Result, a.Key, wantRes)
	}
}
