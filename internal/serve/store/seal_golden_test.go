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
	if err := a.compactResult(); err != nil {
		t.Fatal(err)
	}
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
	back, reason := decode(want, k)
	if back == nil {
		t.Fatalf("golden artifact does not verify: %s", reason)
	}
	// Sealing HTML-escapes the raw result, so compare canonical forms.
	gotRes, err := canon.Canonicalize(back.Result)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, _ := canon.Canonicalize(a.Result)
	if back.Key != a.Key || !bytes.Equal(gotRes, wantRes) {
		t.Errorf("golden artifact decodes to key %s result %s, sealed key %s result %s", back.Key, gotRes, a.Key, wantRes)
	}
}
