package store

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/serve/key"
)

// FuzzStoreDecode fuzzes the store's artifact read: decode never
// panics, and every artifact it accepts seals back to a document that
// decodes to the same value. The key is taken from the document's own
// "key" member, so misfiled-artifact rejection does not hide the rest.
func FuzzStoreDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/sealed/artifact.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(bytes.Replace(golden, []byte(`"checksum": "crc32c:`), []byte(`"checksum": "crc32c:0`), 1))
	a := &Artifact{Schema: ArtifactSchema, Key: "sha256:" + strings.Repeat("ab", 32), Kind: key.KindBounds,
		Instance: "fuzz", Result: json.RawMessage(`[1,"< >",{"checksum":null}]`)}
	for _, indent := range []bool{true, false} {
		doc, err := canon.Seal(a, &a.Checksum, indent)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	a.Checksum = ""
	unsealed, _ := json.Marshal(a)
	f.Add(unsealed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe struct{ Key string }
		_ = json.Unmarshal(data, &probe)
		k := key.Key{SHA: strings.TrimPrefix(probe.Key, "sha256:")}
		art, _ := decode(data, k)
		if art == nil {
			return
		}
		sealed, err := canon.Seal(art, &art.Checksum, true)
		if err != nil {
			t.Fatalf("accepted artifact does not re-seal: %v", err)
		}
		back, reason := decode(sealed, k)
		if back == nil {
			t.Fatalf("re-sealed artifact rejected: %s\n%s", reason, sealed)
		}
		if !sameResult(t, back.Result, art.Result) {
			t.Fatalf("re-seal changed the result: %s, was %s", back.Result, art.Result)
		}
		back.Result, art.Result = nil, nil
		if !reflect.DeepEqual(back, art) {
			t.Fatalf("re-seal changed the artifact: %+v, was %+v", back, art)
		}
	})
}

// sameResult reports whether two result documents hold the same value.
// Sealing HTML-escapes the raw result, so their bytes may differ.
func sameResult(t *testing.T, a, b json.RawMessage) bool {
	var va, vb any
	for _, r := range []struct {
		raw json.RawMessage
		v   *any
	}{{a, &va}, {b, &vb}} {
		dec := json.NewDecoder(bytes.NewReader(r.raw))
		dec.UseNumber()
		if err := dec.Decode(r.v); err != nil {
			t.Fatalf("result %s does not decode: %v", r.raw, err)
		}
	}
	return reflect.DeepEqual(va, vb)
}
