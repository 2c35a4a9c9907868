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

// FuzzStoreDecode holds the store's artifact read to the decoder it
// replaced (referenceDecode): on any bytes decode accepts exactly what
// the oracle accepts, with equal fields and the same result value in
// the sealed layout, and an accepted artifact seals back to a document
// that decodes to the same artifact. Random bytes almost never carry a
// valid checksum, so each input is also tried re-sealed (a checksum
// member of its own content appended), which lets the fuzzer reach
// the member decoding itself. The key is taken from the document's own
// key member, so misfiled-artifact rejection does not hide the rest.
func FuzzStoreDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/sealed/artifact.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(append(bytes.TrimSpace(golden), " x"...))
	f.Add(bytes.Replace(golden, []byte(`"checksum": "crc32c:`), []byte(`"checksum": "crc32c:0`), 1))
	a := &Artifact{Schema: ArtifactSchema, Key: "sha256:" + strings.Repeat("ab", 32), Kind: key.KindBounds,
		Instance: "fuzz", Result: json.RawMessage(`[1,"< >",{"checksum":null}]`)}
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
	k := `"sha256:` + strings.Repeat("ab", 32) + `"`
	for _, doc := range []string{
		`{"schema":1,"KEY":` + k + `,"Result":{"a":1},"Kind":"x"}`,
		`{"schema":1,"key":` + k + `,"result":1,"result":null}`,
		`{"schema":1,"key":` + k + `,"result":1,"server":{"os":"a"},"server":{"arch":"b"},"server":null}`,
		`{"schema":1,"key":` + k + `,"result":1,"server":{"num_cpu":"2"}}`,
		`{"schema":1,"key":` + k + `,"result":1,"instance":7}`,
		`{"schema":1,"key":` + k + `,"result":1,"k\u0130nd":"x","\u212aey":` + k + `}`,
		`{"schema":1.0,"key":` + k + `,"result":1}`,
		`{"schema":1,"key":` + k + `,"key":null,"instance":"a\u00e9\ud800"}`,
		`{"schema":1,"key":` + k + `,"result":1,"Checksum":5}`,
		`{"schema":1,"key":` + k + `}`,
		// A raw & or < in the result: sealing writes it escaped, which
		// changes the bytes but not the value.
		`{"schema":1,"key":` + k + `,"result":"a & b"}`,
		`{"schema":1,"key":` + k + `,"result":{"<":["x<y"]}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAgrees(t, data)
		if doc := resealed(data); doc != nil {
			decodeAgrees(t, doc)
		}
	})
}

// resealed appends to a JSON object the checksum member of its own
// content, or returns nil when data does not end like an object.
func resealed(data []byte) []byte {
	body := bytes.TrimRight(data, " \t\r\n")
	if len(body) == 0 || body[len(body)-1] != '}' {
		return nil
	}
	sum, err := canon.Checksum(data, "checksum")
	if err != nil {
		return nil
	}
	body = body[:len(body)-1]
	doc := append([]byte(nil), body...)
	if t := bytes.TrimRight(body, " \t\r\n"); len(t) > 0 && t[len(t)-1] != '{' {
		doc = append(doc, ',')
	}
	return append(doc, `"checksum":"`+sum+`"}`...)
}

// fuzzServers carries decode's server memo from input to input, so
// the fuzzer also reads documents through a warm memo.
var fuzzServers serverMemo

func decodeAgrees(t *testing.T, data []byte) {
	var probe struct{ Key string }
	_ = json.Unmarshal(data, &probe)
	k := key.Key{SHA: strings.TrimPrefix(probe.Key, "sha256:")}
	art, reason := decode(data, k, &fuzzServers)
	want, wantReason := referenceDecode(data, k)
	if (art == nil) != (want == nil) {
		t.Fatalf("doc %q:\ndecode    %+v (%s)\nreference %+v (%s)", data, art, reason, want, wantReason)
	}
	if art == nil {
		return
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, art.Result); err != nil || !bytes.Equal(compact.Bytes(), want.Result) {
		t.Fatalf("doc %q: result %q (compact %q, %v), reference %q", data, art.Result, compact.Bytes(), err, want.Result)
	}
	got := *art
	got.Result, want.Result = nil, nil
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("doc %q:\ndecode    %+v\nreference %+v", data, got, *want)
	}
	sealed, err := canon.Seal(art, &art.Checksum, true)
	if err != nil {
		t.Fatalf("accepted artifact does not re-seal: %v", err)
	}
	back, reason := decode(sealed, k, nil)
	if back == nil {
		t.Fatalf("re-sealed artifact rejected: %s\n%s", reason, sealed)
	}
	// Sealing lays the result out afresh (json.Marshal escapes a raw
	// &, < or > in it) and stamps the sum of what it wrote; the
	// result's value, compared in canonical form, and every other
	// field stay.
	again, was := canonicalValue(t, back.Result), canonicalValue(t, compact.Bytes())
	back.Result, back.Checksum, got.Checksum = nil, "", ""
	if !bytes.Equal(again, was) || !reflect.DeepEqual(back, &got) {
		t.Fatalf("re-seal changed the artifact: %+v %s, was %+v %s", back, again, got, was)
	}
}

// canonicalValue is the canonical form of one JSON value, wrapped in
// an object since canon takes objects only.
func canonicalValue(t *testing.T, v []byte) []byte {
	c, err := canon.Canonicalize([]byte(`{"v":` + string(v) + `}`))
	if err != nil {
		t.Fatalf("result %s does not canonicalize: %v", v, err)
	}
	return c
}
