package canon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// agree checks Canonicalize and Checksum against the reference on one
// input: the same bytes, or an error from both.
func agree(t testing.TB, doc []byte, drop []string) {
	t.Helper()
	want, werr := referenceCanonicalize(doc, drop...)
	got, gerr := Canonicalize(doc, drop...)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("drop %q, doc %q:\nreference error %v\nsingle pass error %v", drop, doc, werr, gerr)
	}
	if werr != nil {
		if _, err := Checksum(doc, drop...); err == nil {
			t.Fatalf("drop %q, doc %q: Checksum accepted what Canonicalize rejects", drop, doc)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drop %q, doc %q:\nreference   %q\nsingle pass %q", drop, doc, want, got)
	}
	sum, err := Checksum(doc, drop...)
	if err != nil || sum != FormatChecksum(CRC32C(want)) {
		t.Fatalf("drop %q, doc %q: Checksum = %q, %v; want the CRC-32C of %q", drop, doc, sum, err, want)
	}
}

// handCases covers each semantic the single pass must share with the
// decode-into-a-map definition.
var handCases = []string{
	// json.Decoder reads one value: trailing bytes are ignored, a
	// top-level null is null, and any other non-object is an error.
	`{"a":1} trailing garbage`, `{"a":1}{`, `{"a":1}]`, `null`, ` null x`, `nullx`, "\t\r\n {}\n",
	``, `   `, `nul`, `n`, `[]`, `[{"a":1}]`, `1`, `-1`, `"s"`, `true`, `false`, "\xef\xbb\xbf{}",
	// Duplicate keys: the last one wins, also across spellings.
	`{"a":1,"a":2}`, `{"a":1,"b":0,"a":{"c":1}}`, `{"\u0061":1,"a":2}`, `{"a":2,"\u0061":1}`,
	`{"x":{"k":[1],"k":{"z":1,"y":2,"z":3}},"x":{"k":0}}`, `{"b":1,"a":1,"b":2,"a":2,"b":3}`,
	// Member order, including keys whose escaped spelling sorts
	// differently from their decoded bytes.
	`{"b":1,"a":2,"B":3,"":4,"aa":5,"a\u0000":6}`, `{"<":1,"=":2,";":3}`, `{"\u00e9":1,"z":2,"é":3,"e":4}`,
	`{"z":{"y":{"x":1,"w":2},"v":[{"u":1,"t":2}]},"s":null}`,
	// String escaping as json.Marshal does it: HTML-sensitive bytes,
	// U+2028/U+2029 raw or escaped, control escapes, solidus.
	`{"<>&":"<tag a='1'>&amp;</tag>"}`, `{"s":"\u003c\u003E\u0026"}`, "{\"s\":\"\u2028\u2029\",\"\u2028\":1}",
	`{"s":"\u2028\u2029"}`, `{"s":"\b\f\n\r\t\u0000\u001f\u007f\u0008\u000C"}`, `{"s":"\/\\\""}`,
	"{\"s\":\"\x7f\"}", `{"s":"\u00e9\u4e16\uFFFF\ufffd"}`,
	// Invalid UTF-8 and surrogates become U+FFFD; valid pairs decode.
	"{\"s\":\"\xff\"}", "{\"\xff\":1,\"\xfe\":2}", "{\"s\":\"a\xe2\x80\"}", "{\"s\":\"\xed\xa0\x80\"}",
	`{"s":"\ud800"}`, `{"s":"\udc00\ud800"}`, `{"s":"\ud83d\ude00"}`, `{"s":"\ud800\u0041"}`,
	`{"s":"\ud800\ud800\udc00"}`, `{"s":"\ud800x"}`, `{"\ud800":1,"\udfff":2}`,
	// Numbers are copied verbatim; malformed ones are errors.
	`{"n":9007199254740993,"m":18446744073709551615}`, `{"n":-0,"e":1e400,"f":1.5E-3,"g":0.0,"h":1E+2}`,
	`{"n":01}`, `{"n":1.}`, `{"n":-}`, `{"n":.5}`, `{"n":+1}`, `{"n":1e}`, `{"n":1e+}`, `{"n":--1}`, `{"n":0x1}`,
	// Literals, whitespace, empty containers.
	`{"t":true,"f":false,"n":null,"a":[],"o":{}}`, "{ \"a\" :\n[ 1 ,\t2 ] , \"b\" : { } }",
	// Malformed objects, arrays, strings.
	`{"a" 1}`, `{"a":1,}`, `{,}`, `{"a":[1,]}`, `{"a":tru}`, `{"a":truex}`, `{"a":nulll}`, `{a:1}`,
	"{\"a\":\"\x01\"}", `{"a":"\q"}`, `{"a":"\u12"}`, `{"a":"\u12g4"}`, `{"a":"unterminated`, `{"a":1`,
	`{"a":[1 2]}`, `{"a":1 "b":2}`, `{"a":1}}`, `{'a':1}`, `{"a":"\'"}`,
	// Dropped members: top level only, every duplicate, any value.
	`{"checksum":"crc32c:deadbeef","a":1}`, `{"a":1,"checksum":{"x":[1]},"checksum":2}`,
	`{"x":{"checksum":1},"checksum":3}`, `{"checksum":1}`, `{"checksum":1,"b":2,"a":1}`,
}

var dropSets = [][]string{nil, {"checksum"}, {"a", "b"}, {""}, {"\u00e9", "\ufffd"}, {"<"}}

func TestCanonicalizeMatchesReferenceOnHandCases(t *testing.T) {
	for _, doc := range handCases {
		for _, drop := range dropSets {
			agree(t, []byte(doc), drop)
		}
	}
}

// encoding/json rejects nesting beyond 10000 arrays and objects; the
// single pass must draw the line at the same depth.
func TestCanonicalizeNestingLimit(t *testing.T) {
	nest := func(depth int) []byte {
		inner := depth - 1 // the top-level object is one level
		return []byte(`{"a":` + strings.Repeat(`[{"b":`, inner/2) + strings.Repeat(`[`, inner%2) +
			`1` + strings.Repeat(`]`, inner%2) + strings.Repeat(`}]`, inner/2) + `}`)
	}
	for _, depth := range []int{9999, 10000, 10001} {
		doc := nest(depth)
		agree(t, doc, nil)
		if _, err := Canonicalize(doc); (err == nil) != (depth <= maxDepth) {
			t.Fatalf("depth %d: error %v", depth, err)
		}
	}
}

// corpusDocuments returns every committed JSON document of the repo:
// each .json file, each line of each .jsonl file, and every object or
// array nested inside them.
func corpusDocuments(t testing.TB) map[string][]byte {
	t.Helper()
	root := filepath.Join("..", "..")
	docs := map[string][]byte{}
	var nested func(name string, raw json.RawMessage)
	nested = func(name string, raw json.RawMessage) {
		docs[name] = raw
		var obj map[string]json.RawMessage
		var arr []json.RawMessage
		if json.Unmarshal(raw, &obj) == nil {
			for k, v := range obj {
				nested(name+"."+k, v)
			}
		} else if json.Unmarshal(raw, &arr) == nil {
			for i, v := range arr {
				nested(fmt.Sprintf("%s[%d]", name, i), v)
			}
		}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		switch filepath.Ext(path) {
		case ".json":
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			nested(rel, data)
		case ".jsonl":
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range bytes.Split(data, []byte("\n")) {
				if line = bytes.TrimSpace(line); len(line) > 0 && line[0] != '#' {
					nested(fmt.Sprintf("%s:%d", rel, i+1), line)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// Every committed golden and testdata document canonicalizes to the
// same bytes and checksum under both implementations, so no pinned
// checksum, golden file or cache key can move with the implementation.
func TestCorpusStability(t *testing.T) {
	docs := corpusDocuments(t)
	objects := 0
	for name, doc := range docs {
		for _, drop := range [][]string{nil, {"checksum"}} {
			want, werr := referenceCanonicalize(doc, drop...)
			got, gerr := Canonicalize(doc, drop...)
			if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
				t.Errorf("%s (drop %q):\nreference   %q, %v\nsingle pass %q, %v", name, drop, want, werr, got, gerr)
			}
			if werr == nil && drop == nil {
				objects++
			}
		}
	}
	// The goldens alone hold well over a hundred objects; a walk that
	// found far fewer has lost its way.
	if objects < 100 {
		t.Fatalf("corpus walk found %d objects in %d documents", objects, len(docs))
	}
	t.Logf("%d documents, %d objects", len(docs), objects)
}

// FuzzCanonicalize is the differential fuzz target: for any bytes and
// any drop set (the second argument, split on commas), the single pass
// must produce the reference's bytes or fail where it fails.
func FuzzCanonicalize(f *testing.F) {
	for _, doc := range handCases {
		f.Add([]byte(doc), "checksum")
		f.Add([]byte(doc), "a,")
	}
	for _, doc := range corpusDocuments(f) {
		f.Add(doc, "checksum")
	}
	f.Fuzz(func(t *testing.T, doc []byte, drops string) {
		var drop []string
		if drops != "" {
			drop = strings.Split(drops, ",")
		}
		agree(t, doc, drop)
	})
}

// BenchmarkChecksum prices one checksum over the committed corpus's
// objects, single pass against the reference definition.
func BenchmarkChecksum(b *testing.B) {
	var objects [][]byte
	size := 0
	for _, doc := range corpusDocuments(b) {
		if _, err := referenceCanonicalize(doc); err == nil {
			objects = append(objects, doc)
			size += len(doc)
		}
	}
	for _, impl := range []struct {
		name string
		sum  func([]byte) error
	}{
		{"single-pass", func(doc []byte) error { _, err := Checksum(doc, "checksum"); return err }},
		{"reference", func(doc []byte) error { _, err := referenceCanonicalize(doc, "checksum"); return err }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, doc := range objects {
					if err := impl.sum(doc); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
