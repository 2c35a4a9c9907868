package canon

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

type sealedDoc struct {
	A        int             `json:"a"`
	S        string          `json:"s"`
	Raw      json.RawMessage `json:"raw"`
	Checksum string          `json:"checksum,omitempty"`
}

// Seal writes the file and line layouts json.Marshal(Indent) would
// write with the checksum stamped, and both layouts carry one sum.
func TestSealLayouts(t *testing.T) {
	v := sealedDoc{A: 7, S: "<x>", Raw: json.RawMessage(`{"checksum": 1, "n": 9007199254740993}`)}
	file, err := Seal(&v, &v.Checksum, true)
	if err != nil {
		t.Fatal(err)
	}
	fileSum := v.Checksum
	want, _ := json.MarshalIndent(&v, "", "  ")
	if !bytes.Equal(file, append(want, '\n')) {
		t.Errorf("file layout:\n%s\nwant\n%s", file, want)
	}
	line, err := Seal(&v, &v.Checksum, false)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(&v); !bytes.Equal(line, want) {
		t.Errorf("line layout %s, want %s", line, want)
	}
	if v.Checksum != fileSum {
		t.Errorf("layouts carry different sums: %s, %s", fileSum, v.Checksum)
	}
	for _, doc := range [][]byte{file, line} {
		if err := Verify(doc); err != nil {
			t.Errorf("sealed document does not verify: %v\n%s", err, doc)
		}
	}
}

// verifyCases pin Verify's rules; the checksum of {"a":1} is
// crc32c:cff7d56a (TestChecksumGolden).
var verifyCases = []struct {
	doc string
	ok  bool
}{
	{`{"a":1,"checksum":"crc32c:cff7d56a"}`, true},
	{"{\n  \"checksum\": \"crc32c:cff7d56a\",\n  \"a\": 1\n}\n", true},
	{`{"a":1,"checksum":"crc32c:cff7d56a"} trailing bytes`, true},
	// Duplicates: the last member wins.
	{`{"checksum":"crc32c:00000000","a":1,"checksum":"crc32c:cff7d56a"}`, true},
	{`{"checksum":"crc32c:cff7d56a","a":1,"checksum":"crc32c:00000000"}`, false},
	// Escaped spellings of the right sum; the wrong case is not it.
	{`{"a":1,"checksum":"crc32c:\u0063ff7d56a"}`, true},
	{`{"a":1,"\u0063hecksum":"\u0063rc32c:cff7d56a"}`, true},
	{`{"a":1,"checksum":"crc32c:CFF7D56A"}`, false},
	{`{"a":1,"checksum":"crc32c:cff7d56a\u0000"}`, false},
	// Not a string.
	{`{"a":1,"checksum":null}`, false},
	{`{"a":1,"checksum":12345}`, false},
	{`{"a":1,"checksum":["crc32c:cff7d56a"]}`, false},
	{`{"a":1,"checksum":{"checksum":"crc32c:cff7d56a"}}`, false},
	// Unsealed: no member, a null document, a nested member only.
	{`{"a":1}`, false},
	{`null`, false},
	{`{"a":1,"x":{"checksum":"crc32c:cff7d56a"}}`, false},
	// Content changes, truncation and garbage.
	{`{"a":2,"checksum":"crc32c:cff7d56a"}`, false},
	{`{"a":1,"checksum":"crc32c:cff7d5`, false},
	{`{"a":1,"checksum":"crc32c:cff7d56a"`, false},
	{`{"a":1,"checksum":"crc32c:cff7d56a",}`, false},
	{``, false},
	{`[]`, false},
	{`"crc32c:cff7d56a"`, false},
}

// verifyAgrees checks Verify against the map-decode oracle on one
// input: both accept, or both reject for the same class of reason.
func verifyAgrees(t *testing.T, doc []byte) error {
	t.Helper()
	got, want := Verify(doc), referenceVerify(doc)
	if (got == nil) != (want == nil) || errors.Is(got, ErrUnsealed) != errors.Is(want, ErrUnsealed) {
		t.Fatalf("doc %q:\nVerify    %v\nreference %v", doc, got, want)
	}
	membersAgree(t, doc, got)
	return got
}

// membersAgree checks VerifyMembers on one input against Verify's
// verdict and the map-decode oracle: it fails exactly where Verify
// does, and otherwise reports every top-level member of the oracle's
// map, and only those, each last span re-canonicalizing to the
// oracle's value; the reported length is what json.Decoder consumes.
func membersAgree(t *testing.T, doc []byte, verdict error) {
	t.Helper()
	last := map[string][]byte{}
	n, err := VerifyMembers(doc, func(key, value []byte) { last[string(key)] = value })
	if (err == nil) != (verdict == nil) {
		t.Fatalf("doc %q: VerifyMembers %v, Verify %v", doc, err, verdict)
	}
	if err != nil {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("doc %q verifies but does not decode: %v", doc, err)
	}
	if int64(n) != dec.InputOffset() {
		t.Fatalf("doc %q: VerifyMembers read %d bytes, json.Decoder %d", doc, n, dec.InputOffset())
	}
	if len(last) != len(m) {
		t.Fatalf("doc %q: VerifyMembers reported %d distinct members, the oracle has %d", doc, len(last), len(m))
	}
	for k, v := range m {
		span, ok := last[k]
		if !ok {
			t.Fatalf("doc %q: member %q not reported", doc, k)
		}
		got, err := Canonicalize(append(append([]byte(`{"v":`), span...), '}'))
		if err != nil {
			t.Fatalf("doc %q: span %q of member %q does not canonicalize: %v", doc, span, k, err)
		}
		want, _ := json.Marshal(map[string]any{"v": v})
		if !bytes.Equal(got, want) {
			t.Fatalf("doc %q: member %q spans %q, canonical %s, the oracle's %s", doc, k, span, got, want)
		}
	}
}

func TestVerifyCases(t *testing.T) {
	for _, c := range verifyCases {
		if err := verifyAgrees(t, []byte(c.doc)); (err == nil) != c.ok {
			t.Errorf("Verify(%q) = %v, want ok=%v", c.doc, err, c.ok)
		}
	}
	if err := Verify([]byte(`{"a":1}`)); !errors.Is(err, ErrUnsealed) {
		t.Errorf("checksum-less document: %v, want ErrUnsealed", err)
	}
}

// FuzzVerify is the differential fuzz target for Verify: on any bytes
// it must accept exactly what the map-decode oracle accepts, and the
// member spans VerifyMembers reports must hold the oracle's members.
func FuzzVerify(f *testing.F) {
	for _, c := range verifyCases {
		f.Add([]byte(c.doc))
	}
	v := sealedDoc{A: 1, S: "é\u2028", Raw: json.RawMessage(`[1,{"checksum":2}]`)}
	for _, indent := range []bool{true, false} {
		doc, err := Seal(&v, &v.Checksum, indent)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add(doc[:len(doc)-3])
		f.Add(doc[:len(doc)/2])
	}
	for _, doc := range corpusDocuments(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		verifyAgrees(t, doc)
	})
}
