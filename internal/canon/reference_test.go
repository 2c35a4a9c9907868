package canon

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// referenceCanonicalize is the original definition of the canonical
// form, kept only as the differential oracle for Canonicalize: decode
// with json.Number into a map, delete the dropped members, and
// re-marshal through encoding/json, which sorts map keys and escapes
// strings. Canonicalize must agree with it byte for byte on every
// input, and must fail exactly where it fails.
func referenceCanonicalize(doc []byte, drop ...string) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("canon: canonicalize unparseable document: %w", err)
	}
	for _, d := range drop {
		delete(m, d)
	}
	return json.Marshal(m)
}
