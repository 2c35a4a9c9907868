package canon

import (
	"bytes"
	"encoding/json"
	"errors"
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

// referenceVerify is the original map-decode sealed-document check,
// kept only as the differential oracle for Verify: decode the whole
// document into a map, read its "checksum" member, and compare it
// with the checksum of the reference canonical form. A document
// without the member is unsealed; every other failure is corruption.
func referenceVerify(doc []byte) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("unparseable JSON: %w", err)
	}
	raw, ok := m["checksum"]
	if !ok {
		return ErrUnsealed
	}
	want, ok := raw.(string)
	if !ok {
		return errors.New("non-string checksum field")
	}
	canonical, err := referenceCanonicalize(doc, "checksum")
	if err != nil {
		return err
	}
	if got := FormatChecksum(CRC32C(canonical)); got != want {
		return fmt.Errorf("checksum %s, content is %s", want, got)
	}
	return nil
}
