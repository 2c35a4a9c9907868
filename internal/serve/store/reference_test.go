package store

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/canon"
	"repro/internal/serve/key"
)

// referenceDecode is the artifact read decode replaced, kept only as
// the differential oracle for it: canon.Verify, then json.Unmarshal of
// the whole document into an Artifact, then the schema and key checks,
// and json.Compact of the result. decode must accept exactly what it
// accepts, with the same fields, the result differing only in layout.
func referenceDecode(data []byte, k key.Key) (*Artifact, string) {
	if err := canon.Verify(data); err != nil {
		return nil, err.Error()
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Sprintf("not an artifact document: %v", err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Sprintf("artifact schema %d, this build understands %d", a.Schema, ArtifactSchema)
	}
	if a.Key != k.String() {
		return nil, fmt.Sprintf("sealed key %s under address %s (misfiled artifact)", a.Key, k)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, a.Result); err != nil {
		return nil, fmt.Sprintf("store: result is not valid JSON: %v", err)
	}
	a.Result = json.RawMessage(buf.Bytes())
	return &a, ""
}
