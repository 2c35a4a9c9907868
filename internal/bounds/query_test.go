package bounds

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// Every op's flags and its omitted members take the same defaults, the
// defaults pass the domain rule, and Eval fills the result field the
// op's shape names.
func TestDefaultsAgreeAndEvaluate(t *testing.T) {
	for op := range params {
		fromMembers := Query{Op: op}
		if err := fromMembers.Normalize(); err != nil {
			t.Fatalf("%s: Normalize() = %v", op, err)
		}
		fromFlags := Query{Op: op}
		fs := flag.NewFlagSet(op, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if !fromFlags.Flags(fs) {
			t.Fatalf("%s: Flags reports an unknown op", op)
		}
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
		if fromFlags != fromMembers {
			t.Errorf("%s: flag defaults %+v, member defaults %+v", op, fromFlags, fromMembers)
		}
		res, err := fromMembers.Eval()
		if err != nil {
			t.Fatalf("%s at its defaults: %v", op, err)
		}
		switch op {
		case "thm43", "cor44":
			if len(res.Rows) == 0 || res.Value != 0 || res.Cascade != nil {
				t.Errorf("%s: %+v, want rows only", op, res)
			}
		case "section8":
			if len(res.Cascade) != 6 || res.Rows != nil {
				t.Errorf("%s: %+v, want a six-stage cascade only", op, res)
			}
		default:
			if res.Value == 0 || res.Rows != nil || res.Cascade != nil {
				t.Errorf("%s: %+v, want a value only", op, res)
			}
		}
	}
}

// Normalize names the first member set for another op, and an unknown
// op.
func TestDefaultsStrayAndUnknown(t *testing.T) {
	q := Query{Op: "rackoff", KMax: 3, H: 0.3}
	if err := q.Normalize(); err == nil || !strings.Contains(err.Error(), `does not take "h"`) {
		t.Errorf("rackoff with h and kmax: Normalize() = %v, want it to name h", err)
	}
	q = Query{Op: "nope"}
	if err := q.Normalize(); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op: Normalize() = %v", err)
	}
	if _, err := q.Eval(); err == nil {
		t.Error("unknown op evaluated")
	}
}
