package hostmeta

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestCollect(t *testing.T) {
	m := Collect()
	if m.OS != runtime.GOOS || m.Arch != runtime.GOARCH {
		t.Errorf("os/arch = %s/%s, want %s/%s", m.OS, m.Arch, runtime.GOOS, runtime.GOARCH)
	}
	if m.NumCPU < 1 || m.GOMAXPROCS < 1 {
		t.Errorf("cpu counts: %+v", m)
	}
	if m.GoVersion == "" {
		t.Error("missing Go version")
	}
}

// The JSON field names are part of the artifact schemas: a rename here
// silently breaks artifact mergers reading files from older hosts.
func TestJSONFieldNames(t *testing.T) {
	data, err := json.Marshal(Meta{Hostname: "h", Commit: "c"})
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"hostname", "os", "arch", "num_cpu", "gomaxprocs", "go_version", "commit"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("missing field %q in %s", key, data)
		}
	}
}

// CollectProcess stamps a stable, plausible start time: the same for
// every call in one process (it identifies the incarnation, not the
// call), recent, and UTC.
func TestCollectProcessStartedAt(t *testing.T) {
	a, b := CollectProcess(), CollectProcess()
	if a.StartedAt.IsZero() {
		t.Fatal("zero StartedAt")
	}
	if !a.StartedAt.Equal(b.StartedAt) {
		t.Errorf("StartedAt differs between calls: %v vs %v", a.StartedAt, b.StartedAt)
	}
	if d := time.Since(a.StartedAt); d < 0 || d > time.Hour {
		t.Errorf("StartedAt %v away from now", d)
	}
	if a.PID != os.Getpid() {
		t.Errorf("PID = %d, want %d", a.PID, os.Getpid())
	}
}

// Commit is read once per process: later calls return the first
// answer even when git has since become unreachable, and so never
// spawn it again.
func TestCommitMemoized(t *testing.T) {
	first := Commit()
	t.Setenv("PATH", "")
	for i := 0; i < 3; i++ {
		if got := Commit(); got != first {
			t.Fatalf("call %d: Commit() = %q, first call gave %q", i+2, got, first)
		}
	}
	if got := Collect().Commit; got != first {
		t.Fatalf("Collect().Commit = %q, Commit() = %q", got, first)
	}
}
