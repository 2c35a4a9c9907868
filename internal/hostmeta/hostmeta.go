// Package hostmeta collects the host/commit metadata stamped into
// result artifacts — ppbench timing files and ppsweep shard artifacts —
// so results gathered from different machines (CI runners, sharded
// sweep hosts) stay attributable and comparable.
package hostmeta

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// Meta identifies the producing host and build. The JSON field names
// are part of the artifact schemas that embed it.
type Meta struct {
	Hostname   string `json:"hostname,omitempty"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
}

// Collect gathers the current host's metadata.
func Collect() Meta {
	m := Meta{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if h, err := os.Hostname(); err == nil {
		m.Hostname = h
	}
	m.Commit = Commit()
	return m
}

// Process extends Meta with the identity of one running worker
// process — the granularity at which shard-dispatch leases are owned
// and heartbeats are stamped. Two workers on one host differ in PID;
// successive incarnations of a crashed worker usually do too, but
// lease protocols must not rely on PID uniqueness across reboots —
// pair it with a per-acquisition token.
type Process struct {
	Meta
	PID int `json:"pid"`
	// StartedAt is the process's start stamp (its own wall clock, UTC):
	// it disambiguates PID reuse across reboots for operators reading
	// lease files. Like every cross-host wall-clock stamp it is
	// telemetry, not protocol state — liveness decisions use the
	// lease's monotonic heartbeat sequence instead.
	StartedAt time.Time `json:"started_at"`
}

var processStart = time.Now().UTC()

// CollectProcess gathers the current process's identity.
func CollectProcess() Process {
	return Process{Meta: Collect(), PID: os.Getpid(), StartedAt: processStart}
}

// Instance renders the process identity as one "host/pid/startstamp"
// token — the serving-instance tag ppserve stamps into store
// artifacts and /metrics, so a cached result names the daemon
// incarnation that computed it. Like StartedAt it is telemetry:
// correctness never depends on its uniqueness.
func (p Process) Instance() string {
	host := p.Hostname
	if host == "" {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s/%d/%s", host, p.PID, p.StartedAt.Format(time.RFC3339))
}

// Commit best-efforts the VCS revision: the build info stamp when the
// binary was built with VCS stamping, otherwise a direct git query
// (the `go run` path); empty when neither is available. A "-dirty"
// suffix marks uncommitted changes. The answer is computed once per
// process, so an unstamped build spawns git at most once however many
// shard runs and sweep computes stamp their artifacts.
func Commit() string { return commitOnce() }

var commitOnce = sync.OnceValue(readCommit)

func readCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}
