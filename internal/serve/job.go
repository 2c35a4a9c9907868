package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/serve/key"
)

// Lifecycle phases timed per job; indices into Job.phases.
const (
	phaseAdmit = iota
	phasePlan
	phaseRun
	numPhases
)

var phaseNames = [numPhases]string{"admit", "plan", "run"}

// Job is one request's lifecycle record: its SM plus the side state
// the SM invariant guards. /v1/jobs/{id} serves a snapshot.
type Job struct {
	mu      sync.Mutex
	id      string
	kind    string
	sm      SM
	created time.Time

	key    key.Key
	hasKey bool
	// phases holds per-phase wall time once the phase finishes.
	phases [numPhases]time.Duration
	hit    bool
	served int // bytes of the result document served once cached
	errMsg string
}

// invariant is the per-transition side-condition check wired into the
// job's SM: a planned or running job must have derived its cache key,
// a cached job must have a result to serve, and a failed job must
// record why. A job keeps only what view reports: the result bytes
// belong to the response, not to the job table.
func (j *Job) invariant(s JobState) error {
	switch s {
	case StatePlanned, StateRunning:
		if !j.hasKey {
			return fmt.Errorf("job %s reached %s without a cache key", j.id, s)
		}
	case StateCached:
		if j.served == 0 {
			return fmt.Errorf("job %s cached without a result to serve", j.id)
		}
	case StateFailed:
		if j.errMsg == "" {
			return fmt.Errorf("job %s failed without a reason", j.id)
		}
	case StateTimedOut:
		if j.errMsg == "" {
			return fmt.Errorf("job %s timed out without recording what expired", j.id)
		}
	}
	return nil
}

// to drives the job's SM under its lock. An illegal transition is a
// programming error in the handler flow, surfaced loudly.
func (j *Job) to(s JobState) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sm.To(s)
}

// cached records a finished run — its duration, the size of the
// result it is about to serve and whether that came from the cache —
// and moves the job to StateCached.
func (j *Job) cached(run time.Duration, served int, hit bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.phases[phaseRun] = run
	j.served, j.hit = served, hit
	return j.sm.To(StateCached)
}

// JobView is the externally visible snapshot of one job.
type JobView struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Key     string `json:"key,omitempty"`
	Created string `json:"created"`
	// Cache reports where the result came from once terminal:
	// "hit" or "miss" for cached jobs, empty otherwise.
	Cache  string            `json:"cache,omitempty"`
	Error  string            `json:"error,omitempty"`
	Phases map[string]string `json:"phases,omitempty"`
}

// view snapshots the job under its lock.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.id,
		Kind:    j.kind,
		State:   j.sm.State().String(),
		Created: j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.hasKey {
		v.Key = j.key.String()
	}
	if j.sm.State() == StateCached {
		if j.hit {
			v.Cache = "hit"
		} else {
			v.Cache = "miss"
		}
	}
	v.Error = j.errMsg
	for i, d := range j.phases {
		if d > 0 {
			if v.Phases == nil {
				v.Phases = map[string]string{}
			}
			v.Phases[phaseNames[i]] = d.String()
		}
	}
	return v
}

// jobTable tracks recent jobs for /v1/jobs/{id}: a bounded
// insertion-ordered map — the daemon is long-lived, so completed job
// records beyond the window are evicted oldest-first rather than
// accumulated forever.
type jobTable struct {
	mu    sync.Mutex
	cap   int
	seq   int64
	byID  map[string]*Job
	order []string
}

func newJobTable(capacity int) *jobTable {
	if capacity <= 0 {
		capacity = 4096
	}
	return &jobTable{cap: capacity, byID: map[string]*Job{}}
}

// create registers a fresh job in the initial SM state.
func (t *jobTable) create(kind string, now time.Time) (*Job, error) {
	j := &Job{kind: kind, created: now}
	m, err := newSM(j.invariant)
	if err != nil {
		return nil, err
	}
	j.sm = m
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	j.id = fmt.Sprintf("j%08d", t.seq)
	t.byID[j.id] = j
	t.order = append(t.order, j.id)
	for len(t.order) > t.cap {
		delete(t.byID, t.order[0])
		t.order = t.order[1:]
	}
	return j, nil
}

func (t *jobTable) get(id string) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

// byState counts tracked jobs per lifecycle state for /metrics.
func (t *jobTable) byState() map[string]int {
	t.mu.Lock()
	jobs := make([]*Job, 0, len(t.byID))
	for _, j := range t.byID {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	out := map[string]int{}
	for _, j := range jobs {
		j.mu.Lock()
		out[j.sm.State().String()]++
		j.mu.Unlock()
	}
	return out
}
