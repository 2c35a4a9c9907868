package serve

import "fmt"

// The request lifecycle state machine. Every query a ppserve daemon
// accepts walks this SM; each transition is checked against the
// allowed-transition table below and against the job's invariant, so
// an impossible lifecycle (a result without a compute, a failure
// without a reason) is a programming error caught at the transition,
// not a corrupt row discovered later. The conformance test walks
// every legal path and rejects every illegal edge.
//
//	StateAdmitted ------------+-------------------+
//	|                         |                   |
//	| key derived,            |                   |
//	| store consulted         |                   |
//	V                         |                   |
//	StatePlanned ---------+   |                   |
//	|            \        |   |                   +--> StateTimedOut
//	| cache miss: \ cache |   |                   |    (deadline hit
//	| compute      \ hit  |   |                   |    at any stage)
//	V               \     |   |                   |
//	StateRunning     \    |   | admission rejected|
//	|           \     \   |   | / malformed plan  |
//	| computed   \     \  |   |                   |
//	V             \     V V   V                   |
//	StateCached    +--> StateFailed     Planned --+-- Running
type JobState int

const (
	// StateAdmitted: the request entered the daemon (its record
	// exists); it may still be waiting for admission tokens.
	StateAdmitted JobState = iota
	// StatePlanned: the request holds its cost tokens, the query was
	// canonicalized and keyed, and the result store was consulted.
	StatePlanned
	// StateRunning: a cache miss is being computed (this job leads the
	// singleflight, or shares a leader's flight).
	StateRunning
	// StateCached: terminal — the result is in the store and was
	// served (whether this job computed it or found it).
	StateCached
	// StateFailed: terminal — admission, planning, or compute failed;
	// the job records why.
	StateFailed
	// StateTimedOut: terminal — the request's compute deadline expired
	// (or its client disconnected) before a result was served; the job
	// records which. Distinct from StateFailed because the query was
	// fine: the same request re-posted later may hit warm.
	StateTimedOut

	numJobStates
)

const (
	smInitial uint8 = 1 << iota
	smFinal
)

func bitsOf(states ...JobState) uint32 {
	var b uint32
	for _, s := range states {
		b |= 1 << uint(s)
	}
	return b
}

// smConf configures one state: display name, role flags, and the
// bitmask of states it may transition to.
type smConf struct {
	name    string
	flags   uint8
	allowed uint32
}

// jobSMConf is the allowed-transition table — the single source of
// truth for the lifecycle; the diagram above and the conformance test
// both derive from it.
var jobSMConf = [numJobStates]smConf{
	StateAdmitted: {
		name:    "admitted",
		flags:   smInitial,
		allowed: bitsOf(StatePlanned, StateFailed, StateTimedOut),
	},
	StatePlanned: {
		name:    "planned",
		allowed: bitsOf(StateRunning, StateCached, StateFailed, StateTimedOut),
	},
	StateRunning: {
		name:    "running",
		allowed: bitsOf(StateCached, StateFailed, StateTimedOut),
	},
	StateCached:   {name: "cached", flags: smFinal},
	StateFailed:   {name: "failed", flags: smFinal},
	StateTimedOut: {name: "timed_out", flags: smFinal},
}

func (s JobState) String() string {
	if s < 0 || s >= numJobStates {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return jobSMConf[s].name
}

// SM is one lifecycle instance: the current state plus an optional
// invariant checked after the table allows a transition. The
// invariant sees the destination state and rejects transitions whose
// side conditions do not hold (a Cached job must have served a result, a
// Failed job a reason) — the dqlite sm_move/sm_check idiom.
type SM struct {
	state     JobState
	invariant func(JobState) error
}

// newSM starts a lifecycle in the initial state; the invariant (nil =
// none) is checked for it too, so an SM cannot even begin in an
// inconsistent shape.
func newSM(invariant func(JobState) error) (SM, error) {
	m := SM{state: StateAdmitted, invariant: invariant}
	if err := m.check(StateAdmitted); err != nil {
		return SM{}, err
	}
	return m, nil
}

func (m *SM) check(s JobState) error {
	if m.invariant == nil {
		return nil
	}
	if err := m.invariant(s); err != nil {
		return fmt.Errorf("serve: invariant violated entering %s: %w", s, err)
	}
	return nil
}

// State returns the current state.
func (m *SM) State() JobState { return m.state }

// To transitions to next, failing loudly if the allowed-transition
// table forbids the edge or the invariant rejects the destination.
// A failed transition leaves the state unchanged.
func (m *SM) To(next JobState) error {
	if next < 0 || next >= numJobStates {
		return fmt.Errorf("serve: transition %s -> state(%d): no such state", m.state, int(next))
	}
	if jobSMConf[m.state].allowed&(1<<uint(next)) == 0 {
		return fmt.Errorf("serve: illegal transition %s -> %s", m.state, next)
	}
	if err := m.check(next); err != nil {
		return err
	}
	m.state = next
	return nil
}
