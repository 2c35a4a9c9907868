package sim

// Auto is the hybrid exact↔batch scheduler: count-based batching
// (CountBatched's Cao–Gillespie tau selection and aggregate applies)
// while batching pays, exact per-interaction stepping while it does
// not — with the switch decided per run phase from realized batch
// sizes and rejection rates instead of re-probing the O(|T|) tau
// selection every MinBatch interactions.
//
// CountBatched's static policy probes the tau selection again after
// every MinBatch exact steps. In collapse phases — endgames where some
// constrained count sits near zero for a long stretch — every one of
// those probes fails, so the run pays O(|T|) per MinBatch interactions
// for nothing. Auto instead enters an exact phase whose length backs
// off exponentially (autoMinExact up to autoMaxExact) while probes
// keep failing, and resets to the shortest phase the moment a batch
// lands, so expansion phases re-engage batching within one phase.
//
// The stepping itself is CountBatched's — same tau selection, same
// span-parallel multinomial draw, same negativity rejection — so runs
// remain deterministic in the seed for any worker count, and the
// convergence bookkeeping coarsens to batch (or exact-phase)
// granularity exactly as documented there.
type Auto struct {
	// Epsilon is CountBatched's relative per-batch drift tolerance; 0
	// means DefaultEpsilon. Must lie in (0, 1).
	Epsilon float64
	// MinBatch is the smallest batch worth aggregating (the probe
	// threshold); 0 means DefaultMinBatch.
	MinBatch int
	// Workers bounds the span-parallel multinomial draw; 0 means
	// auto-detect (GOMAXPROCS). See CountBatched.Workers.
	Workers int
}

// autoMinExact is the exact-phase length entered after the first
// failed batch probe (and re-entered after any successful batch).
const autoMinExact = 64

// autoMaxExact caps the exponential phase backoff: even a run stuck
// near a boundary re-probes the tau selection at least once every
// autoMaxExact interactions, so a late expansion phase is never missed
// by more than that.
const autoMaxExact = 4096

// Name implements Scheduler.
func (Auto) Name() string { return "auto" }

// Attach implements Scheduler. Every protocol shape is supported;
// parameter validation is CountBatched's.
func (a Auto) Attach(st *State) (Stepper, error) {
	cs, err := CountBatched{Epsilon: a.Epsilon, MinBatch: a.MinBatch, Workers: a.Workers}.Attach(st)
	if err != nil {
		return nil, err
	}
	return &autoStepper{cs: cs.(*countStepper), phase: autoMinExact}, nil
}

type autoStepper struct {
	cs        *countStepper
	run       uint64 // the State.runs value the phase state belongs to
	exactLeft int    // remaining interactions of the current exact phase
	phase     int    // next exact-phase length (doubles on failed probes)
}

func (s *autoStepper) Step(rng *RNG, limit int) (int, bool) {
	st := s.cs.st
	if s.run != st.runs {
		// A new run on a reused state starts from the first phase, so a
		// trial's trajectory depends on its seed alone, never on the
		// trial the same worker ran before it.
		s.run, s.exactLeft, s.phase = st.runs, 0, autoMinExact
	}
	if !st.ensureLive() {
		return 0, false
	}
	if s.exactLeft > 0 {
		return s.runExact(rng, limit)
	}
	b := s.cs.selectBatch()
	if b > int64(limit) {
		b = int64(limit)
	}
	for attempt := 0; b >= int64(s.cs.min) && attempt < maxRejects; attempt++ {
		s.cs.drawFires(rng, b)
		if st.ApplyAggregate(s.cs.fires, s.cs.disp) {
			// Batching pays in this phase: keep the next demotion short.
			s.phase = autoMinExact
			return int(b), true
		}
		b /= 2
	}
	// The probe collapsed (or every retry was rejected): demote to an
	// exact phase and lengthen the next one, so repeated failures cost
	// O(|T|) at most once per autoMaxExact interactions.
	s.exactLeft = s.phase
	if s.phase < autoMaxExact {
		s.phase *= 2
	}
	return s.runExact(rng, limit)
}

func (s *autoStepper) runExact(rng *RNG, limit int) (int, bool) {
	k := s.exactLeft
	if k > limit {
		k = limit
	}
	fired, ok := s.cs.exactN(rng, k)
	s.exactLeft -= fired
	return fired, ok
}
