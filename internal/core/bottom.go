package core

import (
	"errors"
	"fmt"

	"repro/internal/conf"
	"repro/internal/graph"
	"repro/internal/petri"
)

// Component returns the T-component of ρ: the configurations β with
// ρ —T*→ β —T*→ ρ (Section 6). It requires a complete forward closure
// and errs (wrapping petri.ErrBudget) otherwise: a truncated closure
// cannot certify mutual reachability.
func Component(net *petri.Net, rho conf.Config, budget petri.Budget) ([]conf.Config, error) {
	rs, err := net.Reach(rho, budget)
	if rs != nil {
		defer rs.Release()
	}
	if err != nil {
		return nil, fmt.Errorf("component: %w", err)
	}
	comp, ncomp := graph.SCCOf(rs.CSR())
	members := graph.Members(comp, ncomp)
	rootComp := comp[0] // node 0 is ρ itself
	out := make([]conf.Config, 0, len(members[rootComp]))
	for _, id := range members[rootComp] {
		// Clone: the escaping members must not pin the closure arena.
		out = append(out, rs.Config(id).Clone())
	}
	return out, nil
}

// IsBottom reports whether ρ is T-bottom: its component is finite and
// every reachable β can reach back to ρ (Section 6). Over a complete
// closure this says ρ's SCC is the whole closure. For configurations
// with infinite closures the check errs on budget rather than guessing.
func IsBottom(net *petri.Net, rho conf.Config, budget petri.Budget) (bool, error) {
	rs, err := net.Reach(rho, budget)
	if rs != nil {
		defer rs.Release()
	}
	if err != nil {
		return false, fmt.Errorf("bottom check: %w", err)
	}
	_, ncomp := graph.SCCOf(rs.CSR())
	// ρ is bottom iff every reachable configuration is mutually
	// reachable with ρ, i.e. the whole (finite) closure is one SCC.
	return ncomp == 1, nil
}

// BottomCert is a witness for Theorem 6.1: words σ, w, a state subset Q
// and configurations α, β with
//
//	ρ —σ→ α —w→ β,  α|Q = β|Q,  α(p) < β(p) for p ∈ P∖Q,
//	α|Q is T|Q-bottom, and the T|Q-component of α|Q is small.
type BottomCert struct {
	// Sigma is the word σ with ρ —σ→ α (transition indices of the net).
	Sigma []int
	// W is the word w with α —w→ β.
	W []int
	// Q is the subset of states on which α is a bottom configuration.
	Q []string
	// Alpha and Beta are the witnessed configurations.
	Alpha, Beta conf.Config
	// ComponentSize is the cardinal of the T|Q-component of α|Q.
	ComponentSize int
}

// ErrNoBottom is returned (possibly wrapped with diagnostic counts)
// when the bounded search cannot produce a certificate; Theorem 6.1
// guarantees one exists, so hitting this means the search budget was
// too small for the instance.
var ErrNoBottom = errors.New("core: bottom-configuration search exhausted without certificate")

// ReachBottomOptions tunes the certificate search.
type ReachBottomOptions struct {
	// Closure budget for the top-level forward exploration from ρ.
	Budget petri.Budget
	// SubBudget bounds the T|Q closures used for bottom checks. Zero
	// applies Budget.
	SubBudget petri.Budget
	// PumpDepth bounds the BFS searching for the pumping word w. Zero
	// means 4·|P|.
	PumpDepth int
	// MaxCandidates bounds how many visited α are tried. Zero means all.
	MaxCandidates int
}

// maskCandidate is the per-candidate-Q state of the certificate
// search, built once per mask and reused across every visited α: the
// restricted space and net, the index map driving RestrictInto, and
// the memo of bottom checks keyed by the arena id of α|Q's counts —
// exact integer-hash dedup, no string keys.
type maskCandidate struct {
	mask   []bool
	qSpace *conf.Space
	netQ   *petri.Net
	idxMap []int
	seen   *conf.CountSet
	isBot  []bool
}

// ReachBottom searches constructively for a Theorem 6.1 certificate.
//
// Bounded instances: the closure from ρ is complete, so a reachable
// bottom SCC gives α with Q = P, w = ε. Unbounded instances: the
// Karp–Miller tree supplies pumpable place sets P∖Q; for each visited α
// whose restriction α|Q is T|Q-bottom, a short pumping word w with
// β|Q = α|Q and β > α outside Q is searched breadth-first.
//
// The closure from ρ is grown one BFS level at a time, and only as far
// as the search reads it. A node strictly dominating its BFS parent
// proves the closure infinite — the transition between them stays
// fireable and pumps forever, as transitions are monotone — so the
// search switches to the Karp–Miller branch there instead of exploring
// up to the budget first. That branch grows the closure while the
// candidate loop asks for the next node. Node order, truncation point,
// certificates and errors are those of a closure built whole by
// petri.Reach.
//
// Every returned certificate is verified by VerifyBottomCert before
// being handed to the caller.
func ReachBottom(net *petri.Net, rho conf.Config, opts ReachBottomOptions) (*BottomCert, error) {
	space := net.Space()
	rs, err := net.StartReach(rho, opts.Budget)
	if err != nil {
		return nil, err
	}
	defer rs.Release()
	done, infinite := false, false
	parent := make([]int64, space.Len())
	for !done && !infinite {
		lo := rs.Len()
		if done, err = rs.Grow(); err != nil {
			return nil, err
		}
		for id := lo; id < rs.Len() && !infinite; id++ {
			// Copy the parent out: a spilled closure's views last
			// only until the next read.
			copy(parent, rs.Config(rs.Parent(id)).RawCounts())
			infinite = conf.View(space, parent).Leq(rs.Config(id))
		}
	}

	if rs.Complete {
		// Complete closure: Q = P and any reachable bottom-SCC member is
		// a T-bottom configuration.
		cert, err := bottomFromCompleteClosure(net, rs)
		if err != nil {
			return nil, err
		}
		if err := VerifyBottomCert(net, rho, cert, opts.subBudget()); err != nil {
			return nil, fmt.Errorf("core: internal: bounded certificate failed verification: %w", err)
		}
		return cert, nil
	}

	// Unbounded (or too large): derive candidate Q sets from Karp–Miller
	// pumpable places. The restricted space, net and index map of every
	// mask are built once, outside the (candidate × mask) loop.
	tree, err := net.KarpMiller(rho, opts.Budget.MaxConfigs)
	if err != nil {
		return nil, fmt.Errorf("reach-bottom: %w", err)
	}
	var candidates []*maskCandidate
	maxQ := 0
	for _, omega := range tree.PumpableSets() {
		mask := make([]bool, space.Len())
		for i := range mask {
			mask[i] = true
		}
		for _, p := range omega {
			mask[p] = false // pumpable places leave Q
		}
		qSpace, err := subSpace(space, mask)
		if err != nil {
			return nil, err
		}
		netQ, err := net.Restrict(qSpace)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, &maskCandidate{
			mask:   mask,
			qSpace: qSpace,
			netQ:   netQ,
			idxMap: space.IndexMap(qSpace),
			seen:   conf.NewCountSet(qSpace.Len(), 64),
		})
		if qSpace.Len() > maxQ {
			maxQ = qSpace.Len()
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoBottom
	}

	pumpDepth := opts.PumpDepth
	if pumpDepth <= 0 {
		pumpDepth = 4 * space.Len()
	}

	skipped := 0 // distinct (Q, α|Q) bottom checks lost to the budget
	scratchQ := make([]int64, maxQ)
	// Without MaxCandidates every node up to the closure's truncation
	// point is a candidate.
	for id := 0; opts.MaxCandidates <= 0 || id < opts.MaxCandidates; id++ {
		for id >= rs.Len() && !done {
			if done, err = rs.Grow(); err != nil {
				return nil, err
			}
		}
		if id >= rs.Len() {
			break
		}
		alpha := rs.Config(id)
		for _, mc := range candidates {
			alphaQ := scratchQ[:mc.qSpace.Len()]
			alpha.RestrictInto(alphaQ, mc.idxMap)
			qid, added := mc.seen.Insert(alphaQ)
			if added {
				b, err := IsBottom(mc.netQ, conf.View(mc.qSpace, mc.seen.At(qid)), opts.subBudget())
				if err != nil {
					// Closure too large to certify bottomness: treat as
					// not bottom for search purposes, but account for
					// the skip so an exhausted search is diagnosable.
					b = false
					skipped++
				}
				mc.isBot = append(mc.isBot, b)
			}
			if !mc.isBot[qid] {
				continue
			}
			w, beta, found := findPumpWord(net, alpha, mc.mask, pumpDepth, opts.subBudget())
			if !found {
				continue
			}
			cert := &BottomCert{
				Sigma: rs.PathTo(id),
				W:     w,
				Q:     spaceNamesFromMask(space, mc.mask),
				// Clone: the certificate outlives the closure and must
				// not pin its arena.
				Alpha:         alpha.Clone(),
				Beta:          beta,
				ComponentSize: 0,
			}
			comp, err := Component(mc.netQ, conf.View(mc.qSpace, mc.seen.At(qid)), opts.subBudget())
			if err != nil {
				return nil, err
			}
			cert.ComponentSize = len(comp)
			if err := VerifyBottomCert(net, rho, cert, opts.subBudget()); err != nil {
				return nil, fmt.Errorf("core: internal: pumping certificate failed verification: %w", err)
			}
			return cert, nil
		}
	}
	if skipped > 0 {
		return nil, fmt.Errorf("%w (%d distinct (Q, α|Q) bottom checks hit the closure budget; raise SubBudget.MaxConfigs)", ErrNoBottom, skipped)
	}
	return nil, ErrNoBottom
}

func (o ReachBottomOptions) subBudget() petri.Budget {
	if o.SubBudget == (petri.Budget{}) {
		return o.Budget
	}
	return o.SubBudget
}

// bottomFromCompleteClosure picks the closest reachable bottom-SCC
// configuration as α, with Q = P and w = ε.
func bottomFromCompleteClosure(net *petri.Net, rs *petri.ReachSet) (*BottomCert, error) {
	comp, ncomp := graph.SCCOf(rs.CSR())
	cond := graph.CondenseCSR(rs.CSR(), comp, ncomp)
	bottoms := graph.BottomComponents(cond)
	isBottom := make([]bool, ncomp)
	for _, b := range bottoms {
		isBottom[b] = true
	}
	// BFS order = increasing depth, so the first node in a bottom SCC
	// has a shortest σ.
	best := -1
	for id := 0; id < rs.Len(); id++ {
		if isBottom[comp[id]] {
			best = id
			break
		}
	}
	if best < 0 {
		return nil, errors.New("core: internal: complete closure has no bottom SCC")
	}
	// Clone: the certificate outlives the closure and must not pin its
	// arena.
	alpha := rs.Config(best).Clone()
	members := graph.Members(comp, ncomp)
	return &BottomCert{
		Sigma:         rs.PathTo(best),
		W:             nil,
		Q:             net.Space().Names(),
		Alpha:         alpha,
		Beta:          alpha,
		ComponentSize: len(members[comp[best]]),
	}, nil
}

// findPumpWord searches breadth-first from α for a word w with
// β|Q = α|Q and β(p) > α(p) for every p outside Q. The visited set is
// the same arena-backed integer-hash substrate as the closure engine;
// firing runs through a scratch buffer, so the search allocates only
// the arena itself.
func findPumpWord(net *petri.Net, alpha conf.Config, qMask []bool, maxDepth int, budget petri.Budget) ([]int, conf.Config, bool) {
	space := net.Space()
	d := space.Len()
	idx := net.Index()
	alphaCounts := alpha.RawCounts()

	matchesQ := func(c []int64) bool {
		for i, inQ := range qMask {
			if inQ && c[i] != alphaCounts[i] {
				return false
			}
		}
		return true
	}
	pumped := func(c []int64) bool {
		for i, inQ := range qMask {
			if !inQ && c[i] <= alphaCounts[i] {
				return false
			}
		}
		return true
	}

	set := conf.NewCountSet(d, 256)
	set.Insert(alphaCounts)
	parent := []int32{-1}
	via := []int32{-1}
	depth := []int32{0}
	scratch := make([]int64, d)
	maxConfigs := budget.MaxConfigs
	if maxConfigs <= 0 {
		maxConfigs = petri.DefaultMaxConfigs
	}
	// Node ids live in the int32 parent/via arrays: clamp like
	// petri.Budget does rather than wrap.
	if maxConfigs > 1<<31-1 {
		maxConfigs = 1<<31 - 1
	}
	for head := 0; head < set.Len(); head++ {
		if int(depth[head]) >= maxDepth {
			continue
		}
		cur := set.At(head)
		for ti := 0; ti < net.Len(); ti++ {
			if !idx.FireInto(ti, cur, scratch) {
				continue
			}
			id, added := set.Insert(scratch)
			if !added {
				continue
			}
			parent = append(parent, int32(head))
			via = append(via, int32(ti))
			depth = append(depth, depth[head]+1)
			if matchesQ(scratch) && pumped(scratch) {
				var rev []int
				for cur := id; parent[cur] >= 0; cur = int(parent[cur]) {
					rev = append(rev, int(via[cur]))
				}
				for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
					rev[a], rev[b] = rev[b], rev[a]
				}
				beta, err := conf.FromSlice(space, scratch)
				if err != nil {
					// Unreachable: fired counts are non-negative.
					panic(err)
				}
				return rev, beta, true
			}
			if set.Len() >= maxConfigs {
				return nil, conf.Config{}, false
			}
		}
	}
	return nil, conf.Config{}, false
}

// VerifyBottomCert replays and checks every clause of a Theorem 6.1
// certificate against the net, returning the first violation.
func VerifyBottomCert(net *petri.Net, rho conf.Config, cert *BottomCert, budget petri.Budget) error {
	if cert == nil {
		return errors.New("core: nil certificate")
	}
	space := net.Space()
	alpha, err := net.FireWord(rho, cert.Sigma)
	if err != nil {
		return fmt.Errorf("replay σ: %w", err)
	}
	if !alpha.Equal(cert.Alpha) {
		return fmt.Errorf("core: σ leads to %v, certificate says α = %v", alpha, cert.Alpha)
	}
	beta, err := net.FireWord(alpha, cert.W)
	if err != nil {
		return fmt.Errorf("replay w: %w", err)
	}
	if !beta.Equal(cert.Beta) {
		return fmt.Errorf("core: w leads to %v, certificate says β = %v", beta, cert.Beta)
	}
	qSpace, err := space.Sub(cert.Q...)
	if err != nil {
		return err
	}
	if !alpha.Restrict(qSpace).Equal(beta.Restrict(qSpace)) {
		return errors.New("core: α|Q ≠ β|Q")
	}
	inQ := make(map[string]bool, len(cert.Q))
	for _, q := range cert.Q {
		inQ[q] = true
	}
	for i := 0; i < space.Len(); i++ {
		if inQ[space.Name(i)] {
			continue
		}
		if alpha.Get(i) >= beta.Get(i) {
			return fmt.Errorf("core: state %q not pumped: α=%d β=%d", space.Name(i), alpha.Get(i), beta.Get(i))
		}
	}
	netQ, err := net.Restrict(qSpace)
	if err != nil {
		return err
	}
	bot, err := IsBottom(netQ, alpha.Restrict(qSpace), budget)
	if err != nil {
		return err
	}
	if !bot {
		return errors.New("core: α|Q is not T|Q-bottom")
	}
	comp, err := Component(netQ, alpha.Restrict(qSpace), budget)
	if err != nil {
		return err
	}
	if len(comp) != cert.ComponentSize {
		return fmt.Errorf("core: component size %d, certificate says %d", len(comp), cert.ComponentSize)
	}
	return nil
}

func subSpace(space *conf.Space, mask []bool) (*conf.Space, error) {
	return space.Sub(spaceNamesFromMask(space, mask)...)
}

func spaceNamesFromMask(space *conf.Space, mask []bool) []string {
	var names []string
	for i, in := range mask {
		if in {
			names = append(names, space.Name(i))
		}
	}
	return names
}
