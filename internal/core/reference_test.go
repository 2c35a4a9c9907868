package core

import (
	"fmt"

	"repro/internal/conf"
	"repro/internal/petri"
)

// referenceReachBottom is the eager definition of the certificate
// search, kept only as the differential oracle for ReachBottom: build
// the top-level closure whole with petri.Reach, take the bounded branch
// iff it is complete, and otherwise scan every node up to the
// truncation point. ReachBottom, which grows the closure only as far as
// the search reads it, must return the identical certificate and the
// identical error text on every input.
func referenceReachBottom(net *petri.Net, rho conf.Config, opts ReachBottomOptions) (*BottomCert, error) {
	space := net.Space()
	rs, reachErr := net.Reach(rho, opts.Budget)
	if reachErr != nil && rs == nil {
		return nil, reachErr
	}
	defer rs.Release()

	if reachErr == nil {
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
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = rs.Len()
	}

	skipped := 0 // distinct (Q, α|Q) bottom checks lost to the budget
	scratchQ := make([]int64, maxQ)
	for id := 0; id < rs.Len() && id < maxCand; id++ {
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

// ReferenceReachBottom exposes the oracle to the external test package,
// which can build instances from the protocol packages that import core.
var ReferenceReachBottom = referenceReachBottom
