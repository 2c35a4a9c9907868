package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/conf"
	"repro/internal/graph"
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
		cert, err := referenceBottomFromCompleteClosure(net, rs)
		if err != nil {
			return nil, err
		}
		if err := VerifyBottomCert(net, rho, cert, opts.Budget); err != nil {
			return nil, fmt.Errorf("core: internal: bounded certificate failed verification: %w", err)
		}
		return cert, nil
	}

	// Unbounded (or too large): derive candidate Q sets from Karp–Miller
	// pumpable places. The restricted space, net and index map of every
	// mask are built once, outside the (candidate × mask) loop.
	tree, err := net.KarpMiller(rho, opts.Budget)
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

	skipped := 0 // distinct (Q, α|Q) bottom checks lost to the budget
	scratchQ := make([]int64, maxQ)
	isBot := make([][]bool, len(candidates)) // per candidate, by id in seen
	for id := 0; id < rs.Len(); id++ {
		alpha := rs.Config(id)
		for ci, mc := range candidates {
			alphaQ := scratchQ[:mc.qSpace.Len()]
			alpha.RestrictInto(alphaQ, mc.idxMap)
			qid, added := mc.seen.Insert(alphaQ)
			if added {
				b, err := IsBottom(mc.netQ, conf.View(mc.qSpace, mc.seen.At(qid)), opts.Budget)
				if err != nil {
					// Closure too large to certify bottomness: treat as
					// not bottom for search purposes, but account for
					// the skip so an exhausted search is diagnosable.
					b = false
					skipped++
				}
				isBot[ci] = append(isBot[ci], b)
			}
			if !isBot[ci][qid] {
				continue
			}
			w, beta, found := findPumpWord(net, alpha, mc.mask, opts.Budget)
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
			comp, err := Component(mc.netQ, conf.View(mc.qSpace, mc.seen.At(qid)), opts.Budget)
			if err != nil {
				return nil, err
			}
			cert.ComponentSize = len(comp)
			if err := VerifyBottomCert(net, rho, cert, opts.Budget); err != nil {
				return nil, fmt.Errorf("core: internal: pumping certificate failed verification: %w", err)
			}
			return cert, nil
		}
	}
	if skipped > 0 {
		return nil, fmt.Errorf("%w (%d distinct (Q, α|Q) bottom checks hit the closure budget; raise Budget.MaxConfigs)", ErrNoBottom, skipped)
	}
	return nil, ErrNoBottom
}

// referenceBottomFromCompleteClosure is bottomFromCompleteClosure by
// way of the deduplicated condensation and every component's member
// list: the bounded branch's oracle.
func referenceBottomFromCompleteClosure(net *petri.Net, rs *petri.ReachSet) (*BottomCert, error) {
	comp, ncomp := graph.SCCOf(rs.CSR())
	cond := condenseCSR(rs.CSR(), comp, ncomp)
	isBottom := make([]bool, ncomp)
	for _, b := range bottomComponents(cond) {
		isBottom[b] = true
	}
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
	alpha := rs.Config(best).Clone()
	members := graph.Members(comp, ncomp)
	return &BottomCert{
		Sigma:         rs.PathTo(best),
		Q:             net.Space().Names(),
		Alpha:         alpha,
		Beta:          alpha,
		ComponentSize: len(members[comp[best]]),
	}, nil
}

// ReferenceReachBottom exposes the oracle to the external test package,
// which can build instances from the protocol packages that import core.
var ReferenceReachBottom = referenceReachBottom

// condenseCSR builds the condensation graph: one node per component,
// edges between distinct components, deduplicated. Component ids
// follow graph.SCC's numbering.
func condenseCSR(g graph.CSR, comp []int, ncomp int) [][]int {
	out := make([][]int, ncomp)
	seen := make(map[[2]int]bool)
	for v := 0; v < g.NumNodes(); v++ {
		a := comp[v]
		for _, w := range g.Succ(v) {
			b := comp[w]
			if a == b {
				continue
			}
			key := [2]int{a, b}
			if !seen[key] {
				seen[key] = true
				out[a] = append(out[a], b)
			}
		}
	}
	return out
}

// bottomComponents returns the component ids that have no outgoing edge
// in the condensation: the bottom (sink) SCCs. A node in a bottom SCC
// can reach exactly its own component.
func bottomComponents(cond [][]int) []int {
	var out []int
	for c, succ := range cond {
		if len(succ) == 0 {
			out = append(out, c)
		}
	}
	return out
}

func TestCondenseAndBottom(t *testing.T) {
	// Two cycles {0,1} -> {2,3}; bottom is {2,3}.
	adj := [][]int{{1}, {0, 2}, {3}, {2}}
	comp, ncomp := graph.SCC(adj)
	cond := condenseCSR(graph.NewCSR(adj), comp, ncomp)
	bottoms := bottomComponents(cond)
	if len(bottoms) != 1 {
		t.Fatalf("bottoms = %v, want one", bottoms)
	}
	if bottoms[0] != comp[2] {
		t.Errorf("bottom = %d, want component of node 2 (%d)", bottoms[0], comp[2])
	}
	members := graph.Members(comp, ncomp)
	got := members[comp[2]]
	sort.Ints(got)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("bottom members = %v, want [2 3]", got)
	}
}
