// Package ctrlnet implements Petri nets with control-states (Section 7
// of Leroux, PODC 2022): a triple (S, T, E) with S a finite set of
// control-states, T a P-Petri net and E ⊆ S×T×S a set of edges. It
// provides paths, cycles, multicycles, Parikh images, displacements,
// the Euler lemma (Lemma 7.1), small total cycles (Lemma 7.2) and the
// constructive small-multicycle replacement of Lemma 7.3 built on
// Pottier's theorem.
package ctrlnet

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/petri"
)

// Edge is an element (s, t, s') of E: transition index Trans of the
// Petri net fired while moving from control-state From to To.
type Edge struct {
	From  string
	Trans int
	To    string
}

// Net is a Petri net with control-states.
type Net struct {
	states []string
	sidx   map[string]int
	pnet   *petri.Net
	edges  []Edge
	// out[s] lists edge indices leaving control-state s.
	out [][]int
}

// New validates and builds a Petri net with control-states.
func New(states []string, pnet *petri.Net, edges []Edge) (*Net, error) {
	if len(states) == 0 {
		return nil, errors.New("ctrlnet: no control-states")
	}
	if pnet == nil {
		return nil, errors.New("ctrlnet: nil Petri net")
	}
	n := &Net{
		states: append([]string(nil), states...),
		sidx:   make(map[string]int, len(states)),
		pnet:   pnet,
		edges:  append([]Edge(nil), edges...),
		out:    make([][]int, len(states)),
	}
	for i, s := range states {
		if s == "" {
			return nil, errors.New("ctrlnet: empty control-state name")
		}
		if _, dup := n.sidx[s]; dup {
			return nil, fmt.Errorf("ctrlnet: duplicate control-state %q", s)
		}
		n.sidx[s] = i
	}
	for ei, e := range n.edges {
		from, ok := n.sidx[e.From]
		if !ok {
			return nil, fmt.Errorf("ctrlnet: edge %d: unknown control-state %q", ei, e.From)
		}
		if _, ok := n.sidx[e.To]; !ok {
			return nil, fmt.Errorf("ctrlnet: edge %d: unknown control-state %q", ei, e.To)
		}
		if e.Trans < 0 || e.Trans >= pnet.Len() {
			return nil, fmt.Errorf("ctrlnet: edge %d: no transition %d", ei, e.Trans)
		}
		n.out[from] = append(n.out[from], ei)
	}
	return n, nil
}

// NumStates returns |S|.
func (n *Net) NumStates() int { return len(n.states) }

// NumEdges returns |E|.
func (n *Net) NumEdges() int { return len(n.edges) }

// controlAdjacency returns S-level adjacency lists induced by E.
func (n *Net) controlAdjacency() [][]int {
	adj := make([][]int, len(n.states))
	for s, outs := range n.out {
		for _, ei := range outs {
			adj[s] = append(adj[s], n.sidx[n.edges[ei].To])
		}
	}
	return adj
}

// StronglyConnected reports whether for every pair (s, s') there is a
// path from s to s'.
func (n *Net) StronglyConnected() bool {
	return graph.StronglyConnected(n.controlAdjacency())
}

// ValidatePath checks that the edge-index sequence is a path (each
// edge's target is the next edge's source) and returns its endpoints.
// The empty path is invalid (no endpoints).
func (n *Net) ValidatePath(path []int) (from, to string, err error) {
	if len(path) == 0 {
		return "", "", errors.New("ctrlnet: empty path")
	}
	for i, ei := range path {
		if ei < 0 || ei >= len(n.edges) {
			return "", "", fmt.Errorf("ctrlnet: no edge %d", ei)
		}
		if i > 0 && n.edges[path[i-1]].To != n.edges[ei].From {
			return "", "", fmt.Errorf("ctrlnet: edges %d and %d do not chain", path[i-1], ei)
		}
	}
	return n.edges[path[0]].From, n.edges[path[len(path)-1]].To, nil
}

// IsCycle reports whether the path returns to its starting
// control-state.
func (n *Net) IsCycle(path []int) bool {
	from, to, err := n.ValidatePath(path)
	return err == nil && from == to
}

// Parikh returns the Parikh image #π ∈ ℕ^E of a path.
func (n *Net) Parikh(path []int) []int64 {
	out := make([]int64, len(n.edges))
	for _, ei := range path {
		out[ei]++
	}
	return out
}

// Displacement returns Δ(π) ∈ ℤ^P of a path (or any edge multiset).
func (n *Net) Displacement(path []int) []int64 {
	out := make([]int64, n.pnet.Space().Len())
	for _, ei := range path {
		d := n.pnet.At(n.edges[ei].Trans).Delta()
		for i, v := range d {
			out[i] += v
		}
	}
	return out
}

// SimpleCycleThrough returns a shortest cycle containing the given edge
// (the edge first, then a shortest path from its target back to its
// source). Its length is at most |S|.
func (n *Net) SimpleCycleThrough(edge int) ([]int, error) {
	if edge < 0 || edge >= len(n.edges) {
		return nil, fmt.Errorf("ctrlnet: no edge %d", edge)
	}
	start := n.sidx[n.edges[edge].To]
	goal := n.sidx[n.edges[edge].From]
	if start == goal {
		return []int{edge}, nil
	}
	// BFS over control-states remembering the edge used.
	prevEdge := make([]int, len(n.states))
	prevNode := make([]int, len(n.states))
	for i := range prevEdge {
		prevEdge[i] = -1
		prevNode[i] = -1
	}
	queue := []int{start}
	visited := make([]bool, len(n.states))
	visited[start] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == goal {
			break
		}
		for _, ei := range n.out[s] {
			t := n.sidx[n.edges[ei].To]
			if !visited[t] {
				visited[t] = true
				prevEdge[t] = ei
				prevNode[t] = s
				queue = append(queue, t)
			}
		}
	}
	if !visited[goal] {
		return nil, fmt.Errorf("ctrlnet: no path from %q back to %q", n.edges[edge].To, n.edges[edge].From)
	}
	var back []int
	for s := goal; s != start; s = prevNode[s] {
		back = append(back, prevEdge[s])
	}
	cycle := []int{edge}
	for i := len(back) - 1; i >= 0; i-- {
		cycle = append(cycle, back[i])
	}
	return cycle, nil
}

// TotalCycle returns a total cycle (every edge occurs) of length at
// most |E|·|S|, per Lemma 7.2: one simple cycle per edge, merged by the
// Euler lemma. The net must be strongly connected.
func (n *Net) TotalCycle() ([]int, error) {
	if len(n.edges) == 0 {
		return nil, errors.New("ctrlnet: no edges")
	}
	if !n.StronglyConnected() {
		return nil, errors.New("ctrlnet: not strongly connected")
	}
	parikh := make([]int64, len(n.edges))
	for ei := range n.edges {
		cyc, err := n.SimpleCycleThrough(ei)
		if err != nil {
			return nil, err
		}
		for _, e := range cyc {
			parikh[e]++
		}
	}
	return n.EulerCycle(parikh)
}

// EulerCycle implements Lemma 7.1 constructively: given the Parikh
// image of a total multicycle (every edge count positive, flow balanced
// at every control-state) over a strongly connected net, it returns one
// cycle with exactly that Parikh image, via Hierholzer's algorithm on
// the multigraph.
func (n *Net) EulerCycle(parikh []int64) ([]int, error) {
	if len(parikh) != len(n.edges) {
		return nil, errors.New("ctrlnet: parikh length mismatch")
	}
	var totalEdges int64
	inDeg := make([]int64, len(n.states))
	outDeg := make([]int64, len(n.states))
	for ei, c := range parikh {
		if c < 0 {
			return nil, errors.New("ctrlnet: negative parikh entry")
		}
		if c == 0 {
			continue
		}
		totalEdges += c
		outDeg[n.sidx[n.edges[ei].From]] += c
		inDeg[n.sidx[n.edges[ei].To]] += c
	}
	if totalEdges == 0 {
		return nil, errors.New("ctrlnet: empty multicycle")
	}
	for s := range n.states {
		if inDeg[s] != outDeg[s] {
			return nil, fmt.Errorf("ctrlnet: flow imbalance at %q: in=%d out=%d", n.states[s], inDeg[s], outDeg[s])
		}
	}
	// Support connectivity: the states touched by positive-count edges
	// must be strongly connected among themselves (guaranteed when the
	// multicycle is total and the net strongly connected, but verified
	// here for robustness).
	if !n.supportConnected(parikh) {
		return nil, errors.New("ctrlnet: multicycle support not connected")
	}

	// Hierholzer over the multigraph.
	remaining := append([]int64(nil), parikh...)
	outEdges := make([][]int, len(n.states))
	for s, outs := range n.out {
		for _, ei := range outs {
			if parikh[ei] > 0 {
				outEdges[s] = append(outEdges[s], ei)
			}
		}
	}
	cursor := make([]int, len(n.states))
	var start int
	for ei, c := range parikh {
		if c > 0 {
			start = n.sidx[n.edges[ei].From]
			break
		}
	}
	// Iterative Hierholzer: walk until stuck, backtrack inserting
	// detours.
	var circuit []int // edges in reverse completion order
	type stackItem struct {
		state int
		edge  int // edge taken to arrive here, −1 for the start
	}
	stack := []stackItem{{state: start, edge: -1}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		s := top.state
		advanced := false
		for cursor[s] < len(outEdges[s]) {
			ei := outEdges[s][cursor[s]]
			if remaining[ei] == 0 {
				cursor[s]++
				continue
			}
			remaining[ei]--
			stack = append(stack, stackItem{state: n.sidx[n.edges[ei].To], edge: ei})
			advanced = true
			break
		}
		if !advanced {
			if top.edge >= 0 {
				circuit = append(circuit, top.edge)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if int64(len(circuit)) != totalEdges {
		return nil, errors.New("ctrlnet: internal: Euler walk incomplete")
	}
	// circuit is in reverse order.
	for i, j := 0, len(circuit)-1; i < j; i, j = i+1, j-1 {
		circuit[i], circuit[j] = circuit[j], circuit[i]
	}
	if !n.IsCycle(circuit) {
		return nil, errors.New("ctrlnet: internal: Euler output not a cycle")
	}
	return circuit, nil
}

// supportConnected checks strong connectivity of the sub-digraph on
// positive-count edges, restricted to touched states.
func (n *Net) supportConnected(parikh []int64) bool {
	touched := make([]bool, len(n.states))
	adj := make([][]int, len(n.states))
	any := false
	for ei, c := range parikh {
		if c <= 0 {
			continue
		}
		f, t := n.sidx[n.edges[ei].From], n.sidx[n.edges[ei].To]
		touched[f], touched[t] = true, true
		adj[f] = append(adj[f], t)
		any = true
	}
	if !any {
		return false
	}
	comp, _ := graph.SCC(adj)
	first := -1
	for s, ok := range touched {
		if !ok {
			continue
		}
		if first == -1 {
			first = comp[s]
		} else if comp[s] != first {
			return false
		}
	}
	return true
}

// DecomposeSimple decomposes a cycle into simple cycles with the same
// total Parikh image (the classical peeling argument used at the start
// of the Lemma 7.3 proof).
func (n *Net) DecomposeSimple(cycle []int) ([][]int, error) {
	if !n.IsCycle(cycle) {
		return nil, errors.New("ctrlnet: not a cycle")
	}
	var cycles [][]int
	var stackEdges []int
	var stackStates []int // stackStates[i] = control-state before stackEdges[i]
	posOf := make(map[int]int)
	cur := n.sidx[n.edges[cycle[0]].From]
	posOf[cur] = 0
	for _, ei := range cycle {
		stackStates = append(stackStates, cur)
		stackEdges = append(stackEdges, ei)
		cur = n.sidx[n.edges[ei].To]
		p, seen := posOf[cur]
		if !seen {
			posOf[cur] = len(stackEdges)
			continue
		}
		// stackEdges[p:] is a cycle on cur: peel it off.
		cycles = append(cycles, append([]int(nil), stackEdges[p:]...))
		for i := p; i < len(stackStates); i++ {
			delete(posOf, stackStates[i])
		}
		stackEdges = stackEdges[:p]
		stackStates = stackStates[:p]
		posOf[cur] = p
	}
	if len(stackEdges) != 0 {
		return nil, errors.New("ctrlnet: internal: decomposition left a non-empty stack")
	}
	return cycles, nil
}
