// Package graph provides the directed-graph algorithms the protocol
// analyses are built on: strongly connected components (Tarjan), their
// member lists and reachability fixpoints.
//
// Graphs are plain adjacency lists over integer node ids, matching the
// node ids of petri.ReachSet closures.
package graph

// CSR is a directed graph in compressed sparse row form: node v's
// successors are Dst[Off[v]:Off[v+1]]. It is the allocation-free edge
// representation produced by petri.ReachSet closures; NewCSR converts
// plain adjacency lists.
type CSR struct {
	Off []int32 // length NumNodes()+1
	Dst []int32
}

// NewCSR builds a CSR graph from adjacency lists, preserving edge
// order.
func NewCSR(adj [][]int) CSR {
	total := 0
	for _, ws := range adj {
		total += len(ws)
	}
	g := CSR{
		Off: make([]int32, len(adj)+1),
		Dst: make([]int32, 0, total),
	}
	for v, ws := range adj {
		for _, w := range ws {
			g.Dst = append(g.Dst, int32(w))
		}
		g.Off[v+1] = int32(len(g.Dst))
	}
	return g
}

// NumNodes returns the number of nodes.
func (g CSR) NumNodes() int { return len(g.Off) - 1 }

// Succ returns node v's successor slice (shared, not to be mutated).
func (g CSR) Succ(v int) []int32 { return g.Dst[g.Off[v]:g.Off[v+1]] }

// Reverse returns the reversed graph in CSR form, built with a
// counting sort — two passes over the edge array, no per-node slices.
func (g CSR) Reverse() CSR {
	r, _ := g.ReverseInto(CSR{}, nil)
	return r
}

// ReverseInto is Reverse building the reversed graph in r's arrays and
// using cursor as the counting sort's per-node scratch, each reused
// when its capacity suffices and reallocated otherwise. It returns the
// reversed graph and the cursor for the next call; r's previous
// contents are overwritten.
func (g CSR) ReverseInto(r CSR, cursor []int32) (CSR, []int32) {
	n := g.NumNodes()
	r.Off = resize(r.Off, n+1)
	clear(r.Off)
	r.Dst = resize(r.Dst, len(g.Dst))
	for _, w := range g.Dst {
		r.Off[w+1]++
	}
	for v := 0; v < n; v++ {
		r.Off[v+1] += r.Off[v]
	}
	cursor = resize(cursor, n)
	copy(cursor, r.Off[:n])
	for v := 0; v < n; v++ {
		for _, w := range g.Succ(v) {
			r.Dst[cursor[w]] = int32(v)
			cursor[w]++
		}
	}
	return r, cursor
}

// resize returns s with length n, reusing its array when the capacity
// suffices. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SCC computes the strongly connected components of the graph given as
// adjacency lists. It is SCCOf over NewCSR(adj); see SCCOf for the
// component-numbering contract.
func SCC(adj [][]int) (comp []int, ncomp int) {
	return SCCOf(NewCSR(adj))
}

// SCCOf computes the strongly connected components of a CSR graph,
// using Tarjan's algorithm (iterative, so deep graphs cannot overflow
// the goroutine stack).
//
// It returns the component id of every node and the number of
// components. Component ids are in reverse topological order: if there
// is an edge from a node in component x to a node in component y with
// x ≠ y, then x > y. Consequently component 0 is always a "bottom"
// (sink) component of the condensation.
func SCCOf(g CSR) (comp []int, ncomp int) {
	n := g.NumNodes()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	// Iterative Tarjan: frame.ei is the next edge of frame.v to explore.
	type frame struct {
		v  int
		ei int
	}
	var frames []frame

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if succ := g.Succ(f.v); f.ei < len(succ) {
				w := int(succ[f.ei])
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// All edges of f.v explored: pop.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// Members returns, for each component, the list of node ids it contains.
func Members(comp []int, ncomp int) [][]int {
	out := make([][]int, ncomp)
	for v, c := range comp {
		out[c] = append(out[c], v)
	}
	return out
}

// ReachableFrom computes, for every node, whether it is reachable from
// some source by a forward BFS over g. reach, when non-nil, is used as
// the result buffer (cleared first) so repeated passes over one graph
// allocate nothing beyond the queue.
func ReachableFrom(g CSR, sources []int, reach []bool) []bool {
	reach, _ = ReachableFromInto(g, sources, reach, nil)
	return reach
}

// ReachableFromInto is ReachableFrom with a reusable BFS queue: reach
// and queue are reused when their capacity suffices and reallocated
// otherwise. It returns the result and the queue for the next call.
// The queue is read through a head index, so it never holds more than
// one slot per node.
func ReachableFromInto(g CSR, sources []int, reach []bool, queue []int32) ([]bool, []int32) {
	n := g.NumNodes()
	reach = resize(reach, n)
	clear(reach)
	queue = resize(queue, n)[:0]
	for _, s := range sources {
		if !reach[s] {
			reach[s] = true
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, w := range g.Succ(int(queue[head])) {
			if !reach[w] {
				reach[w] = true
				queue = append(queue, w)
			}
		}
	}
	return reach, queue
}

// StronglyConnected reports whether the whole graph is one strongly
// connected component. The empty graph is not strongly connected; a
// single node (with or without a self-loop) is.
func StronglyConnected(adj [][]int) bool {
	if len(adj) == 0 {
		return false
	}
	_, ncomp := SCC(adj)
	return ncomp == 1
}
