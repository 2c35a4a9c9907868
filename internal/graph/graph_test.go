package graph

import (
	"math/rand"
	"testing"
)

func TestSCCLinear(t *testing.T) {
	// 0 -> 1 -> 2, three singleton components.
	adj := [][]int{{1}, {2}, nil}
	comp, ncomp := SCC(adj)
	if ncomp != 3 {
		t.Fatalf("ncomp = %d, want 3", ncomp)
	}
	// Reverse topological order: edge source component id > target's.
	if !(comp[0] > comp[1] && comp[1] > comp[2]) {
		t.Errorf("comp order = %v, want reverse topological", comp)
	}
}

func TestSCCCycle(t *testing.T) {
	// 0 <-> 1, 2 alone reachable from the cycle.
	adj := [][]int{{1}, {0, 2}, nil}
	comp, ncomp := SCC(adj)
	if ncomp != 2 {
		t.Fatalf("ncomp = %d, want 2", ncomp)
	}
	if comp[0] != comp[1] {
		t.Error("cycle nodes in different components")
	}
	if comp[2] == comp[0] {
		t.Error("node 2 merged into cycle")
	}
}

func TestSCCSelfLoopAndIsolated(t *testing.T) {
	adj := [][]int{{0}, nil}
	comp, ncomp := SCC(adj)
	if ncomp != 2 || comp[0] == comp[1] {
		t.Errorf("comp = %v ncomp = %d", comp, ncomp)
	}
}

func TestCanReach(t *testing.T) {
	// 0 -> 1 -> 2; 3 isolated. A node can reach the target set when a
	// BFS from the targets over the reverse graph finds it.
	adj := [][]int{{1}, {2}, nil, nil}
	reach := ReachableFrom(NewCSR(adj).Reverse(), []int{2}, nil)
	want := []bool{true, true, true, false}
	for i, w := range want {
		if reach[i] != w {
			t.Errorf("reach[%d] = %v, want %v", i, reach[i], w)
		}
	}
}

func TestStronglyConnected(t *testing.T) {
	if !StronglyConnected([][]int{{1}, {0}}) {
		t.Error("2-cycle not strongly connected")
	}
	if StronglyConnected([][]int{{1}, nil}) {
		t.Error("path reported strongly connected")
	}
	if StronglyConnected(nil) {
		t.Error("empty graph reported strongly connected")
	}
	if !StronglyConnected([][]int{nil}) {
		t.Error("single node not strongly connected")
	}
}

// Cross-check Tarjan against a brute-force mutual-reachability SCC on
// random graphs.
func TestSCCRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		adj := make([][]int, n)
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if rng.Float64() < 0.2 {
					adj[v] = append(adj[v], w)
				}
			}
		}
		comp, _ := SCC(adj)

		// Brute force: Floyd-Warshall style reachability.
		reach := make([][]bool, n)
		for v := range reach {
			reach[v] = make([]bool, n)
			reach[v][v] = true
			for _, w := range adj[v] {
				reach[v][w] = true
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				same := comp[i] == comp[j]
				mutual := reach[i][j] && reach[j][i]
				if same != mutual {
					t.Fatalf("trial %d: nodes %d,%d: same-comp=%v mutual=%v", trial, i, j, same, mutual)
				}
			}
		}
	}
}

// The reverse-topological numbering property on random DAG-ish graphs.
func TestSCCTopologicalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(15)
		adj := make([][]int, n)
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if rng.Float64() < 0.15 {
					adj[v] = append(adj[v], w)
				}
			}
		}
		comp, _ := SCC(adj)
		for v, ws := range adj {
			for _, w := range ws {
				if comp[v] != comp[w] && comp[v] < comp[w] {
					t.Fatalf("trial %d: edge %d->%d violates ordering (%d < %d)", trial, v, w, comp[v], comp[w])
				}
			}
		}
	}
}

// reverseLists returns the reversed adjacency lists, the plain oracle
// CSR.Reverse and ReverseInto are held to.
func reverseLists(adj [][]int) [][]int {
	out := make([][]int, len(adj))
	for v, ws := range adj {
		for _, w := range ws {
			out[w] = append(out[w], v)
		}
	}
	return out
}

func TestReverse(t *testing.T) {
	adj := [][]int{{1, 2}, {2}, nil}
	r := reverseLists(adj)
	if len(r[2]) != 2 || len(r[1]) != 1 || len(r[0]) != 0 {
		t.Errorf("reverseLists = %v", r)
	}
}

func TestCSRRoundTrip(t *testing.T) {
	adj := [][]int{{1, 2}, {2}, {0, 2}, {}}
	g := NewCSR(adj)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	for v, ws := range adj {
		succ := g.Succ(v)
		if len(succ) != len(ws) {
			t.Fatalf("Succ(%d) = %v, want %v", v, succ, ws)
		}
		for i, w := range ws {
			if int(succ[i]) != w {
				t.Fatalf("Succ(%d)[%d] = %d, want %d", v, i, succ[i], w)
			}
		}
	}
}

// ReverseInto carries its arrays from trial to trial, over graphs
// that grow and shrink, and must still equal reverseLists.
func TestCSRReverseMatchesReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused CSR
	var cursor []int32
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		adj := make([][]int, n)
		for v := range adj {
			for w := 0; w < n; w++ {
				if rng.Intn(3) == 0 {
					adj[v] = append(adj[v], w)
				}
			}
		}
		want := reverseLists(adj)
		reused, cursor = NewCSR(adj).ReverseInto(reused, cursor)
		for _, got := range []CSR{NewCSR(adj).Reverse(), reused} {
			if got.NumNodes() != n {
				t.Fatalf("reverse has %d nodes, want %d", got.NumNodes(), n)
			}
			for v := 0; v < n; v++ {
				succ := got.Succ(v)
				if len(succ) != len(want[v]) {
					t.Fatalf("reverse Succ(%d) = %v, want %v", v, succ, want[v])
				}
				// reverseLists emits sources in increasing v order,
				// which is exactly the counting-sort order of CSR.Reverse.
				for i := range succ {
					if int(succ[i]) != want[v][i] {
						t.Fatalf("reverse Succ(%d) = %v, want %v", v, succ, want[v])
					}
				}
			}
		}
	}
}

// ReachableFrom and ReachableFromInto, forward over a graph and
// backward over its reverse (which node can reach a seed), must agree
// with a naive transitive closure of the adjacency lists on random
// graphs, with buffers reused across graphs of different sizes.
func TestReachableFromMatchesCanReach(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf, intoBuf []bool
	var queue []int32
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		adj := make([][]int, n)
		for v := range adj {
			for w := 0; w < n; w++ {
				if rng.Intn(3) == 0 {
					adj[v] = append(adj[v], w)
				}
			}
		}
		var seeds []int
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				seeds = append(seeds, v)
			}
		}
		// path[u][v]: v is reachable from u by a word of length ≥ 0.
		path := make([][]bool, n)
		for u := range path {
			path[u] = make([]bool, n)
			path[u][u] = true
			for _, w := range adj[u] {
				path[u][w] = true
			}
		}
		for k := 0; k < n; k++ {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					path[u][v] = path[u][v] || path[u][k] && path[k][v]
				}
			}
		}
		g := NewCSR(adj)
		for _, dir := range []struct {
			name string
			g    CSR
			want func(s, v int) bool
		}{
			{"forward", g, func(s, v int) bool { return path[s][v] }},
			{"reverse", g.Reverse(), func(s, v int) bool { return path[v][s] }},
		} {
			buf = ReachableFrom(dir.g, seeds, buf)
			intoBuf, queue = ReachableFromInto(dir.g, seeds, intoBuf, queue)
			if len(buf) != n || len(intoBuf) != n {
				t.Fatalf("%s: results have %d and %d nodes, want %d", dir.name, len(buf), len(intoBuf), n)
			}
			for v := 0; v < n; v++ {
				want := false
				for _, s := range seeds {
					want = want || dir.want(s, v)
				}
				if buf[v] != want || intoBuf[v] != want {
					t.Fatalf("%s node %d: closure=%v ReachableFrom=%v ReachableFromInto=%v", dir.name, v, want, buf[v], intoBuf[v])
				}
			}
		}
	}
}
