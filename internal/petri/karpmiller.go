package petri

import (
	"errors"
	"math"
	"strconv"

	"repro/internal/conf"
)

// Omega is the ω value of extended markings in the Karp–Miller tree: a
// place that can be pumped beyond any bound.
const Omega = int64(math.MaxInt64)

// ExtMarking is a marking over ℕ ∪ {ω}, represented densely; Omega
// encodes ω.
type ExtMarking []int64

// NewExtMarking converts a configuration to an extended marking.
func NewExtMarking(c conf.Config) ExtMarking {
	m := make(ExtMarking, c.Space().Len())
	for i := range m {
		m[i] = c.Get(i)
	}
	return m
}

// Leq reports componentwise order, with ω ≥ everything.
func (m ExtMarking) Leq(o ExtMarking) bool {
	for i, v := range m {
		if v == Omega && o[i] != Omega {
			return false
		}
		if v != Omega && o[i] != Omega && v > o[i] {
			return false
		}
	}
	return true
}

// Equal reports componentwise equality.
func (m ExtMarking) Equal(o ExtMarking) bool {
	for i, v := range m {
		if v != o[i] {
			return false
		}
	}
	return true
}

// HasOmega reports whether any component is ω.
func (m ExtMarking) HasOmega() bool {
	for _, v := range m {
		if v == Omega {
			return true
		}
	}
	return false
}

// OmegaPlaces returns the indices of ω components.
func (m ExtMarking) OmegaPlaces() []int {
	var out []int
	for i, v := range m {
		if v == Omega {
			out = append(out, i)
		}
	}
	return out
}

// extFireInto attempts to fire transition ti on the src extended
// marking into the dst scratch buffer (ω absorbs all arithmetic),
// reporting enabledness. It is the ω-aware sibling of Index.FireInto:
// same sparse precondition check and sparse displacement, no
// allocation.
func extFireInto(idx *Index, ti int, src, dst []int64) bool {
	for _, e := range idx.Pre(ti) {
		if src[e.State] != Omega && src[e.State] < e.N {
			return false
		}
	}
	copy(dst, src)
	for _, e := range idx.Delta(ti) {
		if dst[e.State] != Omega {
			dst[e.State] += e.N
		}
	}
	return true
}

// KMNode is a node of the Karp–Miller tree.
type KMNode struct {
	Marking ExtMarking
	Parent  int // −1 at the root
}

// KMTree is a Karp–Miller coverability tree.
type KMTree struct {
	net   *Net
	Nodes []KMNode
}

// KarpMiller builds the Karp–Miller tree from the given configuration,
// in its "set" variant: a firing that lands on a marking already in the
// tree is neither expanded nor kept, which is sound for boundedness and
// coverability-set computation. Budget.MaxConfigs caps the number of
// distinct markings defensively; the algorithm itself always
// terminates.
//
// Markings are deduplicated through the same arena-backed integer-hash
// set as the reachability closure (no string keys); node id equals
// arena id equals BFS order, and firing/acceleration run in a scratch
// buffer.
func (n *Net) KarpMiller(from conf.Config, budget Budget) (*KMTree, error) {
	if !from.Space().Equal(n.space) {
		return nil, errors.New("petri: initial configuration over wrong space")
	}
	maxNodes := budget.maxConfigs()
	d := n.space.Len()
	idx := n.Index()
	seen := conf.NewCountSet(d, 16)
	scratch := make([]int64, d)

	tree := &KMTree{net: n}
	rootID, _ := seen.Insert(NewExtMarking(from))
	tree.Nodes = append(tree.Nodes, KMNode{Marking: ExtMarking(seen.At(rootID)), Parent: -1})

	for head := 0; head < len(tree.Nodes); head++ {
		cur := tree.Nodes[head].Marking
		for ti := 0; ti < len(n.trans); ti++ {
			if !extFireInto(idx, ti, cur, scratch) {
				continue
			}
			// Acceleration: for every strictly dominated ancestor,
			// promote strictly increased places to ω.
			next := ExtMarking(scratch)
			for anc := head; anc >= 0; anc = tree.Nodes[anc].Parent {
				am := tree.Nodes[anc].Marking
				if am.Leq(next) && !am.Equal(next) {
					for i := range next {
						if next[i] != Omega && am[i] != Omega && next[i] > am[i] {
							next[i] = Omega
						}
					}
				}
			}
			sid, added, full := seen.InsertCapped(next, conf.HashCounts(next), maxNodes)
			if full {
				return nil, errBudget("karp-miller", seen.Len())
			}
			if added {
				tree.Nodes = append(tree.Nodes, KMNode{Marking: ExtMarking(seen.At(sid)), Parent: head})
			}
		}
	}
	return tree, nil
}

// Bounded reports whether the reachability set from the tree's root is
// finite (no ω in any node).
func (t *KMTree) Bounded() bool {
	for _, n := range t.Nodes {
		if n.Marking.HasOmega() {
			return false
		}
	}
	return true
}

// Covers reports whether some node of the tree covers the target
// configuration (with ω covering everything). By the Karp–Miller
// theorem this decides coverability.
func (t *KMTree) Covers(target conf.Config) bool {
	tm := NewExtMarking(target)
	for _, n := range t.Nodes {
		if tm.Leq(n.Marking) {
			return true
		}
	}
	return false
}

// PumpableSets returns the distinct ω-place sets occurring in the tree,
// each as a sorted index slice. These are the candidate P∖Q sets of the
// bottom-configuration analysis (Section 6).
func (t *KMTree) PumpableSets() [][]int {
	seen := make(map[string]bool)
	var out [][]int
	for _, n := range t.Nodes {
		om := n.Marking.OmegaPlaces()
		if len(om) == 0 {
			continue
		}
		key := ""
		for _, i := range om {
			key += strconv.Itoa(i) + ","
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, om)
		}
	}
	return out
}
