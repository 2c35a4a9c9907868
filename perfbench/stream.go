package main

import "math/rand/v2"

// blockStream is a seeded job stream over a fixed mix of classes. The
// stream is cut into blocks that hold each class exactly its weight
// times, shuffled per block, so every seed runs the same mix and only
// the order (and the parameters drawn by opRand) differ. That keeps
// throughput comparable across seeds.
type blockStream struct {
	seed  int64
	block []int
}

func newBlockStream(seed int64, weights []int) *blockStream {
	b := &blockStream{seed: seed}
	for class, w := range weights {
		for i := 0; i < w; i++ {
			b.block = append(b.block, class)
		}
	}
	return b
}

// at returns the class of operation seq.
func (b *blockStream) at(seq int64) int {
	n := int64(len(b.block))
	perm := rand.New(rand.NewPCG(uint64(b.seed), uint64(seq/n))).Perm(int(n))
	return b.block[perm[seq%n]]
}

// opRand is the generator for operation seq's own parameters.
func opRand(seed, seq int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed)^0x9e3779b97f4a7c15, uint64(seq)))
}
