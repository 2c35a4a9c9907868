package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The machines this benchmark runs on are shared, and their speed
// swings by up to 2x over seconds to minutes with the neighbours' load:
// even the fastest second of a run can be 50% slower than that of the
// next run. Raw wall-clock figures would mostly measure the neighbours.
// So every measurement window is bracketed by a fixed reference kernel,
// and each window's times are scaled by refNominal over the kernel's
// time around it: the reported times are those of a machine on which
// the kernel takes refNominal, and a change to the program moves them
// while a change in the machine's load largely cancels.
//
// The disk is shared as well, and the kernel cannot see it: a serve
// miss spends most of its time in the store's fsynced publish, which
// doubled between runs minutes apart. So each bracket also times a
// reference publish of the store's shape, and the part of an
// operation spent in the store's durable publish operations (write and
// fsync, rename, directory fsync) is scaled by diskNominal over that
// instead. Other file operations hit the page cache and scale with the
// CPU.

// refNominal is the reference kernel's typical time on the 2-vCPU
// 2.1 GHz Xeon VM the bounds were set on.
const refNominal = time.Millisecond

// diskNominal is the reference publish's typical time on that VM's
// virtio disk.
const diskNominal = 300 * time.Microsecond

// refKernel is the fixed reference work, shaped like the benchmark's
// own inner loops: build and probe a hash map and sort an array, both
// sized to sit in L2. It runs on one goroutine. On that VM a kernel run
// on every CPU at once, or one making random reads over a table far
// larger than the caches, tracked the workloads worse: it saw a busy
// neighbour on the other vCPU as a 2x slowdown while the workloads
// slowed by 0-10%, and it flipped between two speeds from run to run.
// Over six runs per workload this kernel left the least spread (a
// quartile spread of 2.5-6% of the median, where the unscaled figures
// had 6-12%), and it moved two more runs with a CPU hog beside them by
// 10% at most.
type refKernel struct {
	keys   []uint64
	sorted []uint64
	set    map[uint64]uint32
	dir    string // where the reference publish writes
	err    error  // the first failed reference publish
}

const refSize = 1 << 13

func newRefKernel(dir string) (*refKernel, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reference publish: %w", err)
	}
	k := &refKernel{keys: make([]uint64, refSize), sorted: make([]uint64, refSize), set: make(map[uint64]uint32, refSize), dir: dir}
	x := uint64(0x9e3779b97f4a7c15)
	for j := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[j] = x
	}
	return k, nil
}

// close removes the reference publish's directory and reports the
// first failed reference publish.
func (k *refKernel) close() error {
	if err := os.RemoveAll(k.dir); err != nil && k.err == nil {
		k.err = err
	}
	return k.err
}

// run times one pass of the kernel.
func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	clear(k.set)
	for i, key := range k.keys {
		k.set[key] = uint32(i)
	}
	var sum uint32
	for _, key := range k.keys {
		sum += k.set[key]
	}
	copy(k.sorted, k.keys)
	slices.Sort(k.sorted)
	if sum == 0 || k.sorted[0] > k.sorted[refSize-1] {
		panic("perfbench: reference kernel miscomputed")
	}
	return time.Since(t0)
}

// refTime is one bracket: the kernel's and the reference publish's time.
type refTime struct{ cpu, disk time.Duration }

// time returns the median of three kernel passes and of five reference
// publishes. It first lets the program go quiet: an untimed runtime.GC
// returns only once the collection and its sweep are done, so a cycle
// the measured work started cannot slow the kernel, which would make a
// program that allocates more look faster after scaling.
func (k *refKernel) time() refTime {
	runtime.GC()
	a, b, c := k.run(), k.run(), k.run()
	var ds [5]time.Duration
	for i := range ds {
		ds[i] = k.publish()
	}
	slices.Sort(ds[:])
	return refTime{max(min(a, b), min(max(a, b), c)), ds[2]}
}

// publish times one reference publish as the store makes them: write
// and fsync a 4 KiB temp file, rename it into place, fsync the
// directory.
func (k *refKernel) publish() time.Duration {
	t0 := time.Now()
	err := func() error {
		tmp, dst := filepath.Join(k.dir, "ref.tmp"), filepath.Join(k.dir, "ref.json")
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		_, err = f.Write(make([]byte, 4096))
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, dst)
		}
		if err != nil {
			return err
		}
		d, err := os.Open(k.dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	}()
	if err != nil && k.err == nil {
		k.err = fmt.Errorf("reference publish: %w", err)
	}
	return time.Since(t0)
}

// scales returns the CPU and disk scale factors of a bracket.
func scales(before, after refTime) (f, g float64) {
	return float64(2*refNominal) / float64(before.cpu+after.cpu),
		float64(2*diskNominal) / float64(before.disk+after.disk)
}

// scale scales a span of which io was spent in durable publishes.
func scale(d, io time.Duration, f, g float64) time.Duration {
	io = min(io, d)
	return time.Duration(float64(d-io)*f + float64(io)*g)
}

// phase is one measured phase of a run.
type phase struct {
	ops []opResult // latencies already scaled to the reference speed
	// raw holds the same latencies unscaled, in the same order.
	raw []time.Duration
	// scaled and wall are the phase's time over its windows, scaled
	// and as measured.
	scaled, wall time.Duration
	// factors is each window's CPU scale factor (refNominal / kernel
	// time), diskFactors its disk one (diskNominal / publish time).
	factors, diskFactors []float64
	// heapMB is each window's peak heap in use.
	heapMB []float64
}

// measure runs w in windows of w.window() operations for about d,
// timing the reference kernel between windows and scaling each
// window's times by it, and records each window's peak heap. Sequence
// numbers come from seq, so that consecutive phases of one run
// continue one input stream.
func measure(w workload, d time.Duration, seq *atomic.Int64, tr *tracer, ref *refKernel) phase {
	heap := startHeapSampler()
	defer heap.close()
	n := w.window()
	var ph phase
	before := ref.time()
	deadline := time.Now().Add(d)
	for len(ph.factors) == 0 || time.Now().Before(deadline) {
		first := seq.Add(n) - n
		t0 := time.Now()
		heap.take()
		ops := runOps(w, first, n, tr)
		wall := time.Since(t0)
		ph.heapMB = append(ph.heapMB, heap.take())
		after := ref.time()
		f, g := scales(before, after)
		var busy, scaledBusy time.Duration
		for i := range ops {
			ph.raw = append(ph.raw, ops[i].lat)
			busy += ops[i].lat
			ops[i].lat = scale(ops[i].lat, ops[i].io, f, g)
			scaledBusy += ops[i].lat
		}
		ph.ops = append(ph.ops, ops...)
		ph.wall += wall
		// The window's wall time scales as its operations' time does.
		ph.scaled += time.Duration(float64(wall) * float64(scaledBusy) / float64(max(busy, 1)))
		ph.factors = append(ph.factors, f)
		ph.diskFactors = append(ph.diskFactors, g)
		before = after
	}
	return ph
}

// meanFactor is the mean of a phase's window scale factors.
func (ph phase) meanFactor() float64 {
	var sum float64
	for _, f := range ph.factors {
		sum += f
	}
	return sum / float64(len(ph.factors))
}

// runOps runs operations first..first+n-1 on w's clients in a closed
// loop: each client starts its next operation when its previous one
// returns.
func runOps(w workload, first, n int64, tr *tracer) []opResult {
	var next atomic.Int64
	next.Store(first)
	var mu sync.Mutex
	var ops []opResult
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []opResult
			for s := next.Add(1) - 1; s < first+n; s = next.Add(1) - 1 {
				mine = append(mine, w.op(c, s, tr))
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return ops
}
