package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure. Samples is how many measurements the
// value summarizes (operations for a latency, repeats for set-up time).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method), so spreads printed
// here match the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// latencyMs converts latencies to milliseconds.
func latencyMs(lats []time.Duration) []float64 {
	out := make([]float64, len(lats))
	for i, d := range lats {
		out[i] = ms(d)
	}
	return out
}

// heapSampler tracks the peak Go heap in use (live and not yet swept
// objects) by polling runtime/metrics every 2ms.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64 // since the last take
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			h.peak = max(h.peak, sample[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in MiB since the previous take and resets it.
func (h *heapSampler) take() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}
