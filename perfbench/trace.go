package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around a public entry point of the layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Job    int64  `json:"job"`    // job or request id; spans of one job share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// N is the work the call did, in the span's own unit (closure
	// nodes, interactions, bytes, probe iterations).
	N int64 `json:"n,omitempty"`
	// Key ties a serve request to the store operations it caused.
	Key string `json:"key,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(job int64, parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start})
	t.mu.Unlock()
	return id
}

// end closes span id, records its work count and returns its duration.
func (t *tracer) end(id int32, n int64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.N = end, n
	d := s.dur()
	t.mu.Unlock()
	return d
}

// record adds an already-timed span (store operations timed inside the
// daemon, attributed to their request afterwards).
func (t *tracer) record(name, key string, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Job: -1, Name: name, Key: key,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), N: n,
	})
	t.mu.Unlock()
}

// setKey labels a span with a cache key once the key is known.
func (t *tracer) setKey(id int32, key string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Key = key
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed by span id - 1.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanSum aggregates the spans of one name.
type spanSum struct {
	count int
	total time.Duration
	self  time.Duration
	n     int64
}

func (a spanSum) meanMs() float64 { return ms(a.total) / float64(max(a.count, 1)) }
func (a spanSum) meanUs() float64 { return a.meanMs() * 1e3 }

// summarize aggregates spans by name.
func summarize(spans []span) map[string]spanSum {
	self := selfTimes(spans)
	out := make(map[string]spanSum)
	for i, s := range spans {
		a := out[s.Name]
		a.count++
		a.total += s.dur()
		a.self += self[i]
		a.n += s.N
		out[s.Name] = a
	}
	return out
}

// perItem is a span's time per unit of work, in ns.
func perItem(sums map[string]spanSum, name string) metric {
	a := sums[name]
	return metric{float64(a.total) / float64(max(a.n, 1)), "ns", int(a.n)}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
