package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the public API call. Spans of one operation share op; parent is
// the id of the enclosing span (0 at the root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"` // layer.call, e.g. core.query
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only the nil checks.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent's end is known.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(max(0, self))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// write dumps the spans as JSON lines to dir/<workload>-seed<seed>.jsonl
// and returns that path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// runtimeDelta is what the Go runtime reported over a traced window.
type runtimeDelta struct {
	allocBytes     float64
	gcCPU          float64 // seconds
	totalCPU       float64 // seconds
	mutexWaitS     float64
	schedMeanUs    float64
	schedCount     uint64
	goroutinesPeak float64
	polls          int
}

// add folds the deltas of another window into d.
func (d *runtimeDelta) add(o runtimeDelta) {
	n := d.schedCount + o.schedCount
	d.schedMeanUs = div(d.schedMeanUs*float64(d.schedCount)+o.schedMeanUs*float64(o.schedCount), float64(n))
	d.schedCount = n
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	d.mutexWaitS += o.mutexWaitS
	d.goroutinesPeak = max(d.goroutinesPeak, o.goroutinesPeak)
	d.polls += o.polls
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// runtimeSampler snapshots the runtime metrics at the start of a window
// and polls the goroutine count for its peak until stopped.
type runtimeSampler struct {
	before []metrics.Sample
	quit   chan struct{}
	done   chan struct{}
	peak   float64
	polls  int
}

// goroutinePoll is how often the goroutine count is sampled for its peak.
const goroutinePoll = 5 * time.Millisecond

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{before: readRuntime(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rs.done)
		g := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		tick := time.NewTicker(goroutinePoll)
		defer tick.Stop()
		for {
			metrics.Read(g)
			rs.peak = max(rs.peak, float64(g[0].Value.Uint64()))
			rs.polls++
			select {
			case <-rs.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return rs
}

// stop ends the window and returns the deltas over it.
func (rs *runtimeSampler) stop() runtimeDelta {
	close(rs.quit)
	<-rs.done
	after := readRuntime()
	f := func(i int) float64 {
		if after[i].Value.Kind() == metrics.KindUint64 {
			return float64(after[i].Value.Uint64() - rs.before[i].Value.Uint64())
		}
		return after[i].Value.Float64() - rs.before[i].Value.Float64()
	}
	d := runtimeDelta{allocBytes: f(0), gcCPU: f(1), totalCPU: f(2), mutexWaitS: f(3),
		goroutinesPeak: rs.peak, polls: rs.polls}
	d.schedMeanUs, d.schedCount = histMean(rs.before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram())
	return d
}

// histMean is the mean of the samples added to a runtime histogram between
// two reads, each taken at its bucket's midpoint (the finite edge for the
// open-ended buckets), in microseconds.
func histMean(before, after *metrics.Float64Histogram) (float64, uint64) {
	var n uint64
	var sum float64
	for i := range after.Counts {
		c := after.Counts[i] - before.Counts[i]
		if c == 0 {
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		n += c
		sum += float64(c) * mid
	}
	return div(sum, float64(n)) * 1e6, n
}
