package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// samples is a set of measurements in one unit (milliseconds for times).
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { s.add(d.Seconds()) }
func (s *samples) addMs(d time.Duration)  { s.add(float64(d) / float64(time.Millisecond)) }
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	// Nearest rank: the smallest value with at least p of the samples at
	// or below it.
	i := int(math.Ceil(p*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

// phase is what one measured window recorded. Workloads running several
// goroutines record through the locked methods.
type phase struct {
	mu sync.Mutex

	elapsed   time.Duration // the window operations per second are taken over
	ops       int64         // completed operations (queries, or view reads)
	attempted int64
	failed    int64
	cancelled int64 // queries the generator cancelled on purpose; not failures
	errs      []string

	queries samples            // end-to-end operation latency, ms
	lat     map[string]samples // per-layer distributions
	sum     map[string]float64 // per-layer counters
	val     map[string]float64 // per-layer values measured once (replays, set-up)

	runtime   runtimeDelta
	selfTimes map[string]time.Duration // span self time per layer
}

func newPhase() *phase {
	return &phase{lat: map[string]samples{}, sum: map[string]float64{}, val: map[string]float64{}}
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 5

// attempt counts one attempted operation.
func (ph *phase) attempt() {
	ph.mu.Lock()
	ph.attempted++
	ph.mu.Unlock()
}

// fail counts one failed operation.
func (ph *phase) fail(err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed++
	if len(ph.errs) < maxErrs {
		ph.errs = append(ph.errs, err.Error())
	}
}

func (ph *phase) observe(name string, v float64) {
	ph.mu.Lock()
	ph.lat[name] = append(ph.lat[name], v)
	ph.mu.Unlock()
}

// complete counts one completed operation and its end-to-end latency.
func (ph *phase) complete(lat time.Duration) {
	ph.mu.Lock()
	ph.ops++
	ph.queries.addMs(lat)
	ph.mu.Unlock()
}

func (ph *phase) cancel() {
	ph.mu.Lock()
	ph.cancelled++
	ph.mu.Unlock()
}

func (ph *phase) count(name string, v float64) {
	ph.mu.Lock()
	ph.sum[name] += v
	ph.mu.Unlock()
}

// merge folds another window's outcome counts into ph, so a traced run's
// correctness covers its untraced half too.
func (ph *phase) merge(o *phase) {
	ph.attempted += o.attempted
	ph.failed += o.failed
	ph.cancelled += o.cancelled
	for _, e := range o.errs {
		if len(ph.errs) < maxErrs {
			ph.errs = append(ph.errs, e)
		}
	}
}

// add appends another window of the same run to ph: its outcomes, its
// samples and counters, and its runtime deltas.
func (ph *phase) add(o *phase) {
	ph.merge(o)
	ph.ops += o.ops
	ph.elapsed += o.elapsed
	ph.queries = append(ph.queries, o.queries...)
	for k, v := range o.lat {
		ph.lat[k] = append(ph.lat[k], v...)
	}
	for k, v := range o.sum {
		ph.sum[k] += v
	}
	for k, v := range o.val {
		ph.val[k] = v
	}
	ph.runtime.add(o.runtime)
}

func (ph *phase) opsPerSec() float64 { return div(float64(ph.ops), ph.elapsed.Seconds()) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eMetrics are the end-to-end metrics of an untraced run, in print order;
// every workload reports all of them.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// layerMetric is one per-layer metric of a traced run. A layer the
// workload does not drive reads 0.
type layerMetric struct {
	name, unit string
	get        func(ph *phase) (v float64, n int)
}

// p returns a getter for percentile q of distribution name.
func p(name string, q float64) func(*phase) (float64, int) {
	return func(ph *phase) (float64, int) {
		s := ph.lat[name]
		return s.percentile(q), len(s)
	}
}

// ratio returns a getter for counter a divided by counter b.
func ratio(a, b string) func(*phase) (float64, int) {
	return func(ph *phase) (float64, int) {
		return div(ph.sum[a], ph.sum[b]), int(ph.sum[b])
	}
}

// value returns a getter for a value measured once.
func value(name string) func(*phase) (float64, int) {
	return func(ph *phase) (float64, int) { return ph.val[name], 1 }
}

// selfPerOp returns a getter for a layer's span self time per operation.
func selfPerOp(layer string) func(*phase) (float64, int) {
	return func(ph *phase) (float64, int) {
		ms := float64(ph.selfTimes[layer]) / float64(time.Millisecond)
		return div(ms, float64(ph.ops)), int(ph.ops)
	}
}

var layerMetrics = []layerMetric{
	{"core.query_call_ms", "ms", p("core.query_call", 0.5)},
	{"core.queue_wait_ms", "ms", p("core.queue_wait", 0.9)},
	{"core.first_row_ms", "ms", p("core.first_row", 0.5)},
	{"core.drain_ms", "ms", p("core.drain", 0.5)},
	{"core.close_ms", "ms", p("core.close", 0.5)},
	{"core.plan_cache_hit_ratio", "ratio", ratio("core.plan_hits", "core.plan_lookups")},
	{"core.est_over_actual", "ratio", p("core.est_over_actual", 0.5)},
	{"core.self_ms_per_op", "ms", selfPerOp("core")},
	{"strategy.plan_ms", "ms", value("strategy.plan_ms")},
	{"parallel.processes_per_query", "count", ratio("parallel.processes", "stats.queries")},
	{"parallel.streams_per_query", "count", ratio("parallel.streams", "stats.queries")},
	{"parallel.goroutines_per_query", "count", ratio("parallel.goroutines", "stats.queries")},
	{"parallel.batches_per_query", "count", ratio("parallel.batches", "stats.queries")},
	{"parallel.tuples_per_batch", "count", ratio("relation.tuples_moved", "parallel.batches")},
	{"relation.tuples_moved_per_query", "count", ratio("relation.tuples_moved", "stats.queries")},
	{"relation.fragment_ns_per_tuple", "ns", value("relation.fragment_ns_per_tuple")},
	{"relation.encode_ns_per_tuple", "ns", value("relation.encode_ns_per_tuple")},
	{"relation.decode_ns_per_tuple", "ns", value("relation.decode_ns_per_tuple")},
	{"hashjoin.insert_ns_per_tuple", "ns", value("hashjoin.insert_ns_per_tuple")},
	{"hashjoin.probe_ns_per_tuple", "ns", value("hashjoin.probe_ns_per_tuple")},
	{"hashjoin.delete_ns_per_tuple", "ns", value("hashjoin.delete_ns_per_tuple")},
	{"spill.bytes_per_query", "B", ratio("spill.bytes", "spill.queries")},
	{"spill.files_per_query", "count", ratio("spill.files", "spill.queries")},
	{"spill.io_ms_per_query", "ms", ratio("spill.io_ms", "spill.queries")},
	{"serve.first_block_ms", "ms", p("serve.first_block", 0.5)},
	{"serve.overhead_ms", "ms", p("serve.overhead", 0.5)},
	{"serve.cancel_ms", "ms", p("serve.cancel", 0.9)},
	{"serve.self_ms_per_op", "ms", selfPerOp("serve")},
	{"ivm.populate_ms", "ms", value("ivm.populate_ms")},
	{"ivm.resident_mib", "MiB", value("ivm.resident_mib")},
	{"ivm.changes_per_round", "count", p("ivm.changes", 0.5)},
	{"ivm.refresh_p50_ms", "ms", p("ivm.refresh", 0.5)},
	{"ivm.refresh_p99_ms", "ms", p("ivm.refresh", 0.99)},
	{"ivm.refreshes_per_s", "1/s", func(ph *phase) (float64, int) {
		return div(ph.sum["ivm.rounds"], ph.sum["ivm.writer_s"]), int(ph.sum["ivm.rounds"])
	}},
	{"ivm.self_ms_per_op", "ms", selfPerOp("ivm")},
	{"go.alloc_mib_per_op", "MiB", func(ph *phase) (float64, int) {
		return div(ph.runtime.allocBytes/(1<<20), float64(ph.ops)), int(ph.ops)
	}},
	{"go.gc_cpu_frac", "ratio", func(ph *phase) (float64, int) {
		return div(ph.runtime.gcCPU, ph.runtime.totalCPU), 1
	}},
	{"go.sched_latency_mean_us", "us", func(ph *phase) (float64, int) {
		return ph.runtime.schedMeanUs, int(ph.runtime.schedCount)
	}},
	{"go.mutex_wait_ms_per_op", "ms", func(ph *phase) (float64, int) {
		return div(ph.runtime.mutexWaitS*1e3, float64(ph.ops)), int(ph.ops)
	}},
	{"go.goroutines_peak", "count", func(ph *phase) (float64, int) {
		return ph.runtime.goroutinesPeak, ph.runtime.polls
	}},
	{"trace.overhead_frac", "ratio", value("trace.overhead_frac")},
}

// report fills res with the run's metrics and the human-readable lines.
func (ph *phase) report(res *result, traced bool, setup samples) {
	line := func(name string, v float64, unit string, n int) {
		res.lines = append(res.lines, fmt.Sprintf("%-34s %14.4f %-6s n=%d", name, v, unit, n))
	}
	if traced {
		for _, m := range layerMetrics {
			v, n := m.get(ph)
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
			line(m.name, v, m.unit, n)
		}
		return
	}
	e2e := map[string]float64{
		"setup_s":       setup.percentile(0.5),
		"query_p50_ms":  ph.queries.percentile(0.5),
		"query_p90_ms":  ph.queries.percentile(0.9),
		"queries_per_s": ph.opsPerSec(),
		"peak_rss_mib":  peakRSSMiB(),
	}
	counts := map[string]int{"setup_s": len(setup), "query_p50_ms": len(ph.queries),
		"query_p90_ms": len(ph.queries), "queries_per_s": int(ph.ops), "peak_rss_mib": 1}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		line(m.name, e2e[m.name], m.unit, counts[m.name])
	}
	// Reported for reading only: failures are the JSON line's failed
	// count, and the refresh figures of views are per-layer metrics.
	line("failed_frac", div(float64(ph.failed), float64(ph.attempted)), "ratio", int(ph.attempted))
	for k, v := range ph.lat {
		if strings.HasPrefix(k, "kind.") {
			line(k+" p50", v.percentile(0.5), "ms", len(v))
			line(k+" p90", v.percentile(0.9), "ms", len(v))
		}
	}
	line("cancelled", float64(ph.cancelled), "count", int(ph.cancelled))
	if r := ph.lat["ivm.refresh"]; len(r) > 0 {
		line("refresh_p50_ms", r.percentile(0.5), "ms", len(r))
		line("refresh_p99_ms", r.percentile(0.99), "ms", len(r))
		line("refreshes_per_s", div(ph.sum["ivm.rounds"], ph.sum["ivm.writer_s"]), "1/s", len(r))
	}
}
