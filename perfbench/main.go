// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed against the system's public Go APIs (core.Engine,
// serve.Server/serve.Client, core.View), checks every result against the
// sequential reference, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Human-readable lines above it repeat every metric with its unit and the
// number of samples behind it. A wrong result makes the command exit 1.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
//
// WORKLOADS.md gives the rationale for each workload and the known defects
// the workloads deliberately stay away from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps a workload name to its set-up function. Set-up returns
// the instance and its warm-up's checked outcome; an error means the
// system could not be set up at all.
var workloads = map[string]func(cfg config) (instance, *phase, error){
	"fabric": setupFabric,
	"bulk":   setupBulk,
	"served": setupServed,
	"views":  setupViews,
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spans    string // directory the traced run writes its spans to
	setups   int    // set-up repetitions behind setup_s

	// dropTuple drops the first tuple of every result from its fingerprint
	// — the benchmark's own test uses it to prove a short result fails.
	dropTuple bool
}

// instance is one set-up workload: the measured phase runs against it.
type instance interface {
	// run drives the workload for d and returns what it measured; tr is
	// nil on untraced runs.
	run(d time.Duration, tr *tracer) *phase
	// replay times the public kernel calls on the workload's own
	// relations, fragmented to its processor count (traced runs only).
	replay(ph *phase) error
	// close tears the system down and reports a leak or a failed final
	// check as an error.
	close() error
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for data, mix order, cancellations and delta rounds")
	seconds := flag.Int("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.setups = minSetups
	cfg.trace = *trace == 1

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the printed outcome of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines  []string // human-readable report, printed above the JSON line
	errors []string // first failures, printed to standard error
	spans  string   // where a traced run wrote its spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Untraced runs repeat set-up at least minSetups times and, for quick
// set-ups, until minSetupTotal has passed (at most maxSetups times), so the
// median behind setup_s rests on enough repetitions to be steady. (The
// benchmark's own test sets config.setups lower, to stay short.)
const (
	minSetups     = 3
	minSetupTotal = time.Second
	maxSetups     = 15
)

// run sets the workload up (several times on untraced runs, keeping the
// last instance), measures it and tears it down.
func run(cfg config) (*result, error) {
	setup := workloads[cfg.workload]
	reps := cfg.setups
	if cfg.trace {
		reps = 1
	}
	var inst instance
	setupOutcome := newPhase() // every set-up's warm-up and teardown checks
	var setupTimes samples
	var total time.Duration
	for i := 0; i < reps || (!cfg.trace && total < minSetupTotal && i < maxSetups); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				setupOutcome.fail(fmt.Errorf("set-up %d teardown: %w", i, err))
			}
		}
		t0 := time.Now()
		next, warm, err := setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		d := time.Since(t0)
		setupTimes.addDur(d)
		total += d
		inst = next
		setupOutcome.merge(warm)
	}

	var ph *phase
	var spans string
	if cfg.trace {
		// The window runs in quarters, untraced and traced in turn: the
		// throughput ratio of the two halves is the tracing overhead, and
		// every per-layer figure comes from the traced quarters.
		quarter := cfg.seconds / 4
		plain, tr := newPhase(), newTracer()
		ph = newPhase()
		for i := 0; i < 4; i++ {
			// The runtime sampler's polling goroutine speeds the system up
			// measurably on a mostly idle host (it keeps a thread awake),
			// so it runs in the untraced quarters too.
			sampler := startRuntimeSampler()
			if i%2 == 0 {
				plain.add(inst.run(quarter, nil))
				sampler.stop()
				continue
			}
			w := inst.run(quarter, tr)
			w.runtime = sampler.stop()
			ph.add(w)
		}
		ph.merge(plain)
		if plain.opsPerSec() > 0 {
			ph.val["trace.overhead_frac"] = 1 - ph.opsPerSec()/plain.opsPerSec()
		}
		if err := inst.replay(ph); err != nil {
			ph.fail(fmt.Errorf("kernel replay: %w", err))
		}
		var err error
		if spans, err = tr.write(cfg.spans, cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
		ph.selfTimes = tr.selfTimes()
	} else {
		ph = inst.run(cfg.seconds, nil)
	}
	if err := inst.close(); err != nil {
		ph.fail(err)
	}
	ph.merge(setupOutcome)

	res := &result{Metrics: map[string]metric{}, spans: spans}
	ph.report(res, cfg.trace, setupTimes)
	if spans != "" {
		res.lines = append(res.lines, "spans written to "+spans)
	}
	res.Correct = ph.failed == 0
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if ph.ops < 1 {
		res.Correct = false
		res.errors = append(res.errors, "no operation completed in the measured window")
	}
	res.errors = append(res.errors, ph.errs...)
	return res, nil
}

// write prints the human-readable report and then the JSON line.
func (r *result) write(w io.Writer) error {
	for _, e := range r.errors {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	for _, l := range r.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
