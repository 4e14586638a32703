package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"multijoin/internal/relation"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks the output
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	t.Setenv("TMPDIR", t.TempDir())
	return config{workload: workload, seed: 1, seconds: time.Second, trace: trace, spans: t.TempDir(), setups: 1}
}

// TestWorkloadsShort runs every workload briefly in both modes: each must
// pass its correctness checks and print exactly the metrics BENCHMARK.json
// names, with their units.
func TestWorkloadsShort(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				res, err := run(shortConfig(t, w.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.errors)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				report := strings.Join(res.lines, "\n")
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
					if !strings.Contains(report, m.Name+" ") {
						t.Errorf("metric %s missing from the human-readable report", m.Name)
					}
				}
				if trace {
					if _, err := os.Stat(res.spans); err != nil {
						t.Errorf("span dump: %v", err)
					}
				}
			})
		}
	}
}

// TestDroppedTupleFails drops one tuple from every result's fingerprint:
// each workload must report that as a failure, not a pass.
func TestDroppedTupleFails(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(t, name, false)
			cfg.dropTuple = true
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("a short result passed: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

func TestFingerprint(t *testing.T) {
	ts := []relation.Tuple{{Unique1: 1, Unique2: 2, Check: 3}, {Unique1: 4, Unique2: 5, Check: 6}, {Unique1: 1, Unique2: 2, Check: 3}}
	var a, b fingerprint
	a.addAll(ts)
	for i := len(ts) - 1; i >= 0; i-- {
		b.add(ts[i])
	}
	if a != b {
		t.Fatalf("order changed the fingerprint: %v vs %v", a, b)
	}
	var short fingerprint
	short.addAll(ts[1:])
	if short.check(a, "dropped") == nil {
		t.Fatal("a result missing one duplicate tuple passed")
	}
	var swapped fingerprint
	swapped.addAll([]relation.Tuple{ts[0], {Unique1: 4, Unique2: 5, Check: 7}, ts[2]})
	if swapped.check(a, "changed check") == nil {
		t.Fatal("a result with a wrong provenance checksum passed")
	}
	if got := short.plus(a.minus(short)); got != a {
		t.Fatalf("plus/minus do not invert: %v vs %v", got, a)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.id()
	tr.record(tr.id(), root, 1, "core.first_row", at(2), at(5))
	tr.record(tr.id(), root, 1, "core.drain", at(4), at(8)) // overlaps first_row by 1 ms
	tr.record(root, 0, 1, "loadgen.query", at(0), at(10))
	self := tr.selfTimes()
	if self["loadgen"] != 4*time.Millisecond || self["core"] != 7*time.Millisecond {
		t.Fatalf("self times %v, want loadgen 4ms and core 7ms", self)
	}
}
