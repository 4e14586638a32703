package parallel_test

import (
	"fmt"
	"testing"

	"multijoin/internal/core"
	"multijoin/internal/jointree"
	"multijoin/internal/parallel"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
	"multijoin/internal/xra"
)

// testDB returns a small deterministic chain database (seed-pinned so every
// run, including CI's -race runs, sees identical data).
func testDB(t testing.TB, relations, card int) *wisconsin.Database {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func planFor(t testing.TB, db *wisconsin.Database, tree *jointree.Node, kind strategy.Kind, procs int) *core.Query {
	t.Helper()
	return &core.Query{DB: db, Tree: tree, Strategy: kind, Procs: procs}
}

// TestResultEquivalence checks the acceptance criterion: the goroutine
// runtime returns the identical result multiset as the sequential reference
// (and therefore as the simulator, which is verified against the same
// reference elsewhere) for all four strategies on linear and wide-bushy
// trees.
func TestResultEquivalence(t *testing.T) {
	db := testDB(t, 6, 400)
	shapes := []jointree.Shape{jointree.LeftLinear, jointree.RightLinear, jointree.WideBushy}
	for _, shape := range shapes {
		tree, err := jointree.BuildShape(shape, 6)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Reference(db, tree)
		for _, kind := range strategy.Kinds {
			t.Run(fmt.Sprintf("%v/%v", shape, kind), func(t *testing.T) {
				q := planFor(t, db, tree, kind, 12)
				res, err := core.ExecuteParallel(*q, parallel.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if diff := relation.DiffMultiset(res.Result, want); diff != "" {
					t.Fatalf("%v/%v: parallel result differs from reference: %s", shape, kind, diff)
				}
				if res.Stats.ResultTuples != want.Card() {
					t.Fatalf("ResultTuples = %d, want %d", res.Stats.ResultTuples, want.Card())
				}
			})
		}
	}
}

// TestSimulatorEquivalence runs the same plan through both runtimes and
// compares the result multisets directly.
func TestSimulatorEquivalence(t *testing.T) {
	db := testDB(t, 5, 300)
	tree, err := jointree.BuildShape(jointree.WideBushy, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range strategy.Kinds {
		q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 10}
		sim, err := core.Verify(q)
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.ExecuteParallel(q, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if diff := relation.DiffMultiset(par.Result, sim.Result); diff != "" {
			t.Fatalf("%v: parallel vs simulator: %s", kind, diff)
		}
	}
}

// TestStructuralCounters checks that the runtime opens exactly the stream
// and process structure the plan declares — the quantities engine.Stats
// counts on the virtual machine — and that its goroutines are proportional
// to processes, not streams: one worker per process, one waiter per
// operator with After dependencies, one dispatcher per modeled processor,
// and nothing per stream. The RD case at 80 processors has far more
// streams than goroutines.
func TestStructuralCounters(t *testing.T) {
	db := testDB(t, 5, 200)
	tree, err := jointree.BuildShape(jointree.LeftLinear, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind            strategy.Kind
		procs, maxProcs int
	}{
		{strategy.FP, 8, 4},
		{strategy.RD, 80, 4},
	} {
		t.Run(fmt.Sprintf("%v/%d", tc.kind, tc.procs), func(t *testing.T) {
			q := core.Query{DB: db, Tree: tree, Strategy: tc.kind, Procs: tc.procs}
			plan, err := q.Plan()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.ExecuteParallel(q, parallel.Config{MaxProcs: tc.maxProcs})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Processes != plan.NumProcesses() {
				t.Errorf("Processes = %d, want %d", st.Processes, plan.NumProcesses())
			}
			if st.Streams != plan.NumStreams() {
				t.Errorf("Streams = %d, want %d", st.Streams, plan.NumStreams())
			}
			if st.MaxProcs != tc.maxProcs {
				t.Errorf("MaxProcs = %d, want %d", st.MaxProcs, tc.maxProcs)
			}
			waiters := 0
			for _, op := range plan.Ops {
				if len(op.After) > 0 {
					waiters++
				}
			}
			if want := plan.NumProcesses() + waiters + tc.maxProcs; st.Goroutines != want {
				t.Errorf("Goroutines = %d, want processes %d + waiters %d + dispatchers %d = %d",
					st.Goroutines, plan.NumProcesses(), waiters, tc.maxProcs, want)
			}
			if tc.procs >= 80 && st.Streams < 10*st.Goroutines {
				t.Errorf("Streams = %d, Goroutines = %d: want streams ≫ goroutines", st.Streams, st.Goroutines)
			}
			if len(st.OpWall) != len(plan.Ops) {
				t.Errorf("OpWall has %d entries, want %d", len(st.OpWall), len(plan.Ops))
			}
			if res.WallTime <= 0 {
				t.Errorf("WallTime = %v, want > 0", res.WallTime)
			}
		})
	}
}

// TestProcessorCapExtremes runs with the tightest possible cap (a single
// run-queue dispatcher serializing every operation process) and a cap far
// above the plan's parallelism: both must produce the reference result.
// MaxProcs=1 in particular proves no dispatcher ever blocks on a channel
// operation a worker is responsible for.
func TestProcessorCapExtremes(t *testing.T) {
	db := testDB(t, 5, 300)
	tree, err := jointree.BuildShape(jointree.WideBushy, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	for _, maxProcs := range []int{1, 2, 64} {
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 10}
			res, err := core.ExecuteParallel(q, parallel.Config{MaxProcs: maxProcs})
			if err != nil {
				t.Fatalf("MaxProcs=%d %v: %v", maxProcs, kind, err)
			}
			if diff := relation.DiffMultiset(res.Result, want); diff != "" {
				t.Fatalf("MaxProcs=%d %v: %s", maxProcs, kind, diff)
			}
		}
	}
}

// TestBatchAndDepthExtremes exercises pipelining granularity edge cases:
// single-tuple batches (maximal stream traffic) and depth-1 channels
// (maximal backpressure) — the configurations most likely to deadlock a
// buggy dependency or build-phase gate.
func TestBatchAndDepthExtremes(t *testing.T) {
	db := testDB(t, 4, 150)
	tree, err := jointree.BuildShape(jointree.LeftLinear, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	for _, cfg := range []parallel.Config{
		{BatchTuples: 1, ChannelDepth: 1},
		{BatchTuples: 7, ChannelDepth: 1},
		{BatchTuples: 1024, ChannelDepth: 2},
	} {
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 8}
			res, err := core.ExecuteParallel(q, cfg)
			if err != nil {
				t.Fatalf("%+v %v: %v", cfg, kind, err)
			}
			if diff := relation.DiffMultiset(res.Result, want); diff != "" {
				t.Fatalf("%+v %v: %s", cfg, kind, diff)
			}
		}
	}
}

// TestPooledPathEquivalence pins the allocation-free data path — pooled
// batches, open-addressing hash tables, per-processor run queues — to the
// sequential reference at the BenchmarkExecAlloc shape (left-linear, 80
// plan processors), with batch sizes small enough to force heavy pool
// recycling. The provenance checksums in the multiset comparison prove
// every tuple was combined exactly once: a batch recycled while still
// aliased anywhere would corrupt a checksum and fail the diff.
func TestPooledPathEquivalence(t *testing.T) {
	db := testDB(t, 6, 400)
	tree, err := jointree.BuildShape(jointree.LeftLinear, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reference(db, tree)
	for _, cfg := range []parallel.Config{
		{MaxProcs: 1, BatchTuples: 3, ChannelDepth: 1},
		{MaxProcs: 3, BatchTuples: 16, ChannelDepth: 2},
		{BatchTuples: 64}, // the plan's own 80 processors, one queue each
	} {
		for _, kind := range strategy.Kinds {
			q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 80}
			res, err := core.ExecuteParallel(q, cfg)
			if err != nil {
				t.Fatalf("%+v %v: %v", cfg, kind, err)
			}
			if diff := relation.DiffMultiset(res.Result, want); diff != "" {
				t.Fatalf("%+v %v: %s", cfg, kind, diff)
			}
		}
	}
}

// TestVerifyParallel exercises the public verification path.
func TestVerifyParallel(t *testing.T) {
	db := testDB(t, 5, 250)
	tree, err := jointree.BuildShape(jointree.RightBushy, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range strategy.Kinds {
		if _, err := core.VerifyParallel(core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 10}, parallel.Config{}); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestRaceStress is the -race stress test: many concurrent small queries
// across every strategy, exercising scheduler interleavings of workers
// posting into shared mailboxes, dispatchers and dependency waiters. Data is seed-pinned; only goroutine
// scheduling varies between runs.
func TestRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	db := testDB(t, 4, 120)
	trees := make([]*jointree.Node, 0, 2)
	for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy} {
		tree, err := jointree.BuildShape(shape, 4)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	wants := []*relation.Relation{core.Reference(db, trees[0]), core.Reference(db, trees[1])}
	const rounds = 8
	errc := make(chan error, rounds*len(strategy.Kinds)*len(trees))
	for round := 0; round < rounds; round++ {
		for ti, tree := range trees {
			for _, kind := range strategy.Kinds {
				tree, kind, want := tree, kind, wants[ti]
				go func() {
					q := core.Query{DB: db, Tree: tree, Strategy: kind, Procs: 8}
					res, err := core.ExecuteParallel(q, parallel.Config{BatchTuples: 16, ChannelDepth: 1})
					if err != nil {
						errc <- err
						return
					}
					if diff := relation.DiffMultiset(res.Result, want); diff != "" {
						errc <- fmt.Errorf("%v: %s", kind, diff)
						return
					}
					errc <- nil
				}()
			}
		}
	}
	for i := 0; i < rounds*len(strategy.Kinds)*len(trees); i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvalidPlan checks input validation paths.
func TestInvalidPlan(t *testing.T) {
	if _, err := parallel.Run(&xra.Plan{}, nil, parallel.Config{}); err == nil {
		t.Fatal("empty plan must be rejected")
	}
}
