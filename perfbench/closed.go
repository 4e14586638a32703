package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// closedSpec describes a closed-loop, one-client workload: every query of
// the cross product shapes × strategies on the parallel runtime, issued
// back to back in a seeded round-robin order (each cycle a fresh
// permutation of the kinds).
type closedSpec struct {
	relations, card, procs int
	shapes                 []jointree.Shape
	strategies             []strategy.Kind
	// spillBudget, when set, makes the traced run replay every kind once
	// more on the spill runtime, under a second engine with this shared
	// budget, for the spill.* per-layer metrics.
	spillBudget int64
}

// setupFabric: a small 10×1000 chain at 80 plan processors, so per-stream
// goroutines and channels do nearly all the work and the join kernels
// almost none (a left-linear SP plan has 1,521 processes and 52,080
// streams for ~8K tuples moved).
func setupFabric(cfg config) (instance, *phase, error) {
	return setupClosed(cfg, closedSpec{
		relations: 10, card: 1000, procs: 80,
		shapes:     []jointree.Shape{jointree.LeftLinear, jointree.WideBushy},
		strategies: []strategy.Kind{strategy.SP, strategy.SE, strategy.RD},
	})
}

// setupBulk: a 10×40000 chain at 20 plan processors, so the kernels
// (fragment, radix insert, probe, checksum combine) do the work. The timed
// loop stays on the in-memory runtime: spill partition files could only go
// to the checkout's own disk, where creating a file costs ~0.4 ms and grows
// slower run after run (WORKLOADS.md). The traced run measures spill apart,
// at a 1 MiB budget below every join operand.
func setupBulk(cfg config) (instance, *phase, error) {
	return setupClosed(cfg, closedSpec{
		relations: 10, card: 40000, procs: 20,
		shapes:      []jointree.Shape{jointree.LeftLinear, jointree.WideBushy},
		strategies:  []strategy.Kind{strategy.SP, strategy.SE, strategy.RD, strategy.FP},
		spillBudget: 1 << 20,
	})
}

// kind is one query of a workload's mix with its reference fingerprint.
type kind struct {
	label   string // strategy/shape
	q       core.Query
	runtime string
	want    fingerprint
}

type closedLoop struct {
	cfg         config
	db          *wisconsin.Database
	eng         *core.Engine
	kinds       []kind
	procs       int
	spillBudget int64
	rng         *rand.Rand
	order       []int
	op          int64
}

func setupClosed(cfg config, spec closedSpec) (instance, *phase, error) {
	db, err := chainDB(spec.relations, spec.card, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	var kinds []kind
	for _, shape := range spec.shapes {
		tree, err := jointree.BuildShape(shape, spec.relations)
		if err != nil {
			return nil, nil, err
		}
		want := referenceFingerprint(db, tree)
		for _, st := range spec.strategies {
			kinds = append(kinds, kind{
				label:   fmt.Sprintf("%v/%v", st, shape),
				q:       core.Query{DB: db, Tree: tree, Strategy: st, Procs: spec.procs},
				runtime: "parallel",
				want:    want,
			})
		}
	}
	eng, err := core.Open(db)
	if err != nil {
		return nil, nil, err
	}
	c := &closedLoop{cfg: cfg, db: db, eng: eng, kinds: kinds, procs: spec.procs,
		spillBudget: spec.spillBudget, rng: rand.New(rand.NewSource(cfg.seed))}
	// Warm-up: every kind once, checked, so the plan cache, batch pools
	// and hash-table arenas are filled before anything is timed.
	warm := newPhase()
	for i := range kinds {
		c.query(eng, &kinds[i], warm, nil)
	}
	return c, warm, nil
}

// next returns the next kind in the seeded round-robin order.
func (c *closedLoop) next() *kind {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(len(c.kinds))
	}
	k := &c.kinds[c.order[0]]
	c.order = c.order[1:]
	return k
}

func (c *closedLoop) run(d time.Duration, tr *tracer) *phase {
	ph := newPhase()
	start := time.Now()
	for time.Since(start) < d {
		c.query(c.eng, c.next(), ph, tr)
	}
	ph.elapsed = time.Since(start)
	return ph
}

// query runs one query through eng's cursor API, drains it, checks its
// fingerprint and records the per-layer breakdown.
func (c *closedLoop) query(eng *core.Engine, k *kind, ph *phase, tr *tracer) {
	ctx := context.Background()
	c.op++
	root := tr.id()
	ph.attempt()
	t0 := time.Now()
	rows, err := eng.Query(ctx, k.q, core.WithRuntime(k.runtime))
	t1 := time.Now()
	tr.record(tr.id(), root, c.op, "core.query", t0, t1)
	if err != nil {
		ph.fail(fmt.Errorf("%s/%s: %w", k.label, k.runtime, err))
		return
	}
	var fp fingerprint
	first := rows.Next()
	if first && !c.cfg.dropTuple {
		fp.add(rows.Tuple())
	}
	t2 := time.Now()
	for rows.Next() {
		fp.add(rows.Tuple())
	}
	t3 := time.Now()
	rows.Close()
	t4 := time.Now()
	tr.record(tr.id(), root, c.op, "core.first_row", t1, t2)
	tr.record(tr.id(), root, c.op, "core.drain", t2, t3)
	tr.record(tr.id(), root, c.op, "core.close", t3, t4)
	tr.record(root, 0, c.op, "loadgen.query", t0, t4)

	if err := rows.Err(); err != nil {
		ph.fail(fmt.Errorf("%s/%s: %w", k.label, k.runtime, err))
		return
	}
	if err := fp.check(k.want, k.label+"/"+k.runtime); err != nil {
		ph.fail(err)
		return
	}
	ph.complete(t3.Sub(t0))
	ph.observe("core.query_call", ms(t1.Sub(t0)))
	ph.observe("core.first_row", ms(t2.Sub(t1)))
	ph.observe("core.drain", ms(t3.Sub(t2)))
	ph.observe("core.close", ms(t4.Sub(t3)))
	if res, ok := rows.Result(); ok {
		recordStats(ph, res, k.runtime == "spill")
	}
}

// recordStats adds a finished query's ExecStats counters to the phase.
func recordStats(ph *phase, res *core.Result, spilling bool) {
	st := res.Stats
	ph.count("stats.queries", 1)
	ph.count("parallel.processes", float64(st.Processes))
	ph.count("parallel.streams", float64(st.Streams))
	ph.count("parallel.goroutines", float64(st.Goroutines))
	ph.count("parallel.batches", float64(st.Batches))
	ph.count("relation.tuples_moved", float64(st.TuplesMovedRemote+st.TuplesLocal))
	ph.count("core.plan_lookups", 1)
	if st.PlanCacheHit {
		ph.count("core.plan_hits", 1)
	}
	ph.observe("core.queue_wait", ms(st.QueueWait))
	if res.Time > 0 {
		ph.observe("core.est_over_actual", float64(st.EstimatedCost)/float64(res.Time))
	}
	if spilling {
		ph.count("spill.queries", 1)
		ph.count("spill.bytes", float64(st.BytesSpilled))
		ph.count("spill.files", float64(st.SpillPartitions))
		ph.count("spill.io_ms", ms(st.SpillTime))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (c *closedLoop) replay(ph *phase) error {
	qs := make([]core.Query, len(c.kinds))
	for i, k := range c.kinds {
		qs[i] = k.q
	}
	if err := timePlans(ph, qs); err != nil {
		return err
	}
	if err := replayKernels(ph, c.db, c.procs); err != nil {
		return err
	}
	if c.spillBudget > 0 {
		return c.replaySpill(ph)
	}
	return nil
}

// replaySpill runs every kind once on the spill runtime under an engine
// whose shared budget is c.spillBudget, checked like the timed queries.
// Only their ExecStats spill counters are reported.
func (c *closedLoop) replaySpill(ph *phase) error {
	eng, err := core.Open(c.db, core.WithEngineMemoryBudget(c.spillBudget))
	if err != nil {
		return err
	}
	spilled := newPhase()
	for _, k := range c.kinds {
		k.runtime = "spill"
		c.query(eng, &k, spilled, nil)
	}
	for _, name := range []string{"spill.queries", "spill.bytes", "spill.files", "spill.io_ms"} {
		ph.sum[name] = spilled.sum[name]
	}
	ph.merge(spilled)
	live := eng.MemoryLive()
	if err := eng.Close(); err != nil {
		return err
	}
	if live != 0 {
		return fmt.Errorf("spill engine memory meter at %d bytes after the replay, want 0", live)
	}
	return nil
}

func (c *closedLoop) close() error {
	live := c.eng.MemoryLive()
	if err := c.eng.Close(); err != nil {
		return err
	}
	if live != 0 {
		return fmt.Errorf("engine memory meter at %d bytes after the run, want 0", live)
	}
	return nil
}
