package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/ivm"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// The views workload: an FP view over a 6×40000 left-linear chain at 80
// plan processors. A writer goroutine applies closed-loop 1% rounds — each
// inserts viewsDelta fresh relation-0 tuples and deletes the previous
// round's — while a reader goroutine loops View.Rows. Reads and rounds
// serialize on the view.
const (
	viewsRelations = 6
	viewsCard      = 40000
	viewsProcs     = 80
	viewsDelta     = 400
	viewsWarmup    = 20 // unmeasured rounds in set-up
)

type views struct {
	cfg  config
	db   *wisconsin.Database
	tree *jointree.Node
	eng  *core.Engine
	view *core.View
	rng  *rand.Rand

	baseCard   int
	base       fingerprint // the population's result
	populateMs float64
	rowOf      [][]int32 // rowOf[i][u1] is the row of relation i holding Unique1 == u1
	pool       []relation.Tuple
	round      int

	// expected[k] is the view's fingerprint after round k; the writer
	// publishes it before applying round k, so a reader can match any
	// snapshot it might have seen.
	mu       sync.Mutex
	expected []fingerprint
	applied  atomic.Int64 // rounds whose Apply has returned
}

func setupViews(cfg config) (instance, *phase, error) {
	db, err := chainDB(viewsRelations, viewsCard, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	tree, err := jointree.BuildShape(jointree.LeftLinear, viewsRelations)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.Open(db)
	if err != nil {
		return nil, nil, err
	}
	v := &views{cfg: cfg, db: db, tree: tree, eng: eng, rng: rand.New(rand.NewSource(cfg.seed)),
		base: referenceFingerprint(db, tree)}
	v.expected = []fingerprint{v.base}
	v.rowOf = make([][]int32, viewsRelations)
	for i := 1; i < viewsRelations; i++ {
		v.rowOf[i] = make([]int32, viewsCard)
		for row, t := range db.Relation(i).Tuples {
			v.rowOf[i][t.Unique1] = int32(row)
		}
	}
	ctx := context.Background()
	t0 := time.Now()
	v.view, err = eng.CreateView(ctx, core.Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: viewsProcs})
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	populate := time.Since(t0)
	v.baseCard = v.view.ResultCard()
	rel, err := v.view.Rows(ctx)
	if err == nil {
		err = fingerprintOf(rel).check(v.base, "populated view")
	}
	if err != nil {
		v.close()
		return nil, nil, err
	}
	warm := newPhase()
	for i := 0; i < viewsWarmup; i++ {
		v.apply(warm, nil)
	}
	v.applied.Store(int64(v.round))
	v.populateMs = ms(populate)
	return v, warm, nil
}

// fresh returns round's insertions: relation-0 tuples with Unique1 values
// outside the base domain (unique per round and position) and Unique2 a
// random key of relation 1, so each joins exactly one tuple of every later
// relation and adds exactly one result tuple.
func (v *views) fresh(round int) []relation.Tuple {
	out := make([]relation.Tuple, viewsDelta)
	for i := range out {
		out[i] = relation.Tuple{
			Unique1: int64(viewsCard + round*viewsDelta + i),
			Unique2: v.rng.Int63n(viewsCard),
			Check:   v.rng.Uint64(),
		}
	}
	return out
}

// freshResult is the reference result the insertions add to the view:
// the tree evaluated sequentially (jointree.Reference, as core.Reference
// does) over relation 0 = the insertions and every later relation cut down
// to the tuples they reach.
func (v *views) freshResult(ins []relation.Tuple) fingerprint {
	rels := make([]*relation.Relation, viewsRelations)
	rels[0] = &relation.Relation{Name: "R0", TupleBytes: wisconsin.TupleBytes, Tuples: ins}
	for i := 1; i < viewsRelations; i++ {
		r := &relation.Relation{Name: fmt.Sprintf("R%d", i), TupleBytes: wisconsin.TupleBytes}
		seen := map[int32]bool{}
		for _, t := range rels[i-1].Tuples {
			row := v.rowOf[i][t.Unique2]
			if !seen[row] {
				seen[row] = true
				r.Tuples = append(r.Tuples, v.db.Relation(i).Tuples[row])
			}
		}
		rels[i] = r
	}
	return fingerprintOf(jointree.Reference(v.tree, func(leaf int) *relation.Relation { return rels[leaf] }))
}

// apply runs one delta round and checks it.
func (v *views) apply(ph *phase, tr *tracer) {
	v.round++
	ins := v.fresh(v.round)
	want := v.base.plus(v.freshResult(ins))
	v.mu.Lock()
	v.expected = append(v.expected, want)
	v.mu.Unlock()
	op := v.round
	t0 := time.Now()
	res, err := v.view.Apply(context.Background(), ivm.Delta{Rel: 0, Insert: ins, Delete: v.pool})
	t1 := time.Now()
	v.applied.Store(int64(v.round))
	tr.record(tr.id(), 0, int64(op), "ivm.apply", t0, t1)
	ph.attempt()
	if err != nil {
		ph.fail(fmt.Errorf("round %d: %w", v.round, err))
		return
	}
	// Every insertion adds one result tuple and every deletion removes
	// one, so the view stays at the population plus the live insertions.
	if res.Unmatched != 0 || res.ResultCard != v.baseCard+len(ins) || res.Inserted != len(ins) || res.Deleted != len(v.pool) {
		ph.fail(fmt.Errorf("round %d: unmatched=%d card=%d (want %d) inserted=%d deleted=%d",
			v.round, res.Unmatched, res.ResultCard, v.baseCard+len(ins), res.Inserted, res.Deleted))
		return
	}
	v.pool = ins
	ph.observe("ivm.refresh", ms(t1.Sub(t0)))
	ph.observe("ivm.changes", float64(res.Changes))
}

// read takes one View.Rows snapshot and checks it against every state the
// view could have been in while the read ran.
func (v *views) read(ph *phase, tr *tracer, op int64) {
	from := v.applied.Load()
	t0 := time.Now()
	rel, err := v.view.Rows(context.Background())
	t1 := time.Now()
	to := v.applied.Load() + 1 // a round may have landed before its counter moved
	tr.record(tr.id(), 0, op, "ivm.rows", t0, t1)
	ph.attempt()
	if err != nil {
		ph.fail(fmt.Errorf("read: %w", err))
		return
	}
	got := fingerprintOf(rel)
	if v.cfg.dropTuple && len(rel.Tuples) > 0 {
		got = got.minus(fingerprintOf(&relation.Relation{Tuples: rel.Tuples[:1]}))
	}
	v.mu.Lock()
	ok := false
	for k := from; k <= to && k < int64(len(v.expected)); k++ {
		ok = ok || got == v.expected[k]
	}
	v.mu.Unlock()
	if !ok {
		ph.fail(fmt.Errorf("read between rounds %d and %d: %d tuples match no state the view passed through", from, to, got.n))
		return
	}
	ph.complete(t1.Sub(t0))
}

func (v *views) run(d time.Duration, tr *tracer) *phase {
	ph := newPhase()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	var rounds int64
	var writerEnd time.Time
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			v.apply(ph, tr)
			rounds++
		}
		writerEnd = time.Now()
	}()
	go func() {
		defer wg.Done()
		for op := int64(1); time.Now().Before(deadline); op++ {
			v.read(ph, tr, -op)
		}
	}()
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.sum["ivm.rounds"] = float64(rounds)
	ph.sum["ivm.writer_s"] = writerEnd.Sub(start).Seconds()
	ph.val["ivm.populate_ms"] = v.populateMs
	ph.val["ivm.resident_mib"] = float64(v.view.Resident()) / (1 << 20)
	return ph
}

func (v *views) replay(ph *phase) error {
	if err := timePlans(ph, []core.Query{{DB: v.db, Tree: v.tree, Strategy: strategy.FP, Procs: viewsProcs}}); err != nil {
		return err
	}
	return replayKernels(ph, v.db, viewsProcs)
}

// close checks the view's final state, closes it and the engine, and
// checks that the shared memory meter settled to zero.
func (v *views) close() error {
	var err error
	if v.view != nil {
		rel, rerr := v.view.Rows(context.Background())
		v.mu.Lock()
		want := v.expected[len(v.expected)-1]
		v.mu.Unlock()
		switch {
		case rerr != nil:
			err = fmt.Errorf("final read: %w", rerr)
		default:
			err = fingerprintOf(rel).check(want, "final view state")
		}
		v.view.Close()
	}
	live := v.eng.MemoryLive()
	if cerr := v.eng.Close(); err == nil {
		err = cerr
	}
	if err == nil && live != 0 {
		err = fmt.Errorf("engine memory meter at %d bytes after the view closed, want 0", live)
	}
	return err
}
