package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/jointree"
	"multijoin/internal/serve"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// The served workload: a serve.Server over an Engine on loopback in this
// process, a 6×5000 chain, serve.DefaultMix (SP/SE/RD/FP × parallel/spill
// on wide-bushy) under cost admission and the default 64 MiB shared
// budget, driven by a closed loop of servedConns connections, each with
// one query in flight. One query in every servedCancelEvery is cancelled
// after its first block.
//
// It is a closed loop, not the open-loop Poisson generator it was sized
// with: at 40 q/s offered, the p90 of interleaved 25 s runs ranged from
// 18.6 to 34.2 ms, against 15.5–18.9 ms for this loop (WORKLOADS.md).
const (
	servedRelations   = 6
	servedCard        = 5000
	servedCancelEvery = 10
	// servedGrace is how long the queries in flight when the window
	// closes may take to finish; then the connections are closed, and
	// whatever was still running fails.
	servedGrace = 3 * time.Second
)

// servedConns is the number of client connections: no more than the host's
// processors.
var servedConns = min(2, runtime.NumCPU())

type served struct {
	cfg   config
	db    *wisconsin.Database
	srv   *serve.Server
	eng   *core.Engine
	addr  string
	mix   []serve.QuerySpec
	procs int // the server's default plan processor count for the mix
	want  fingerprint
	op    atomic.Int64

	mu     sync.Mutex // guards the seeded query sequence below
	rng    *rand.Rand
	order  []int // rest of the current round-robin cycle over mix
	issued int   // queries drawn so far
	cancel int   // position of the cancelled query in the current block
}

func setupServed(cfg config) (instance, *phase, error) {
	db, err := chainDB(servedRelations, servedCard, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, servedRelations)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.Open(db, core.WithAdmissionPolicy("cost"))
	if err != nil {
		return nil, nil, err
	}
	srv := serve.NewServer(eng, serve.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	s := &served{cfg: cfg, db: db, srv: srv, eng: eng, addr: addr, mix: serve.DefaultMix(),
		procs: max(runtime.GOMAXPROCS(0), 2*servedRelations),
		want:  referenceFingerprint(db, tree), rng: rand.New(rand.NewSource(cfg.seed))}

	// Warm-up: every spec of the mix once on one connection, checked.
	cl, err := serve.Dial(addr)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	warm := newPhase()
	for _, spec := range s.mix {
		s.query(cl, spec, false, warm, nil)
	}
	cl.Close()
	return s, warm, nil
}

// next draws the next query of the seeded sequence: the specs in
// round-robin order (each cycle a fresh permutation of the mix), and in
// every block of servedCancelEvery queries one, at a seeded position,
// marked for cancellation. The sequence depends only on the seed; which
// connection takes which query depends on timing.
func (s *served) next() (serve.QuerySpec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(s.mix))
	}
	if s.issued%servedCancelEvery == 0 {
		s.cancel = s.rng.Intn(servedCancelEvery)
	}
	spec, cancel := s.mix[s.order[0]], s.issued%servedCancelEvery == s.cancel
	s.order = s.order[1:]
	s.issued++
	return spec, cancel
}

// run drives the closed loop for d: each connection issues its next query
// as soon as its previous one has ended.
func (s *served) run(d time.Duration, tr *tracer) *phase {
	ph := newPhase()
	clients := make([]*serve.Client, servedConns)
	for i := range clients {
		cl, err := serve.Dial(s.addr)
		if err != nil {
			ph.fail(fmt.Errorf("dial: %w", err))
			for _, c := range clients[:i] {
				c.Close()
			}
			return ph
		}
		clients[i] = cl
	}
	start := time.Now()
	stuck := time.AfterFunc(d+servedGrace, func() {
		for _, cl := range clients {
			cl.Close() // fails every open stream, so the loops return
		}
	})
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				spec, cancel := s.next()
				s.query(cl, spec, cancel, ph, tr)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	stuck.Stop()
	for _, cl := range clients {
		cl.Close()
	}
	return ph
}

// query submits one query, consumes its stream, checks the result and
// records its latency from Submit to DONE. A query marked cancel is
// cancelled after its first block; it counts apart, not as a failure.
func (s *served) query(cl *serve.Client, spec serve.QuerySpec, cancel bool, ph *phase, tr *tracer) {
	op := s.op.Add(1)
	label := spec.Strategy + "/" + spec.Runtime
	root := tr.id()
	ph.attempt()
	t0 := time.Now()
	st, err := cl.Submit(spec)
	t1 := time.Now()
	tr.record(tr.id(), root, op, "serve.submit", t0, t1)
	if err != nil {
		ph.fail(fmt.Errorf("%s: submit: %w", label, err))
		return
	}
	var fp fingerprint
	var tFirst, tCancel time.Time
	for {
		tuples, done, err := st.Recv()
		now := time.Now()
		if err == nil && done == nil {
			if tFirst.IsZero() {
				tFirst = now
				ph.observe("serve.first_block", ms(now.Sub(t0)))
				if s.cfg.dropTuple && len(tuples) > 0 {
					tuples = tuples[1:]
				}
			}
			fp.addAll(tuples)
			if cancel && tCancel.IsZero() {
				tCancel = now
				st.Cancel()
			}
			continue
		}
		if tFirst.IsZero() {
			tFirst = now
		}
		tr.record(tr.id(), root, op, "serve.first_block", t1, tFirst)
		tr.record(tr.id(), root, op, "serve.drain", tFirst, now)
		tr.record(root, 0, op, "loadgen.query", t0, now)
		switch {
		case !tCancel.IsZero():
			// Cancelled on purpose: not a failure, whether the cancel or
			// the completion won the race. A completed one must still be
			// correct.
			ph.cancel()
			ph.observe("serve.cancel", ms(now.Sub(tCancel)))
			if done != nil {
				if err := fp.check(s.want, label); err != nil {
					ph.fail(err)
				}
			}
			return
		case err != nil:
			ph.fail(fmt.Errorf("%s: %w", label, err))
			return
		}
		if err := fp.check(s.want, label); err != nil {
			ph.fail(err)
			return
		}
		if done.Rows != fp.n {
			ph.fail(fmt.Errorf("%s: DONE reports %d rows, %d streamed", label, done.Rows, fp.n))
			return
		}
		ph.complete(now.Sub(t0))
		ph.observe("serve.overhead", ms(now.Sub(t0)-done.Wall-done.QueueWait))
		ph.observe("core.queue_wait", ms(done.QueueWait))
		ph.count("core.plan_lookups", 1)
		if done.PlanCacheHit {
			ph.count("core.plan_hits", 1)
		}
		if spec.Runtime == "spill" {
			ph.count("spill.queries", 1)
			ph.count("spill.bytes", float64(done.SpilledBytes))
		}
		return
	}
}

func (s *served) replay(ph *phase) error {
	tree, err := jointree.BuildShape(jointree.WideBushy, servedRelations)
	if err != nil {
		return err
	}
	var qs []core.Query
	for _, spec := range s.mix {
		kind, err := strategy.Parse(spec.Strategy)
		if err != nil {
			return err
		}
		qs = append(qs, core.Query{DB: s.db, Tree: tree, Strategy: kind, Procs: s.procs})
	}
	if err := timePlans(ph, qs); err != nil {
		return err
	}
	return replayKernels(ph, s.db, s.procs)
}

// close shuts the server down and then checks the engine's memory meter.
// It checks after the shutdown has drained every cursor: the server sends
// a query's DONE or ERROR before its cursor's deferred Close runs.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	if live := s.eng.MemoryLive(); live != 0 {
		return fmt.Errorf("engine memory meter at %d bytes after the run, want 0", live)
	}
	return nil
}
