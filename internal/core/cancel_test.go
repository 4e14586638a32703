package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"multijoin/internal/jointree"
	"multijoin/internal/strategy"
	"multijoin/internal/wisconsin"
)

// cancelQuery is a workload large enough (~tens of milliseconds per run on
// both runtimes) that a cancel a few milliseconds in is reliably mid-query.
func cancelQuery(t testing.TB) Query {
	t.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 10, Cardinality: 8000, Seed: 1995})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := jointree.BuildShape(jointree.WideBushy, 10)
	if err != nil {
		t.Fatal(err)
	}
	return Query{DB: db, Tree: tree, Strategy: strategy.FP, Procs: 16}
}

// builtinRuntimes are the built-in backends under test, named explicitly so
// that runtimes leaked into the global registry by other tests (which may
// complete instantly and legitimately beat a cancel) cannot affect the
// cancellation assertions. The spill runtime runs here with its default
// budget (no spilling); the spill-specific cancellation audits with a
// forcing budget live in spill_test.go.
var builtinRuntimes = []string{"sim", "parallel", "spill"}

// settleGoroutines polls until the goroutine count drops back to at most
// base+slack or the deadline passes, and returns the final count. The
// settle loop absorbs runtime-internal goroutines (GC, timers) that come
// and go independently of the code under test.
func settleGoroutines(base, slack int, deadline time.Duration) int {
	limit := time.Now().Add(deadline)
	n := runtime.NumGoroutine()
	for n > base+slack && time.Now().Before(limit) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestExecCancelMidQuery cancels a context mid-execution on both built-in
// runtimes and asserts a prompt context.Canceled return and no leaked
// goroutines.
func TestExecCancelMidQuery(t *testing.T) {
	blocked := cancelQuery(t)
	blocked.Strategy, blocked.Procs = strategy.RD, 80
	inputs := []struct {
		name string
		q    Query
		opts []Option
		// engine runs the query on an Engine session, whose shared memory
		// meter must be back at zero once the cancelled run returned.
		engine bool
	}{
		{name: "fp16", q: cancelQuery(t)},
		// RD at 80 processors redistributes every edge over 80×80 streams
		// into depth-1 mailboxes of 16-tuple batches: the cancel lands while
		// many producers are blocked posting into one full mailbox.
		{name: "rd80-depth1", q: blocked, opts: []Option{WithChannelDepth(1), WithBatchTuples(16)}, engine: true},
	}
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			for _, in := range inputs {
				t.Run(in.name, func(t *testing.T) {
					before := runtime.NumGoroutine()
					var eng *Engine
					if in.engine {
						var err error
						if eng, err = Open(in.q.DB); err != nil {
							t.Fatal(err)
						}
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					errc := make(chan error, 1)
					start := time.Now()
					go func() {
						opts := append([]Option{WithRuntime(rt)}, in.opts...)
						var err error
						if eng != nil {
							_, err = eng.Exec(ctx, in.q, opts...)
						} else {
							_, err = Exec(ctx, in.q, opts...)
						}
						errc <- err
					}()
					time.Sleep(5 * time.Millisecond)
					cancel()
					select {
					case err := <-errc:
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("Exec after cancel returned %v, want context.Canceled", err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("Exec did not return within 10s of cancellation (started %v ago)", time.Since(start))
					}
					if eng != nil {
						if live := eng.MemoryLive(); live != 0 {
							t.Errorf("engine meter live = %d bytes after cancel, want 0", live)
						}
						eng.Close()
					}
					after := settleGoroutines(before, 2, 5*time.Second)
					if after > before+2 {
						t.Errorf("goroutine leak after cancel: %d before, %d after", before, after)
					}
				})
			}
		})
	}
}

// TestExecCancelBeforeStart passes an already-cancelled context: both
// runtimes must refuse to execute and return the context error without
// launching anything.
func TestExecCancelBeforeStart(t *testing.T) {
	q := cancelQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			before := runtime.NumGoroutine()
			start := time.Now()
			_, err := Exec(ctx, q, WithRuntime(rt))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Exec with cancelled context returned %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("pre-cancelled Exec took %v, want immediate return", elapsed)
			}
			after := settleGoroutines(before, 2, 5*time.Second)
			if after > before+2 {
				t.Errorf("goroutine leak: %d before, %d after", before, after)
			}
		})
	}
}

// TestExecDeadline exercises the context.DeadlineExceeded path on both
// runtimes.
func TestExecDeadline(t *testing.T) {
	q := cancelQuery(t)
	for _, rt := range builtinRuntimes {
		t.Run(rt, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
			defer cancel()
			_, err := Exec(ctx, q, WithRuntime(rt))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Exec past deadline returned %v, want context.DeadlineExceeded", err)
			}
		})
	}
}

// TestExecCancelledRepeatedly stresses cancellation teardown under the race
// detector: many back-to-back cancelled runs must neither deadlock nor
// accumulate goroutines.
func TestExecCancelledRepeatedly(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation stress skipped in -short mode")
	}
	q := cancelQuery(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		for _, rt := range builtinRuntimes {
			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				_, err := Exec(ctx, q, WithRuntime(rt))
				errc <- err
			}()
			// Vary the cancellation point from "immediately" upward to hit
			// different teardown phases (setup, scan, join, drain).
			time.Sleep(time.Duration(i) * time.Millisecond)
			cancel()
			select {
			case err := <-errc:
				// nil is possible when the run beats a late cancel.
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("round %d %s: %v", i, rt, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d %s: Exec hung after cancel", i, rt)
			}
		}
	}
	after := settleGoroutines(before, 4, 5*time.Second)
	if after > before+4 {
		t.Errorf("goroutine accumulation across cancelled runs: %d before, %d after", before, after)
	}
}
