package parallel

import (
	"time"

	"multijoin/internal/hashjoin"
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// inst is one operation process: an operator replica bound to one plan
// processor id, running as one worker goroutine. Operator state changes are
// executed by the processor's dispatcher (see runtimeState.dispatch); the
// worker goroutine itself only moves batches.
type inst struct {
	r    *runtimeState
	op   *opState
	idx  int
	proc int
	// local reports whether this process runs on this node; a non-local
	// instance of a partial run is only a routing target (its streams are
	// served by the transport) and is never launched.
	local bool

	// Run-queue side: the processor's queue, the completion signal
	// (buffered 1 — a worker has at most one task outstanding), and the
	// scratch buffer the dispatcher leaves join results in. scratch is
	// handed back and forth through the queue/taskDone synchronization, so
	// exactly one goroutine touches it at a time.
	queue    chan task
	taskDone chan struct{}
	scratch  relation.Batch

	// Input side: the one mailbox every incoming stream posts into, and
	// the end-of-stream markers expected (one per incoming stream) and
	// received per port.
	mailbox chan item
	eosWant map[port]int
	eosGot  map[port]int
	stash   []item // input buffered while After dependencies are pending

	// Join algorithm state (exactly one is non-nil for join operators).
	// grace replaces both in-memory algorithms when the run has a memory
	// budget (Config.MemoryBudget): the operands are partitioned — to disk
	// when over budget — and joined partition-at-a-time after both ended.
	simple    *hashjoin.Simple
	pipe      *hashjoin.Pipelining
	grace     *hashjoin.Grace
	buildDone bool
	probeWait []item // probe batches buffered during the simple join's build phase

	// Scan state: the pre-placed base relation fragment in columnar form.
	scanBatch relation.Batch

	// Output side: one stream (a consumer mailbox tag) and one pooled
	// batch buffer per destination process (a single destination on local
	// edges). A nil buffer is replaced from the pool on first use after
	// each flush. emitTuples and emitPool are the per-stream transport
	// batch size and its matching pool, chosen in setup from the operator's
	// estimated per-stream cardinality (the run default when the stream is
	// expected to fill it).
	outs       []stream
	outBufs    []*relation.Batch
	emitTuples int
	emitPool   *relation.BatchPool

	// Collect state.
	gathered *relation.Relation
}

// run is the worker goroutine body. It first buffers any input that arrives
// while the operator's After dependencies are pending — draining the
// mailbox unconditionally is what makes dependency waiting deadlock-free:
// producers are never blocked forever by a consumer that is not allowed to
// start yet. Once the dependencies complete it replays the stash and then
// processes live input until every incoming stream has ended.
func (w *inst) run() {
	defer w.r.wg.Done()
	done := w.r.ctx.Done()
	for waiting := len(w.op.deps) > 0; waiting; {
		select {
		case <-w.op.ready:
			waiting = false
		case it := <-w.mailbox:
			w.stash = append(w.stash, it)
		case <-done:
			return
		}
	}
	w.initState()
	if w.op.op.Kind == xra.OpScan {
		w.emitScan()
	}
	for _, it := range w.stash {
		if !w.handle(it) {
			return
		}
	}
	w.stash = nil
	for !w.allEOS() {
		select {
		case it := <-w.mailbox:
			if !w.handle(it) {
				return
			}
		case <-done:
			return
		}
	}
	if w.r.ctx.Err() != nil {
		// Cancelled while draining: the partial output must not be
		// reported as a completed operator.
		return
	}
	if w.grace != nil {
		// Out-of-core join: both operands have ended; join the partitions
		// one at a time, emitting result chunks downstream. This runs on
		// the worker goroutine, not the processor dispatcher — it may
		// block on file I/O and on downstream mailbox posts, and blocked
		// processes must not occupy a processor.
		err := w.grace.Drain(func(results *relation.Batch) error {
			w.emit(results)
			return w.r.ctx.Err()
		})
		if err != nil {
			if w.r.ctx.Err() == nil {
				w.r.fail(err)
			}
			return
		}
	}
	w.finish()
}

// initState creates the join algorithm state once processing may begin,
// with hash tables sized from the operator's estimated per-process operand
// cardinality so steady-state inserts never rehash.
func (w *inst) initState() {
	if w.grace != nil {
		return // out-of-core: the Grace join was created in setup
	}
	spec := hashjoin.Spec{BuildIsLower: w.op.op.BuildIsLower}
	hint := relation.PerFragmentCap(w.op.estCard, len(w.op.instances))
	switch w.op.op.Kind {
	case xra.OpSimpleJoin:
		w.simple = hashjoin.NewSimpleSized(spec, hint)
	case xra.OpPipeJoin:
		w.pipe = hashjoin.NewPipeliningSized(spec, hint)
	default:
		return
	}
	// Probing a full transport batch produces about one match per row on
	// the chain queries; presizing the result scratch to twice that keeps
	// steady-state probes from regrowing it column by column.
	w.scratch = *relation.NewBatch(2 * w.r.cfg.BatchTuples)
}

// allEOS reports whether every incoming stream has delivered its
// end-of-stream marker.
func (w *inst) allEOS() bool {
	for p, want := range w.eosWant {
		if w.eosGot[p] < want {
			return false
		}
	}
	return true
}

// handle applies one mailbox item to the operator state — computing on the
// process's run-queue dispatcher — emits any result tuples downstream, and
// returns the exhausted batch to the pool. It reports false when the run
// was cancelled mid-item; the batch then stays with the dispatcher, which
// may still be reading it.
func (w *inst) handle(it item) bool {
	if w.grace != nil {
		return w.handleGrace(it)
	}
	if it.eos {
		w.eosGot[it.port]++
		switch w.op.op.Kind {
		case xra.OpPipeJoin:
			if w.eosGot[it.port] == w.eosWant[it.port] {
				// A closed operand lets the pipelining join stop inserting
				// the other operand's tuples (no future match can need
				// them). The worker has no task in flight here, so mutating
				// the join state directly cannot race with its dispatcher.
				if it.port == portBuild {
					w.pipe.CloseBuildSide()
				} else {
					w.pipe.CloseProbeSide()
				}
			}
		case xra.OpSimpleJoin:
			if it.port == portBuild && w.eosGot[portBuild] == w.eosWant[portBuild] {
				// Build phase complete: release the buffered probe input in
				// arrival order.
				w.buildDone = true
				pending := w.probeWait
				w.probeWait = nil
				for _, p := range pending {
					if !w.handle(p) {
						return false
					}
				}
			}
		}
		return true
	}
	switch w.op.op.Kind {
	case xra.OpSimpleJoin:
		if it.port == portProbe && !w.buildDone {
			// The simple hash-join blocks its probe operand until the hash
			// table is complete; the batch stays queued (and pool-owned by
			// this process) until then.
			w.probeWait = append(w.probeWait, it)
			return true
		}
		if !w.dispatch(it) {
			return false
		}
		if it.port == portProbe {
			w.emit(&w.scratch)
		}
	case xra.OpPipeJoin:
		if !w.dispatch(it) {
			return false
		}
		w.emit(&w.scratch)
	case xra.OpCollect:
		if w.r.sink != nil {
			// Streaming: hand the pooled batch to the cursor. Ownership
			// transfers with the Push; the consumer's release (invoked on
			// its Next past the batch, or during Close-drain) returns it to
			// the run's pool. Push blocks until the consumer accepts the
			// batch — the backpressure that makes the whole plan stream —
			// and fails only when the run is cancelled.
			batch := it.batch
			n := batch.Len() // before Push: ownership transfers with it
			if err := w.r.sink.Push(w.r.ctx, batch, func() { w.r.putBatch(batch) }); err != nil {
				return false
			}
			w.r.resultTuples.Add(int64(n))
			return true
		}
		it.batch.AppendTo(w.gathered)
	}
	w.r.putBatch(it.batch)
	return true
}

// handleGrace applies one mailbox item to an out-of-core join: data batches
// are hash-partitioned (and spilled to disk while the run is over budget)
// on the worker goroutine itself — partitioning may block on file I/O,
// which must not occupy a modeled processor — and end-of-stream markers
// only count toward allEOS; the join produces all output in the drain after
// both operands ended. It reports false when partitioning failed (the run
// is torn down via runtimeState.fail).
func (w *inst) handleGrace(it item) bool {
	if it.eos {
		w.eosGot[it.port]++
		return true
	}
	var err error
	if it.port == portBuild {
		err = w.grace.AddBuild(it.batch)
	} else {
		err = w.grace.AddProbe(it.batch)
	}
	if err != nil {
		w.r.fail(err)
		return false
	}
	w.r.putBatch(it.batch)
	return true
}

// dispatch hands one item to the processor's run queue and waits for the
// dispatcher to apply it (results, if any, are left in w.scratch). It
// reports false when the run was cancelled instead.
func (w *inst) dispatch(it item) bool {
	select {
	case w.queue <- task{w: w, it: it}:
	case <-w.r.ctx.Done():
		return false
	}
	select {
	case <-w.taskDone:
		return true
	case <-w.r.ctx.Done():
		return false
	}
}

// applyJoin runs on the run-queue dispatcher of w's processor: it applies
// one input batch to the join state machine, leaving any result tuples in
// w.scratch. All processes of one plan processor execute here serially —
// the shared-nothing node model.
func (w *inst) applyJoin(it item) {
	switch w.op.op.Kind {
	case xra.OpSimpleJoin:
		if it.port == portBuild {
			w.simple.InsertBatch(it.batch)
			return
		}
		w.scratch.Reset()
		w.simple.ProbeBatchInto(&w.scratch, it.batch)
	case xra.OpPipeJoin:
		w.scratch.Reset()
		if it.port == portBuild {
			w.pipe.FromBuildSideBatchInto(&w.scratch, it.batch)
		} else {
			w.pipe.FromProbeSideBatchInto(&w.scratch, it.batch)
		}
	}
}

// emitScan streams the pre-placed base relation fragment downstream. Scan
// work is a column copy (emit chunks into pooled transport batches) and is
// not charged to the run queue (the simulator's near-zero ScanUnits).
func (w *inst) emitScan() {
	w.emit(&w.scanBatch)
}

// emit routes result tuples into per-destination pooled batch buffers —
// hashing the consumer's routing attribute over its processes exactly like
// the simulator — and flushes batches the moment they are full, so a
// pooled buffer never regrows past its fixed capacity. The single-
// destination path is three bulk column copies per chunk; redistribution
// hoists the routing key column and scatters row-at-a-time over flat
// columns.
func (w *inst) emit(results *relation.Batch) {
	n := results.Len()
	if n == 0 || w.op.edge == nil {
		return
	}
	bt := w.emitTuples
	if len(w.outs) == 1 {
		for lo := 0; lo < n; {
			buf := w.outBufs[0]
			if buf == nil {
				buf = w.emitPool.Get()
				w.outBufs[0] = buf
			}
			c := bt - buf.Len()
			if c > n-lo {
				c = n - lo
			}
			buf.AppendRange(results, lo, lo+c)
			lo += c
			if buf.Len() == bt {
				w.flush(0)
			}
		}
		return
	}
	bk := relation.NewBucketer(len(w.outs))
	keys := results.Col(w.op.edge.route)
	for i := 0; i < n; i++ {
		d := bk.Bucket(keys[i])
		buf := w.outBufs[d]
		if buf == nil {
			buf = w.emitPool.Get()
			w.outBufs[d] = buf
		}
		buf.Append(results.U1[i], results.U2[i], results.Check[i])
		if buf.Len() == bt {
			w.flush(d)
		}
	}
}

// flush posts buffer d into its stream's consumer mailbox (or egress
// channel), transferring ownership of the pooled batch to the consumer
// (which returns it to the pool once exhausted). The final gather at the
// collect operator is excluded from the transport statistics, as in the
// simulator.
func (w *inst) flush(d int) {
	buf := w.outBufs[d]
	if buf == nil || buf.Len() == 0 {
		return
	}
	w.outBufs[d] = nil
	s := &w.outs[d]
	if w.op.edge.to.op.Kind != xra.OpCollect {
		if s.remote {
			w.r.remoteTuples.Add(int64(buf.Len()))
		} else {
			w.r.localTuples.Add(int64(buf.Len()))
		}
		w.r.batches.Add(1)
	}
	if s.egress == nil {
		w.r.post(s.to, item{port: s.port, batch: buf})
		return
	}
	select {
	case s.egress <- buf:
	case <-w.r.ctx.Done():
	}
}

// finish flushes remaining buffers, ends every outgoing stream (an
// end-of-stream marker posted to the consumer's mailbox, or a closed egress
// channel), and reports operator completion when the last sibling process
// finishes.
func (w *inst) finish() {
	if w.op.edge != nil {
		for d := range w.outBufs {
			w.flush(d)
		}
		for i := range w.outs {
			s := &w.outs[i]
			if s.egress != nil {
				close(s.egress)
			} else {
				w.r.post(s.to, item{port: s.port, eos: true})
			}
		}
	}
	// The join state is dead once the output streams have ended; recycle
	// its table memory for the joins still running.
	if w.simple != nil {
		w.simple.Release()
		w.simple = nil
	}
	if w.pipe != nil {
		w.pipe.Release()
		w.pipe = nil
	}
	if w.op.remaining.Add(-1) == 0 {
		w.op.wallDone = time.Since(w.r.start)
		close(w.op.done)
	}
}
