// Package parallel executes xra plans with real goroutine concurrency — the
// wall-clock counterpart of the discrete-event simulator in package engine.
//
// The simulator reproduces the paper's *structural* cost effects on a
// virtual clock; this package runs the very same plans on the host machine
// so that the FP-vs-RD pipelining tradeoffs can be measured on real cores:
//
//   - every operation process of the plan (one operator replica per
//     processor in Op.Procs) becomes one worker goroutine;
//   - every operation process owns one buffered mailbox, and a tuple stream
//     is a logical tag on it: producers post their batches and the final
//     end-of-stream marker straight into the consumer's mailbox. The n×m
//     streams per redistribution edge (n per local edge) counted by
//     engine.Stats and xra.Plan.NumStreams are enumerated and accounted
//     individually, but cost no channel or goroutine of their own, so a
//     run's goroutines are proportional to its processes;
//   - operand redistribution hash-partitions result batches over the
//     consumer's processes with relation.HashKey, identical to the
//     simulator, so both runtimes compute the identical result multiset;
//   - the plan's processors are modeled by per-processor run queues: one
//     dispatcher goroutine per modeled processor executes the operator work
//     of every process bound (by plan processor id, modulo MaxProcs) to it,
//     serializing a processor's operation processes exactly like the
//     paper's shared-nothing nodes. Channel sends and receives never run on
//     a dispatcher (blocked processes occupy no processor, as on a real
//     machine);
//   - Op.After start dependencies are honored without deadlock: a process
//     whose dependencies are pending keeps draining its input into an
//     unbounded stash (the simulator's "input arriving earlier is
//     buffered") and processes it once the dependencies complete.
//
// The hot data path is allocation-free in steady state: tuple batches come
// from a relation.BatchPool and are returned by the consumer that exhausts
// them, join results are built in per-process scratch buffers, and the join
// operators reuse the open-addressing hash-join state machines of package
// hashjoin sized from the operands' declared cardinalities. The simple join
// blocks its probe operand until the build phase ends, the pipelining join
// processes both operands as they arrive. Result equivalence against the
// sequential reference is asserted for every strategy in the tests.
package parallel

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"multijoin/internal/hashjoin"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/xra"
)

// HostCap returns procs bounded by the host's GOMAXPROCS: the MaxProcs to
// use when a plan targets more processors than the machine has cores.
// Plans must keep their full processor count (RD and FP need one processor
// per concurrently executing join); only the dispatcher count is capped.
func HostCap(procs int) int {
	if n := runtime.GOMAXPROCS(0); procs > n {
		return n
	}
	return procs
}

// Sink consumes the final result stream of one run. The runtime transfers
// batch ownership with every Push: release (which may be nil) returns the
// batch to its pool and must be called exactly once, when the consumer has
// finished with the tuples. Push blocks until the consumer accepts the
// batch — streaming backpressure — or ctx is cancelled, in which case it
// returns the context's error and keeps ownership of the batch.
type Sink interface {
	Push(ctx context.Context, batch *relation.Batch, release func()) error
}

// sharedQueueDepth is the buffered capacity of each shared run queue. A
// worker has at most one task outstanding, so queued tasks never exceed the
// live worker count; the buffer only smooths bursts — a full queue simply
// blocks the producing worker (which selects on its run's cancellation).
const sharedQueueDepth = 256

// ProcPool is a set of modeled processors: one run-queue dispatcher
// goroutine each. Shared (Config.Pool), it serves the operation processes
// of *every* run configured with it — the session-level resource that caps
// concurrent computation across in-flight queries; a run without one
// starts a private pool for its own processes. Close stops the
// dispatchers; it must not be called while runs still use the pool.
type ProcPool struct {
	queues []chan task
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewProcPool starts a pool of n modeled processors (n < 1 means
// GOMAXPROCS). Plan processor id p is served by dispatcher p mod n.
func NewProcPool(n int) *ProcPool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := newProcPool(n, sharedQueueDepth)
	p.start()
	return p
}

// newProcPool creates the run queues of n modeled processors, each buffered
// for depth tasks, without starting their dispatchers.
func newProcPool(n, depth int) *ProcPool {
	p := &ProcPool{queues: make([]chan task, n), stop: make(chan struct{})}
	for i := range p.queues {
		p.queues[i] = make(chan task, depth)
	}
	return p
}

// start launches one dispatcher goroutine per run queue.
func (p *ProcPool) start() {
	for _, q := range p.queues {
		p.wg.Add(1)
		go p.dispatch(q)
	}
}

// Size returns the number of modeled processors (dispatchers).
func (p *ProcPool) Size() int { return len(p.queues) }

// Close stops every dispatcher and waits for them to exit. Tasks of
// cancelled runs that are still queued are drained (their workers have
// already unwound; completing the task is harmless and never blocks).
func (p *ProcPool) Close() {
	close(p.stop)
	p.wg.Wait()
}

// dispatch is one modeled processor: it serializes the operator work of
// every process bound to its run queue. It does not exit on any run's
// cancellation: a cancelled run's workers unwind on their own, and a stale
// queued task is completed harmlessly (the taskDone send is buffered for
// the one task its worker had outstanding, so it never blocks).
func (p *ProcPool) dispatch(q chan task) {
	defer p.wg.Done()
	for {
		select {
		case t := <-q:
			t.w.applyJoin(t.it)
			t.w.taskDone <- struct{}{}
		case <-p.stop:
			return
		}
	}
}

// Config parameterizes one parallel execution.
type Config struct {
	// MaxProcs is the number of modeled processors: one run-queue
	// dispatcher goroutine each. Plan processor id p maps to dispatcher
	// p mod MaxProcs, so at most MaxProcs operation processes compute at
	// any instant and processes sharing a plan processor are serialized on
	// the same dispatcher. Zero means the plan's own processor count
	// (MaxProc+1), i.e. the machine the plan was generated for.
	MaxProcs int
	// BatchTuples is the number of tuples per transport batch (the
	// pipelining granularity and the batch-pool capacity). Zero means
	// DefaultBatchTuples.
	BatchTuples int
	// ChannelDepth is the number of batches buffered per incoming tuple
	// stream; it is resolved once per run, not per edge. Each process's
	// mailbox holds ChannelDepth × its incoming stream count items, so a
	// producer whose consumer has not been scheduled yet can post that
	// many batches before it blocks. Zero means DefaultChannelDepth.
	ChannelDepth int
	// MemoryBudget, when positive, switches the run to out-of-core mode
	// (the "spill" runtime): live pooled batches and buffered join
	// operands are accounted against the budget in bytes, join processes
	// use Grace-style partitioned joins (hashjoin.Grace), and operand
	// tuples overflowing the budget are serialized to temp-file partitions
	// that are re-read partition-at-a-time once both operands ended. Zero
	// keeps the in-memory pipelining execution.
	//
	// Out-of-core mode trades the paper's pipelining for the memory
	// bound: every join materializes (partitioned, possibly on disk)
	// before producing output, and join work runs on the worker goroutine
	// rather than the processor dispatcher, since it may block on file
	// I/O. The result multiset is identical to the in-memory runtimes.
	//
	// The budget bounds the partitioning phase (buffered operands plus
	// pooled batches in flight); the drain phase additionally meters the
	// one hash table it rebuilds at a time (its residency stays bounded
	// structurally at ~1/hashjoin.GraceFanout of one operand per process,
	// but the reservation is visible, so concurrent runs on a shared meter
	// spill in response).
	MemoryBudget int64

	// Pool, when set, executes this run's operator work on a shared,
	// long-lived ProcPool instead of launching per-run dispatchers — the
	// engine session mode, where one set of modeled processors caps
	// concurrent computation across every in-flight query. MaxProcs is
	// ignored; the pool's size takes its place.
	Pool *ProcPool

	// Meter, when set, accounts this run against a shared memory budget
	// (an engine session's spill.Meter child) instead of a private
	// NewMeter(MemoryBudget). It implies out-of-core mode like a positive
	// MemoryBudget, whose value is then ignored: the shared meter carries
	// its own budget. The caller owns the meter's lifecycle (Settle).
	Meter *spill.Meter

	// Partial, when set, executes only the operation processes placed on
	// this node and hands node-crossing streams to the configured transport
	// (the distributed runtime's reuse seam — see Partial). Incompatible
	// with Pool and with out-of-core mode (MemoryBudget/Meter).
	Partial *Partial
}

// Defaults for Config zero values.
//
// DefaultBatchTuples is the transport vector size of the goroutine
// runtimes, deliberately larger than the simulator's cost-model granularity
// (costmodel.Params.BatchTuples): every batch send costs a fixed number of
// channel operations and a run-queue handshake, so with columnar batches
// the per-batch overhead amortizes over 4x more tuples while a batch still
// stays a few KB of cache-warm columns.
// DefaultSpillBatchTuples is the transport vector size of memory-budgeted
// (out-of-core) runs. Pooled batches are metered against the run's budget,
// so smaller vectors keep the accounting granularity — and the residency a
// blocked stream pins — fine enough for tight budgets to keep their
// meaning.
const (
	DefaultBatchTuples      = 256
	DefaultSpillBatchTuples = 64
	DefaultChannelDepth     = 4
)

func (c Config) withDefaults(plan *xra.Plan) Config {
	if c.Pool != nil {
		c.MaxProcs = c.Pool.Size()
	} else if c.MaxProcs < 1 {
		c.MaxProcs = plan.MaxProc() + 1
		if c.MaxProcs < 1 {
			c.MaxProcs = 1
		}
	}
	if c.BatchTuples < 1 {
		if c.MemoryBudget > 0 || c.Meter != nil {
			c.BatchTuples = DefaultSpillBatchTuples
		} else {
			c.BatchTuples = DefaultBatchTuples
		}
	}
	if c.ChannelDepth < 1 {
		c.ChannelDepth = DefaultChannelDepth
	}
	return c
}

// Stats aggregates the structural counters of one parallel run, mirroring
// engine.Stats where the quantity is meaningful on a real machine.
type Stats struct {
	// Processes is the number of operation processes (worker goroutines).
	Processes int
	// Streams is the number of logical tuple streams (producer × consumer
	// process pairs); each is a tag on its consumer's mailbox, not a
	// channel.
	Streams int
	// Goroutines is the total number of goroutines launched: one worker
	// per local process, one waiter per operator with pending After
	// dependencies, and one dispatcher per modeled processor of a run
	// without a shared Pool.
	Goroutines int
	// MaxProcs is the number of modeled processors (run-queue
	// dispatchers).
	MaxProcs int
	// TuplesMovedRemote counts tuples that crossed plan-processor
	// boundaries (producer and consumer process bound to different
	// processor ids).
	TuplesMovedRemote int64
	// TuplesLocal counts tuples delivered between processes bound to the
	// same processor id.
	TuplesLocal int64
	// Batches counts delivered data batches.
	Batches int64
	// ResultTuples is the cardinality of the final result.
	ResultTuples int
	// OpWall maps operator ids to their wall-clock completion offset from
	// query start.
	OpWall map[string]time.Duration

	// Out-of-core counters (zero unless Config.MemoryBudget was set).

	// BytesSpilled is the total bytes written to spill-partition files.
	BytesSpilled int64
	// SpillPartitions is the number of spill-partition files created.
	SpillPartitions int
	// SpillTime is the total wall time spent on spill-file I/O.
	SpillTime time.Duration
}

// RunResult is the outcome of one parallel execution.
type RunResult struct {
	// Result is the collected final relation (real tuples, same multiset
	// as the simulator and the sequential reference).
	Result *relation.Relation
	// WallTime is the elapsed real time from launch to the completion of
	// the last operation process.
	WallTime time.Duration
	// Stats holds structural counters.
	Stats Stats
}

// port identifies one logical input of an operator (same roles as the
// simulator's ports). It is a byte so a mailbox item stays two words.
type port uint8

const (
	portBuild port = iota
	portProbe
	portIn
)

// item is one unit of work in a process's mailbox: a data batch or an
// end-of-stream marker for one port. Data batches are pool-owned: the
// consumer that applies one returns it to the run's BatchPool.
type item struct {
	batch *relation.Batch
	port  port
	eos   bool
}

// task is one unit of operator work on a run queue: the process requesting
// computation and the input item to apply. The dispatcher runs the
// operator's state change and signals the process's taskDone channel.
type task struct {
	w  *inst
	it item
}

// stream is the producer side of one tuple stream: the consumer process
// whose mailbox receives its batches and end-of-stream marker, tagged with
// the consumer port. A stream whose consumer runs on another node posts
// into the transport's egress channel instead, and ends it by closing it.
type stream struct {
	to     *inst
	egress chan *relation.Batch
	port   port
	remote bool // producer and consumer bound to different processor ids
}

// post delivers one item to w's mailbox, giving up when the run is
// cancelled. It reports whether the item was delivered.
func (r *runtimeState) post(w *inst, it item) bool {
	select {
	case w.mailbox <- it:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// consumerEdge describes where an operator's output goes.
type consumerEdge struct {
	to    *opState
	port  port
	route relation.Attr
	local bool
}

// opState is the shared runtime state of one plan operator.
type opState struct {
	op        *xra.Op
	instances []*inst
	edge      *consumerEdge // nil only for collect
	deps      []*opState
	// locals is the number of instances placed on this node (all of them
	// unless the run is partial).
	locals int

	// estCard is the estimated output cardinality of the operator (exact
	// for scans, an upper-bound estimate for the 1:1 chain joins), used to
	// size hash tables and the collect relation up front.
	estCard int

	ready     chan struct{} // closed when all After dependencies completed
	done      chan struct{} // closed when all instances finished
	remaining atomic.Int32
	wallDone  time.Duration // written by the closing instance before close(done)
}

// spillState carries the out-of-core machinery of one budgeted run: the
// memory meter, the per-run temp directory every partition file lives in,
// and the Grace joins to close during cleanup.
type spillState struct {
	meter  *spill.Meter
	dir    string
	graces []*hashjoin.Grace
}

// cleanup closes every Grace join (releasing file descriptors and meter
// reservations) and removes the run's temp directory wholesale. It must run
// after every goroutine of the run has exited.
func (s *spillState) cleanup() {
	for _, g := range s.graces {
		g.Close()
	}
	os.RemoveAll(s.dir)
}

// runtimeState carries one execution.
type runtimeState struct {
	plan    *xra.Plan
	cfg     Config
	ctx     context.Context
	pool    *relation.BatchPool
	retain  int                         // per-pool free-list bound
	pools   map[int]*relation.BatchPool // batch capacity → pool; nil until a sized pool exists
	ops     map[string]*opState
	order   []*opState
	spill   *spillState // nil unless the run is budgeted (MemoryBudget/Meter)
	partial *Partial    // nil for whole-plan (single-node) runs

	// sink, when set, receives the final result stream (collect pushes
	// pooled batches instead of materializing); resultTuples counts what
	// was pushed. When nil, collect gathers into a Relation as before.
	sink         Sink
	resultTuples atomic.Int64

	// failOnce/failErr record the first internal failure (spill I/O); the
	// recording goroutine cancels the run context so every other goroutine
	// unwinds as if the caller had cancelled.
	failOnce  sync.Once
	failErr   error
	cancelRun context.CancelFunc

	// procs are the modeled processors: Config.Pool, or a private pool
	// started in launch and closed once every worker finished. Plan
	// processor id p is served by procs.queues[p mod procs.Size()].
	procs *ProcPool

	collect *inst
	start   time.Time
	wg      sync.WaitGroup

	goroutines   int
	remoteTuples atomic.Int64
	localTuples  atomic.Int64
	batches      atomic.Int64
}

// Run executes the plan against the base relations (leaf index → relation)
// with real goroutine concurrency and returns the collected result and
// wall-clock statistics.
func Run(plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config) (*RunResult, error) {
	return RunContext(context.Background(), plan, base, cfg)
}

// RunContext is Run with cancellation: every worker goroutine and
// dependency waiter selects on ctx.Done() at each blocking point — every
// mailbox post included — and a run's private dispatchers stop once its
// workers returned, so a cancelled query tears the whole process tree down
// (no goroutine outlives the call) and the context's error is returned
// instead of a partial result.
func RunContext(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config) (*RunResult, error) {
	return run(ctx, plan, base, cfg, nil)
}

// RunStream executes the plan in streaming mode: instead of materializing
// the final relation, the collect process pushes each pooled result batch
// into sink (transferring ownership; the consumer's release returns it to
// the run's pool) and RunResult.Result is nil. Push backpressure propagates
// upstream through the plan's mailboxes, and cancelling ctx mid-stream tears
// every worker down exactly like RunContext.
func RunStream(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config, sink Sink) (*RunResult, error) {
	if sink == nil {
		return nil, fmt.Errorf("parallel: RunStream needs a sink")
	}
	return run(ctx, plan, base, cfg, sink)
}

func run(ctx context.Context, plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config, sink Sink) (*RunResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	if cfg.Partial != nil {
		if cfg.Partial.Local == nil {
			return nil, fmt.Errorf("parallel: Partial needs a Local placement function")
		}
		if cfg.Partial.Ingress == nil || cfg.Partial.Egress == nil {
			return nil, fmt.Errorf("parallel: Partial needs Ingress and Egress transport hooks")
		}
		if cfg.Pool != nil || cfg.MemoryBudget > 0 || cfg.Meter != nil {
			return nil, fmt.Errorf("parallel: Partial is incompatible with Pool and out-of-core mode")
		}
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	r := &runtimeState{
		plan:      plan,
		cfg:       cfg.withDefaults(plan),
		ctx:       runCtx,
		cancelRun: cancelRun,
		sink:      sink,
		partial:   cfg.Partial,
		ops:       make(map[string]*opState, len(plan.Ops)),
	}
	retain := plan.NumStreams() * (r.cfg.ChannelDepth + 1)
	if retain > relation.MaxPoolRetain {
		retain = relation.MaxPoolRetain
	}
	r.retain = retain
	if r.cfg.MemoryBudget > 0 || r.cfg.Meter != nil {
		dir, err := os.MkdirTemp("", "mjspill-")
		if err != nil {
			return nil, fmt.Errorf("parallel: spill dir: %w", err)
		}
		meter := r.cfg.Meter
		if meter == nil {
			meter = spill.NewMeter(r.cfg.MemoryBudget)
		}
		r.spill = &spillState{meter: meter, dir: dir}
		r.pool = relation.NewBatchPoolAccounted(r.cfg.BatchTuples, retain, meter.Add)
	} else if r.partial != nil && r.partial.BatchPool != nil {
		r.pool = r.partial.BatchPool
	} else {
		r.pool = relation.NewBatchPool(r.cfg.BatchTuples, retain)
	}
	if err := r.setup(base); err != nil {
		if r.spill != nil {
			r.spill.cleanup()
		}
		return nil, err
	}
	r.start = time.Now()
	r.launch()
	r.wg.Wait()
	if r.cfg.Pool == nil {
		r.procs.Close()
	}
	if r.spill != nil {
		r.spill.cleanup()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	if r.failErr != nil {
		return nil, fmt.Errorf("parallel: %w", r.failErr)
	}
	return r.finish(), nil
}

// fail records the first internal failure and cancels the run so every
// goroutine unwinds; RunContext returns the recorded error.
func (r *runtimeState) fail(err error) {
	r.failOnce.Do(func() {
		r.failErr = err
		r.cancelRun()
	})
}

// setup builds operator and process state, wires dependency edges, tags
// every tuple stream onto its consumer's mailbox, creates one run queue per
// modeled processor, and pre-places base relation fragments.
func (r *runtimeState) setup(base func(leaf int) *relation.Relation) error {
	for _, op := range r.plan.Ops {
		os := &opState{op: op, ready: make(chan struct{}), done: make(chan struct{})}
		r.ops[op.ID] = os
		r.order = append(r.order, os)
	}
	// Per-processor run queues: plan processor id p maps to queue
	// p mod MaxProcs. A shared pool (engine session) brings its own queues
	// and long-lived dispatchers; otherwise the run creates a private pool,
	// its queues buffered for every process so a send can only block while
	// the queue is genuinely backed up.
	r.procs = r.cfg.Pool
	if r.procs == nil {
		r.procs = newProcPool(r.cfg.MaxProcs, r.plan.NumProcesses()+1)
	}
	// Wire consumer edges and After dependencies.
	for _, os := range r.order {
		for _, in := range os.op.Inputs() {
			from := r.ops[in.From]
			from.edge = &consumerEdge{
				to:    os,
				port:  portOf(os.op, in),
				route: in.Route,
				local: xra.LocalEdge(from.op, os.op, in),
			}
		}
		for _, a := range os.op.After {
			os.deps = append(os.deps, r.ops[a])
		}
	}
	// Create one process (worker) per operator replica, bound to its
	// processor's run queue. In a partial run, instances whose processor is
	// placed on another node exist only as routing targets: they are never
	// launched and own no mailbox. In out-of-core mode every join process
	// gets a Grace join up front (single-threaded here, so registration for
	// cleanup needs no lock).
	for _, os := range r.order {
		for i, procID := range os.op.Procs {
			w := &inst{
				r:          r,
				op:         os,
				idx:        i,
				proc:       procID,
				local:      r.partial == nil || r.partial.Local(procID),
				queue:      r.procs.queues[queueIndex(procID, r.procs.Size())],
				taskDone:   make(chan struct{}, 1),
				eosWant:    make(map[port]int),
				eosGot:     make(map[port]int),
				emitTuples: r.cfg.BatchTuples,
				emitPool:   r.pool,
			}
			if w.local {
				os.locals++
			}
			if w.local && r.spill != nil && (os.op.Kind == xra.OpSimpleJoin || os.op.Kind == xra.OpPipeJoin) {
				spec := hashjoin.Spec{BuildIsLower: os.op.BuildIsLower}
				w.grace = hashjoin.NewGrace(spec, r.spill.meter, r.spill.dir, r.pool)
				r.spill.graces = append(r.spill.graces, w.grace)
			}
			os.instances = append(os.instances, w)
		}
		os.remaining.Store(int32(os.locals))
		if os.locals == 0 {
			// No process of this operator runs here; its completion is
			// another node's business. Closing done up front keeps local
			// After dependencies on it from blocking (cross-node After
			// ordering is node-local — see internal/dist).
			close(os.done)
		}
	}
	// Pre-place base relation fragments: ideal initial fragmentation
	// (Section 4.1), identical to the simulator — fragment i of a scan
	// goes to scan process i. A partial run receives its fragments
	// pre-placed by the coordinator (Partial.ScanFragment) instead of
	// fragmenting in-process.
	var tupleBytes int
	for _, os := range r.order {
		if os.op.Kind != xra.OpScan {
			continue
		}
		if r.partial != nil {
			if r.partial.LeafCard == nil {
				return fmt.Errorf("parallel: Partial needs LeafCard")
			}
			os.estCard = r.partial.LeafCard(os.op.Leaf)
			for i, w := range os.instances {
				if !w.local {
					continue
				}
				if r.partial.ScanFragment == nil {
					return fmt.Errorf("parallel: Partial needs ScanFragment (local scan %s/%d)", os.op.ID, i)
				}
				w.scanBatch = r.partial.ScanFragment(os.op.ID, i)
			}
			continue
		}
		rel := base(os.op.Leaf)
		if rel == nil {
			return fmt.Errorf("parallel: no base relation for leaf %d", os.op.Leaf)
		}
		if tupleBytes == 0 {
			tupleBytes = rel.TupleBytes
		}
		os.estCard = rel.Card()
		frags := relation.FragmentBatches(rel, os.op.FragAttr, len(os.instances))
		for i, w := range os.instances {
			w.scanBatch = frags[i]
		}
	}
	// Propagate cardinality estimates downstream (plan order lists
	// producers before consumers). The chain query's joins are 1:1, so the
	// larger operand bounds the output; the estimates size hash tables and
	// the collect relation so the hot path never regrows them.
	for _, os := range r.order {
		if os.op.Kind == xra.OpScan {
			continue
		}
		for _, in := range os.op.Inputs() {
			if from := r.ops[in.From]; from.estCard > os.estCard {
				os.estCard = from.estCard
			}
		}
		if os.op.Kind == xra.OpCollect {
			w := os.instances[0]
			if w.local {
				r.collect = w
				if r.sink == nil {
					w.gathered = relation.NewWithCap("result", tupleBytes, os.estCard)
				}
			}
		}
	}
	// Size each producer's transport batches from its estimated per-stream
	// cardinality. A redistribution edge opens producers × consumers streams
	// and a pooled buffer sits on every one of them; with the single global
	// batch size a stream-heavy RD plan pins far more batch memory than
	// tuples it ever moves. A stream expected to carry a few dozen tuples
	// gets a correspondingly small pooled batch instead; batches of
	// different capacities live in per-size pools (putBatch routes returns
	// by capacity, since a pool silently drops — and an accounted pool never
	// un-meters — foreign-capacity batches). Partial (distributed) runs keep
	// the uniform size: the transport owns the pool and peer nodes must
	// agree on wire batch capacity.
	if r.partial == nil {
		for _, os := range r.order {
			if os.edge == nil {
				continue
			}
			dests := len(os.edge.to.instances)
			if os.edge.local {
				dests = 1
			}
			per := os.estCard / (len(os.instances) * dests)
			bt := sizeTransportBatch(per, r.cfg.BatchTuples)
			pool := r.pool
			if bt != r.cfg.BatchTuples {
				pool = r.transportPool(bt)
			}
			for _, w := range os.instances {
				w.emitTuples = bt
				w.emitPool = pool
			}
		}
	}
	// Tag the tuple streams, iterating the canonical enumeration (Streams)
	// so a partial run's stream ids can never drift from its peers': on a
	// local edge, producer process i posts into consumer process i's
	// mailbox; on a redistribution edge every producer process posts into
	// every consumer process's mailbox. Each stream counts once toward its
	// consumer's end-of-stream accounting on its port. Streams with both
	// endpoints on other nodes are skipped; streams crossing the node
	// boundary are handed to the transport: an egress channel the transport
	// drains, or (once the mailboxes exist) an ingress delivery hook.
	var ingress []StreamSpec
	eachStream(r.plan, func(sp *StreamSpec) {
		fromOS, toOS := r.ops[sp.From.ID], r.ops[sp.To.ID]
		w := fromOS.instances[sp.FromIdx]
		dest := toOS.instances[sp.ToIdx]
		if !w.local && !dest.local {
			return
		}
		p := portOf(toOS.op, sp.In)
		if dest.local {
			dest.eosWant[p]++
		}
		if !w.local {
			ingress = append(ingress, *sp)
			return
		}
		if w.outs == nil {
			nd := len(toOS.instances)
			if sp.LocalEdge {
				nd = 1
			}
			w.outs = make([]stream, nd)
			w.outBufs = make([]*relation.Batch, nd)
		}
		d := sp.ToIdx
		if sp.LocalEdge {
			d = 0
		}
		s := &w.outs[d]
		*s = stream{to: dest, port: p, remote: sp.FromProc != sp.ToProc}
		if !dest.local {
			s.egress = make(chan *relation.Batch, r.cfg.ChannelDepth)
			r.partial.Egress(sp.ID, s.egress)
		}
	})
	// One mailbox per local process, holding ChannelDepth batches per
	// incoming stream.
	for _, os := range r.order {
		for _, w := range os.instances {
			if !w.local {
				continue
			}
			in := 0
			for _, n := range w.eosWant {
				in += n
			}
			w.mailbox = make(chan item, max(1, in*r.cfg.ChannelDepth))
		}
	}
	for _, sp := range ingress {
		dest := r.ops[sp.To.ID].instances[sp.ToIdx]
		p := portOf(sp.To, sp.In)
		r.partial.Ingress(sp.ID,
			func(b *relation.Batch) bool { return r.post(dest, item{port: p, batch: b}) },
			func() { r.post(dest, item{port: p, eos: true}) })
	}
	return nil
}

// minTransportTuples is the floor of the per-stream transport batch size:
// below a couple of cache lines per column the per-batch channel and
// run-queue overhead dominates any residency win.
const minTransportTuples = 16

// sizeTransportBatch picks a producer's transport batch capacity: the run's
// configured size when the stream is expected to fill it, otherwise the
// power-of-two ceiling of the expected per-stream tuple count (so pools stay
// few and batch capacities stay round), floored at minTransportTuples.
func sizeTransportBatch(expected, max int) int {
	if expected >= max {
		return max
	}
	bt := minTransportTuples
	for bt < expected {
		bt <<= 1
	}
	if bt > max {
		return max
	}
	return bt
}

// transportPool returns the run's batch pool for the given capacity,
// creating it on first use. Only called from the single-threaded setup;
// the pools map is read-only once workers launch.
func (r *runtimeState) transportPool(bt int) *relation.BatchPool {
	if r.pools == nil {
		r.pools = map[int]*relation.BatchPool{r.cfg.BatchTuples: r.pool}
	}
	if p, ok := r.pools[bt]; ok {
		return p
	}
	var p *relation.BatchPool
	if r.spill != nil {
		p = relation.NewBatchPoolAccounted(bt, r.retain, r.spill.meter.Add)
	} else {
		p = relation.NewBatchPool(bt, r.retain)
	}
	r.pools[bt] = p
	return p
}

// putBatch returns a consumed transport batch to the pool it came from,
// routing by capacity: with per-stream batch sizing a consumer receives
// batches from differently-sized producer pools, and handing a batch to the
// wrong pool would silently drop it — never reversing an accounted pool's
// meter charge until Settle.
func (r *runtimeState) putBatch(b *relation.Batch) {
	if r.pools != nil {
		if p, ok := r.pools[b.Cap()]; ok {
			p.Put(b)
			return
		}
	}
	r.pool.Put(b)
}

// queueIndex maps a plan processor id to its run queue. The scheduler
// host's pseudo id (xra.HostProc, negative) wraps around like any other.
func queueIndex(proc, n int) int {
	i := proc % n
	if i < 0 {
		i += n
	}
	return i
}

// portOf resolves which logical port an input feeds, by identity with the
// operator's input fields (as the simulator does).
func portOf(op *xra.Op, in *xra.Input) port {
	switch in {
	case op.Build:
		return portBuild
	case op.Probe:
		return portProbe
	default:
		return portIn
	}
}

// launch starts dispatchers, dependency waiters and one worker per local
// process — nothing per stream. Every blocking channel operation selects on
// ctx.Done() so cancellation unwinds the whole goroutine tree.
func (r *runtimeState) launch() {
	done := r.ctx.Done()
	if r.cfg.Pool == nil {
		r.procs.start()
		r.goroutines += r.procs.Size()
	}
	for _, os := range r.order {
		if len(os.deps) == 0 || os.locals == 0 {
			close(os.ready)
		} else {
			r.wg.Add(1)
			r.goroutines++
			go func() {
				defer r.wg.Done()
				for _, d := range os.deps {
					select {
					case <-d.done:
					case <-done:
						return
					}
				}
				close(os.ready)
			}()
		}
		for _, w := range os.instances {
			if !w.local {
				continue
			}
			r.wg.Add(1)
			r.goroutines++
			go w.run()
		}
	}
}

// finish assembles the run result after every goroutine exited.
func (r *runtimeState) finish() *RunResult {
	var last time.Duration
	opWall := make(map[string]time.Duration, len(r.order))
	for _, os := range r.order {
		opWall[os.op.ID] = os.wallDone
		if os.op.Kind != xra.OpCollect && os.wallDone > last {
			last = os.wallDone
		}
	}
	resultTuples := int(r.resultTuples.Load())
	var gathered *relation.Relation
	if r.collect != nil {
		gathered = r.collect.gathered
		if r.sink == nil {
			resultTuples = gathered.Card()
		}
	}
	res := &RunResult{
		Result:   gathered, // nil in streaming mode (the sink consumed the tuples) and on worker nodes
		WallTime: last,
		Stats: Stats{
			Processes:         r.plan.NumProcesses(),
			Streams:           r.plan.NumStreams(),
			Goroutines:        r.goroutines,
			MaxProcs:          r.cfg.MaxProcs,
			TuplesMovedRemote: r.remoteTuples.Load(),
			TuplesLocal:       r.localTuples.Load(),
			Batches:           r.batches.Load(),
			ResultTuples:      resultTuples,
			OpWall:            opWall,
		},
	}
	if r.spill != nil {
		res.Stats.BytesSpilled = r.spill.meter.SpilledBytes()
		res.Stats.SpillPartitions = r.spill.meter.Partitions()
		res.Stats.SpillTime = r.spill.meter.IOTime()
	}
	return res
}
