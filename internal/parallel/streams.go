package parallel

import (
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// StreamSpec identifies one tuple stream of a plan in the canonical
// enumeration every node of a distributed run agrees on: streams are listed
// producer-op by producer-op in plan order; a local (scan-aligned) edge
// contributes one stream per process pair (i -> i), a redistribution edge
// one stream per producer-instance x consumer-instance pair, producer-major.
// The ID is the stream's index in that enumeration — a pure function of the
// plan, so a coordinator and its workers can wire the same stream to the
// same TCP frames without exchanging any wiring metadata.
type StreamSpec struct {
	// ID is the stream's index in the canonical enumeration.
	ID int
	// From and To are the producer and consumer operators.
	From, To *xra.Op
	// In is the consumer's input edge this stream feeds (routing attribute,
	// logical port).
	In *xra.Input
	// FromIdx and ToIdx are the producer and consumer instance indices
	// (positions in the operators' Procs lists).
	FromIdx, ToIdx int
	// FromProc and ToProc are the plan processor ids the endpoint processes
	// are bound to.
	FromProc, ToProc int
	// LocalEdge reports whether the stream belongs to a scan-aligned local
	// edge (one stream per process, no redistribution).
	LocalEdge bool
}

// Streams enumerates every tuple stream of the plan in the canonical order.
// len(Streams(p)) == p.NumStreams() for any valid plan.
func Streams(plan *xra.Plan) []StreamSpec {
	specs := make([]StreamSpec, 0, plan.NumStreams())
	eachStream(plan, func(sp *StreamSpec) { specs = append(specs, *sp) })
	return specs
}

// eachStream calls yield for every tuple stream of the plan in the
// canonical order without materializing the enumeration; the spec passed
// to yield is reused between calls.
func eachStream(plan *xra.Plan, yield func(*StreamSpec)) {
	type edge struct {
		to *xra.Op
		in *xra.Input
	}
	consumers := make(map[string]edge, len(plan.Ops))
	for _, o := range plan.Ops {
		for _, in := range o.Inputs() {
			consumers[in.From] = edge{to: o, in: in}
		}
	}
	var sp StreamSpec
	for _, from := range plan.Ops {
		c, ok := consumers[from.ID]
		if !ok {
			continue // collect: no consumer
		}
		if xra.LocalEdge(from, c.to, c.in) {
			for i := range from.Procs {
				sp = StreamSpec{
					ID: sp.ID, From: from, To: c.to, In: c.in,
					FromIdx: i, ToIdx: i,
					FromProc: from.Procs[i], ToProc: c.to.Procs[i],
					LocalEdge: true,
				}
				yield(&sp)
				sp.ID++
			}
			continue
		}
		for i, fp := range from.Procs {
			for d, tp := range c.to.Procs {
				sp = StreamSpec{
					ID: sp.ID, From: from, To: c.to, In: c.in,
					FromIdx: i, ToIdx: d,
					FromProc: fp, ToProc: tp,
				}
				yield(&sp)
				sp.ID++
			}
		}
	}
}

// InstanceInStreams counts the canonical streams feeding consumer instance
// idx of operator op. This is the per-round token multiplicity a
// punctuation (quiescence) barrier over the plan's streams must wait for:
// a resident view network sends one end-of-round token down every stream,
// and a consumer instance is quiescent for the round once it has collected
// one token per incoming stream (internal/ivm).
func InstanceInStreams(specs []StreamSpec, op *xra.Op, idx int) int {
	n := 0
	for _, s := range specs {
		if s.To == op && s.ToIdx == idx {
			n++
		}
	}
	return n
}

// Partial configures a partial execution of a plan: only the operation
// processes whose plan processor id is Local execute on this node; streams
// that cross the node boundary are handed to a transport through the
// Ingress/Egress hooks instead of being wired process-to-process. This is
// the reuse seam of the distributed runtime (internal/dist): every node of
// a distributed run executes the ordinary worker loop of this package over
// its own process subset, and only the transport differs.
type Partial struct {
	// Local reports whether the processes bound to plan processor id proc
	// execute on this node. It must be a pure function of proc, and the
	// union of all nodes' Local sets must cover the plan exactly once.
	Local func(proc int) bool

	// Ingress is called during setup for every stream whose producer is
	// remote and whose consumer is local, identified by its canonical
	// stream id (Streams). The transport hands each decoded batch to
	// deliver, which posts it straight into the consuming process's
	// mailbox and blocks while the mailbox is full; it reports false, with
	// the batch not taken, once the run is cancelled. At end-of-stream the
	// transport calls end exactly once (it also returns early on
	// cancellation). Batches must come from BatchPool so the consuming
	// process can return them after use.
	Ingress func(id int, deliver func(*relation.Batch) bool, end func())

	// Egress is called during setup for every stream whose producer is
	// local and whose consumer is remote. The transport must drain ch until
	// it is closed (the producer's end-of-stream), forward each batch, and
	// return it to BatchPool; it must also stop draining when the run
	// context is cancelled.
	Egress func(id int, ch chan *relation.Batch)

	// ScanFragment returns the pre-placed base relation fragment of local
	// scan instance idx of operator opID — the distributed substitute for
	// in-process fragmentation (the coordinator fragments once and ships
	// each worker its fragments). It is only called for local scan
	// instances and may be nil on nodes that host none.
	ScanFragment func(opID string, idx int) relation.Batch

	// LeafCard returns the total cardinality of base relation leaf, used
	// for downstream size estimates exactly like rel.Card() in-process.
	LeafCard func(leaf int) int

	// BatchPool, when set, replaces the run's private pool so the transport
	// and the run recycle the same batches. Its batch capacity must equal
	// the resolved Config.BatchTuples.
	BatchPool *relation.BatchPool
}
