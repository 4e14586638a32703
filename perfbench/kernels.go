package main

import (
	"fmt"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/hashjoin"
	"multijoin/internal/relation"
	"multijoin/internal/wisconsin"
)

// replayReps is how many times each kernel replay runs; the median counts.
const replayReps = 5

// timePlans records strategy.plan_ms: the slowest kind's median
// core.Query.Plan time (phase 2 planning, bypassing the plan cache).
func timePlans(ph *phase, qs []core.Query) error {
	var worst float64
	for _, q := range qs {
		var t samples
		for i := 0; i < replayReps; i++ {
			t0 := time.Now()
			if _, err := q.Plan(); err != nil {
				return err
			}
			t.addMs(time.Since(t0))
		}
		worst = max(worst, t.percentile(0.5))
	}
	ph.val["strategy.plan_ms"] = worst
	return nil
}

// replayKernels times the public kernel calls the runtimes are built from
// on the workload's own relations, fragmented to its processor count the
// way a redistribution places them: every adjacent relation pair joins
// fragment by fragment (the higher relation's Unique1 fragments build, the
// lower relation's Unique2 fragments probe). Each figure is nanoseconds per
// input tuple, the median of replayReps passes.
func replayKernels(ph *phase, db *wisconsin.Database, procs int) error {
	k := db.NumRelations()
	byU1 := make([][]relation.Batch, k) // build side: joins on Unique1
	byU2 := make([][]relation.Batch, k) // probe side: joins on Unique2
	var tuples int
	var frag samples
	for rep := 0; rep < replayReps; rep++ {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			byU1[i] = relation.FragmentBatches(db.Relation(i), relation.Unique1, procs)
			byU2[i] = relation.FragmentBatches(db.Relation(i), relation.Unique2, procs)
		}
		frag.add(float64(time.Since(t0).Nanoseconds()))
	}
	for i := 0; i < k; i++ {
		tuples += db.Relation(i).Card()
	}
	ph.val["relation.fragment_ns_per_tuple"] = frag.percentile(0.5) / float64(2*tuples)

	// Join replay over relation pairs (i-1, i).
	var ins, probe, del samples
	var pairTuples int
	for i := 1; i < k; i++ {
		pairTuples += db.Relation(i).Card()
	}
	var dst relation.Batch
	var heads []int32
	for rep := 0; rep < replayReps; rep++ {
		var tIns, tProbe, tDel time.Duration
		for i := 1; i < k; i++ {
			tables := make([]*hashjoin.Table, procs)
			t0 := time.Now()
			for f := range byU1[i] {
				tables[f] = hashjoin.NewTableSized(relation.Unique1, byU1[i][f].Len())
				tables[f].InsertBatchRadix(&byU1[i][f])
			}
			tIns += time.Since(t0)
			matched := 0
			t0 = time.Now()
			for f := range byU2[i-1] {
				dst.Reset()
				heads = tables[f].ProbeBatchInto(&dst, &byU2[i-1][f], relation.Unique2, true, heads)
				matched += dst.Len()
			}
			tProbe += time.Since(t0)
			if want := db.Relation(i - 1).Card(); matched != want {
				return fmt.Errorf("probe replay R%d⋈R%d: %d matches, want %d", i-1, i, matched, want)
			}
			deleted := 0
			t0 = time.Now()
			for f := range byU1[i] {
				deleted += tables[f].DeleteBatch(&byU1[i][f])
			}
			tDel += time.Since(t0)
			for _, t := range tables {
				t.Release()
			}
			if want := db.Relation(i).Card(); deleted != want {
				return fmt.Errorf("delete replay R%d: %d deleted, want %d", i, deleted, want)
			}
		}
		ins.add(float64(tIns.Nanoseconds()))
		probe.add(float64(tProbe.Nanoseconds()))
		del.add(float64(tDel.Nanoseconds()))
	}
	ph.val["hashjoin.insert_ns_per_tuple"] = ins.percentile(0.5) / float64(pairTuples)
	ph.val["hashjoin.probe_ns_per_tuple"] = probe.percentile(0.5) / float64(pairTuples)
	ph.val["hashjoin.delete_ns_per_tuple"] = del.percentile(0.5) / float64(pairTuples)

	// Block codec: every fragment encoded to the wire format and decoded.
	var enc, dec samples
	var buf []byte
	var back relation.Batch
	for rep := 0; rep < replayReps; rep++ {
		var tEnc, tDec time.Duration
		for i := 0; i < k; i++ {
			for f := range byU1[i] {
				t0 := time.Now()
				buf = relation.AppendBlocksBytes(buf[:0], &byU1[i][f], 0)
				t1 := time.Now()
				back.Reset()
				err := back.AppendBlocks(buf)
				tDec += time.Since(t1)
				tEnc += t1.Sub(t0)
				if err != nil {
					return fmt.Errorf("decode replay: %w", err)
				}
				if back.Len() != byU1[i][f].Len() {
					return fmt.Errorf("decode replay: %d tuples back, want %d", back.Len(), byU1[i][f].Len())
				}
			}
		}
		enc.add(float64(tEnc.Nanoseconds()))
		dec.add(float64(tDec.Nanoseconds()))
	}
	ph.val["relation.encode_ns_per_tuple"] = enc.percentile(0.5) / float64(tuples)
	ph.val["relation.decode_ns_per_tuple"] = dec.percentile(0.5) / float64(tuples)
	return nil
}
