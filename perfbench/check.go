package main

import (
	"fmt"

	"multijoin/internal/core"
	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/wisconsin"
)

// fingerprint is an order-independent summary of a result multiset: the
// tuple count and a sum of per-tuple hashes over all three columns (the
// provenance checksum Check identifies which base tuples were combined).
// Sums commute, so arrival order does not matter, and they subtract, so a
// view's expected state can be updated by its delta.
type fingerprint struct {
	n   int64
	sum uint64
}

func tupleHash(t relation.Tuple) uint64 {
	h := uint64(t.Unique1)*0x9e3779b97f4a7c15 ^ uint64(t.Unique2)*0xc2b2ae3d27d4eb4f ^ t.Check
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h
}

func (f *fingerprint) add(t relation.Tuple) { f.n++; f.sum += tupleHash(t) }

func (f *fingerprint) addAll(ts []relation.Tuple) {
	for _, t := range ts {
		f.add(t)
	}
}

func (f fingerprint) plus(g fingerprint) fingerprint  { return fingerprint{f.n + g.n, f.sum + g.sum} }
func (f fingerprint) minus(g fingerprint) fingerprint { return fingerprint{f.n - g.n, f.sum - g.sum} }

func fingerprintOf(r *relation.Relation) fingerprint {
	var f fingerprint
	f.addAll(r.Tuples)
	return f
}

// check compares a result's fingerprint with the reference's.
func (f fingerprint) check(want fingerprint, what string) error {
	if f != want {
		return fmt.Errorf("%s: result has %d tuples (hash %#x), reference %d (hash %#x)", what, f.n, f.sum, want.n, want.sum)
	}
	return nil
}

// referenceFingerprint evaluates the tree sequentially (core.Reference)
// and fingerprints the result.
func referenceFingerprint(db *wisconsin.Database, tree *jointree.Node) fingerprint {
	return fingerprintOf(core.Reference(db, tree))
}

// chainDB generates the workload's Wisconsin chain from the run's seed.
func chainDB(relations, card int, seed int64) (*wisconsin.Database, error) {
	return wisconsin.Chain(wisconsin.Config{Relations: relations, Cardinality: card, Seed: seed})
}
