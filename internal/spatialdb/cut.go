package spatialdb

import (
	"time"

	"middlewhere/internal/obs"
)

// The cut protocol (DESIGN.md §16): how Snapshot assembles a
// consistent, none-or-all view of every shard's reading table without
// a global lock on the ingest path.
//
// Every top-level reading-table mutation runs inside a *bracket*:
//
//	beginBatch(shards...)   // publish intent: pending++ (and
//	                        // spanning++ if several) on every
//	                        // target shard BEFORE mutating any
//	... mutate under each shard's readMu ...
//	endBatch(shards...)     // cutSeq++ then spanning--, pending--
//
// A bracket over several shards also counts itself in each target
// shard's spanning count for its whole duration.
//
// A capture of one shard takes the shard's read lock. Every mutation
// of one shard's table happens inside one write-lock hold, so the
// captured table holds a single-shard bracket whole or not at all; the
// capture fails only while a spanning bracket is in flight on the
// shard, since that one may already have written another shard. A
// whole cut is valid only after a *clean sweep*: every shard captured
// before the sweep's last capture re-verifies after it, with spanning
// == 0 and its cutSeq unmoved. That pair of counters is what makes
// cross-shard batches atomic without a global lock: a spanning batch
// either is still in flight on some target shard when the sweep checks
// it (sweep fails), or it finished before every check — in which case
// it bumped cutSeq on ALL its targets, so any capture predating the
// batch mismatches and is retaken. Either way no clean sweep can mix
// pre-batch and post-batch captures. Single-shard brackets never fail
// a capture, so back-to-back writers on one floor cannot starve cuts.
// A cross-floor migration (placeObject) moves rows under both shards'
// write locks and bumps both cutSeqs there: it is an atomic step of
// its own, ordered before the store of the batch that needed it.
//
// Sweeps are optimistic and can in principle keep losing races under
// heavy sustained ingest, so after snapSweepRounds unclean rounds the
// snapshot escalates: it closes cutGate, waits for in-flight brackets
// to drain, captures every shard stably, and reopens the gate. The
// Dekker-style double check in beginBatch (pending++ first, gate load
// second, back out if closed) guarantees the drain terminates: once
// the gate is closed, every new bracket observes it and parks, so
// pending counts only the brackets that were already admitted.
//
// Nested brackets — placeObject migrating rows out of a previous floor
// while the enclosing InsertReadings/ImportObject bracket is open —
// increment pending WITHOUT the gate check: checking the gate there
// would deadlock against a draining snapshot that is waiting for the
// enclosing bracket itself. Lock order: bracket (pending/cutGate) →
// migMu → shard.readMu.

// Cut-protocol metrics. spatialdb_cut_wait_us records time an ingest
// bracket spent parked at the cut gate — it observes nothing on the
// lock-free fast path, so a zero count is the proof that cuts did not
// block ingest.
var (
	mCutWaitUs      = obs.Default().Histogram("spatialdb_cut_wait_us")
	mCutRetries     = obs.Default().Counter("spatialdb_snapshot_capture_retries_total")
	mCutEscalations = obs.Default().Counter("spatialdb_snapshot_escalations_total")
)

// snapSweepRounds bounds the optimistic capture/verify rounds before
// Snapshot escalates to the gate drain. This is the documented retry
// bound: a cut costs at most snapSweepRounds rounds of two O(shards)
// passes plus one drain. A variable so the escalation tests can force
// the drain with 0.
var snapSweepRounds = 8

// beginBatch opens a top-level mutation bracket over the given shards.
// It publishes pending on every shard before the caller mutates any of
// them, so a concurrent cut can tell "batch in flight somewhere" from
// any one target shard. Blocks only while an escalated snapshot holds
// the cut gate closed.
func (db *DB) beginBatch(shs ...*shard) {
	spans := len(shs) > 1
	for {
		if !db.cutGate.Load() {
			for _, sh := range shs {
				sh.pending.Add(1)
				if spans {
					sh.spanning.Add(1)
				}
			}
			// Double check after publishing: the atomics are
			// sequentially consistent, so either the draining snapshot
			// sees our pending or we see its gate (or both) — never
			// neither.
			if !db.cutGate.Load() {
				return
			}
			for _, sh := range shs {
				if spans {
					sh.spanning.Add(-1)
				}
				sh.pending.Add(-1)
			}
			db.wakeCutWaiters()
		}
		db.waitGateOpen()
	}
}

// endBatch closes a bracket whose caller mutated every listed shard:
// cutSeq++ marks the mutation for capture validation, then pending--
// readmits captures. A bracket that turned out to mutate nothing must
// use endBatchClean instead so it does not invalidate pooled cuts.
func (db *DB) endBatch(shs ...*shard) {
	spans := len(shs) > 1
	for _, sh := range shs {
		sh.cutSeq.Add(1)
		if spans {
			sh.spanning.Add(-1)
		}
		sh.pending.Add(-1)
	}
	db.wakeCutWaiters()
}

// endBatchClean closes a bracket that mutated nothing: pending is
// released without moving cutSeq, so pooled cuts stay valid.
func (db *DB) endBatchClean(shs ...*shard) {
	spans := len(shs) > 1
	for _, sh := range shs {
		if spans {
			sh.spanning.Add(-1)
		}
		sh.pending.Add(-1)
	}
	db.wakeCutWaiters()
}

// wakeCutWaiters nudges a draining snapshot after a pending decrement.
// One atomic load on the fast path; the mutex is only touched while a
// snapshot actually holds the gate.
func (db *DB) wakeCutWaiters() {
	if db.cutGate.Load() {
		db.gateMu.Lock()
		db.gateCond.Broadcast()
		db.gateMu.Unlock()
	}
}

// waitGateOpen parks the caller until the escalated snapshot reopens
// the gate, and records the stall in spatialdb_cut_wait_us.
func (db *DB) waitGateOpen() {
	start := time.Now()
	db.gateMu.Lock()
	for db.cutGate.Load() {
		db.gateCond.Wait()
	}
	db.gateMu.Unlock()
	mCutWaitUs.Observe(float64(time.Since(start).Microseconds()))
}

// pendingDrained reports whether no bracket is in flight on any shard.
// Caller holds gateMu with the gate closed, so a true result is stable
// until the gate reopens.
func (db *DB) pendingDrained() bool {
	for _, sh := range db.allShards() {
		if sh.pending.Load() != 0 {
			return false
		}
	}
	return true
}
