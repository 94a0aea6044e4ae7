package spatialdb

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/model"
)

// TestCutConcurrentIngestNeverTornNeverBlocked is the cut-protocol
// stress test (run under -race): continuous snapshot cuts race
// single-shard InsertReadings batches on every floor. Two invariants:
//
//  1. No cut ever observes a torn batch — every object's visible row
//     count is a whole number of batches (the PR-5 atomicity contract,
//     re-asserted against the lock-free protocol under heavier cut
//     pressure).
//  2. Ingest never parks at the cut gate: the optimistic sweep must
//     absorb this load without escalating into writers, which the
//     spatialdb_cut_wait_us histogram proves — it observes only when
//     a bracket actually waited, so its count must not move.
func TestCutConcurrentIngestNeverTornNeverBlocked(t *testing.T) {
	const (
		floors    = 4
		batchLen  = 4
		batches   = 10
		objPerFlr = 2
	)
	if batchLen*batches >= maxReadingsPerObject {
		t.Fatal("test misconfigured: trimming would break the invariant")
	}
	db := multiFloorDB(t, floors)
	for s := 0; s < batchLen; s++ {
		if err := db.RegisterSensor(fmt.Sprintf("s%d", s), longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	waitBase := mCutWaitUs.Count()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var cuts atomic.Int64
	// Writers: one goroutine per object, single-shard batches.
	for f := 1; f <= floors; f++ {
		for o := 0; o < objPerFlr; o++ {
			f, obj := f, fmt.Sprintf("obj-%d-%d", f, o)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					batch := make([]model.Reading, batchLen)
					for s := 0; s < batchLen; s++ {
						batch[s] = floorReading(fmt.Sprintf("s%d", s), obj, f,
							float64(b), float64(s), t0.Add(time.Duration(b)*time.Millisecond))
					}
					if n, err := db.InsertReadings(batch, nil); err != nil || n != batchLen {
						t.Errorf("insert batch: n=%d err=%v", n, err)
						return
					}
				}
			}()
		}
	}
	// Cutters: hammer Snapshot as fast as it will go and check every
	// object for a torn batch on each cut.
	var cutters sync.WaitGroup
	for r := 0; r < 2; r++ {
		cutters.Add(1)
		go func() {
			defer cutters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				cuts.Add(1)
				for f := 1; f <= floors; f++ {
					for o := 0; o < objPerFlr; o++ {
						obj := fmt.Sprintf("obj-%d-%d", f, o)
						if n := len(snap.ReadingsFor(obj, t0)); n%batchLen != 0 {
							t.Errorf("cut saw %d rows for %s: torn batch", n, obj)
							snap.Close()
							return
						}
					}
				}
				snap.Close()
			}
		}()
	}
	wg.Wait()
	// On a single-CPU box the writers can finish before a cutter ever
	// gets scheduled; make sure at least one cut ran before stopping.
	for cuts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	cutters.Wait()
	// The never-blocks half: nothing parked at the gate. (An
	// escalation alone is not a failure — it is the bounded fallback —
	// but under single-shard batches the sweep should win without one,
	// and the hard contract is that ingest never waited.)
	if got := mCutWaitUs.Count(); got != waitBase {
		t.Errorf("ingest parked at the cut gate %d times; cuts must not block ingest", got-waitBase)
	}
	// Every batch landed despite the cut pressure.
	final := db.Snapshot()
	defer final.Close()
	for f := 1; f <= floors; f++ {
		for o := 0; o < objPerFlr; o++ {
			obj := fmt.Sprintf("obj-%d-%d", f, o)
			if n := len(final.ReadingsFor(obj, t0)); n != batchLen*batches {
				t.Errorf("%s: final rows = %d, want %d", obj, n, batchLen*batches)
			}
		}
	}
}

// TestSnapshotEscalationNoLostWakeup forces every cut onto the gate
// drain (zero optimistic rounds) and runs several escalating cutters
// against cross-floor writers on four CPUs. Two escalations overlap
// constantly: one reopens the gate while the other waits on gateCond,
// and a waiter that kept waiting with the gate open would never be
// woken again (wakeCutWaiters broadcasts only while the gate is
// closed). Escalations still arriving can rescue such a waiter, so the
// stuck state shows once the load stops: cutStress runs in short
// rounds, each of which must finish.
func TestSnapshotEscalationNoLostWakeup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	old := snapSweepRounds
	snapSweepRounds = 0
	defer func() { snapSweepRounds = old }()
	escBase := mCutEscalations.Value()
	cutStress(t)
	if mCutEscalations.Value() == escBase {
		t.Error("no cut escalated; the test did not exercise the gate drain")
	}
}

// TestSnapshotCrossFloorBatchesNeverTorn runs the same load through
// the optimistic sweep: captures race batches that span every floor,
// and no cut may show one half applied.
func TestSnapshotCrossFloorBatchesNeverTorn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cutStress(t)
}

// cutStress runs writers whose every batch spans all floors against
// concurrent cutters, in rounds that must each finish within a bound
// (a hung round fails with a goroutine dump instead of hanging), and
// checks every cut for torn batches.
func cutStress(t *testing.T) {
	const (
		floors  = 4
		writers = 4
		cutters = 4
		rounds  = 20
		batches = 50
		cutsPer = 50
	)
	db := multiFloorDB(t, floors)
	if err := db.RegisterSensor("s", longSpec()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					batch := make([]model.Reading, floors)
					for f := 1; f <= floors; f++ {
						obj := fmt.Sprintf("w%d-f%d", w, f)
						batch[f-1] = floorReading("s", obj, f, float64(b%50), 5,
							t0.Add(time.Duration(round*batches+b)*time.Millisecond))
					}
					if _, err := db.InsertReadings(batch, nil); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}()
		}
		for c := 0; c < cutters; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < cutsPer; i++ {
					snap := db.Snapshot()
					// One batch writes one row per floor for its writer,
					// so a whole cut shows equal counts across a
					// writer's objects (the trim caps them all alike).
					for w := 0; w < writers; w++ {
						n1 := len(snap.rowsFor(fmt.Sprintf("w%d-f1", w)))
						for f := 2; f <= floors; f++ {
							if n := len(snap.rowsFor(fmt.Sprintf("w%d-f%d", w, f))); n != n1 {
								t.Errorf("torn batch: writer %d has %d rows on floor %d, %d on floor 1", w, n, f, n1)
							}
						}
					}
					snap.Close()
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("round %d: cutters or writers hung (lost wakeup at the cut gate):\n%s", round, buf)
		}
	}
}

// TestSnapshotPoolLeak pins the handle accounting: every Snapshot
// handle Closed ⇒ the live gauge returns to its baseline, and extra
// Closes don't drive it negative.
func TestSnapshotPoolLeak(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "m", 1, 5, 5, t0)); err != nil {
		t.Fatal(err)
	}
	base := mSnapPoolLive.Value()
	var snaps []*Snapshot
	for i := 0; i < 5; i++ {
		snaps = append(snaps, db.Snapshot())
		if i%2 == 1 {
			// Mutate so later iterations mix pool hits and fresh cuts.
			if err := db.InsertReading(floorReading("s1", "m", 1, float64(6+i), 5,
				t0.Add(time.Duration(i)*time.Second))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := mSnapPoolLive.Value(); got != base+5 {
		t.Fatalf("live gauge after 5 opens = %v, want %v", got, base+5)
	}
	for _, s := range snaps {
		s.Close()
	}
	if got := mSnapPoolLive.Value(); got != base {
		t.Fatalf("live gauge after closing all = %v, want baseline %v: leaked handles", got, base)
	}
	// Double-close and nil-close are no-ops, not gauge corruption.
	snaps[0].Close()
	(*Snapshot)(nil).Close()
	if got := mSnapPoolLive.Value(); got != base {
		t.Fatalf("live gauge after double close = %v, want %v", got, base)
	}
}

// TestSnapshotPoolReuse pins the pool semantics: consecutive cuts with
// no intervening mutation share one Snapshot (a pool hit), any
// mutation forces a fresh capture, and ageing past snapPoolMaxAge
// expires the pooled cut even when nothing changed.
func TestSnapshotPoolReuse(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "m", 1, 5, 5, t0)); err != nil {
		t.Fatal(err)
	}
	hitsBase := mSnapPoolHits.Value()

	s1 := db.Snapshot()
	s2 := db.Snapshot()
	if s1 != s2 {
		t.Error("unchanged database: second cut must reuse the pooled snapshot")
	}
	if got := mSnapPoolHits.Value(); got != hitsBase+1 {
		t.Errorf("pool hits = %d, want %d", got, hitsBase+1)
	}

	// A mutation invalidates the pooled cut.
	if err := db.InsertReading(floorReading("s1", "m", 1, 6, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	s3 := db.Snapshot()
	if s3 == s2 {
		t.Error("cut after a mutation must not reuse the stale pooled snapshot")
	}
	if got := len(s2.ReadingsFor("m", t0.Add(time.Second))); got != 1 {
		t.Errorf("old snapshot changed under reuse: rows = %d, want 1", got)
	}
	if got := len(s3.ReadingsFor("m", t0.Add(time.Second))); got != 2 {
		t.Errorf("fresh snapshot rows = %d, want 2", got)
	}

	// Age-based recycling: an old pooled cut is not reused even when
	// the epoch vector says nothing changed.
	old := snapPoolMaxAge
	snapPoolMaxAge = 0
	defer func() { snapPoolMaxAge = old }()
	s4 := db.Snapshot()
	if s4 == s3 {
		t.Error("pooled snapshot past max age must be recycled, not reused")
	}
	for _, s := range []*Snapshot{s1, s2, s3, s4} {
		s.Close()
	}
}

// TestSnapshotPoolUnchangedShardCloneReuse extends the COW cost model
// across cuts: when only one floor mutates between two cuts, the other
// floor's table clone is carried over — the second cut does not force
// the quiet floor's next writer to clone again.
func TestSnapshotPoolUnchangedShardCloneReuse(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= 2; f++ {
		if err := db.InsertReading(floorReading("s1", fmt.Sprintf("m%d", f), f, 5, 5, t0)); err != nil {
			t.Fatal(err)
		}
	}
	s1 := db.Snapshot()
	defer s1.Close()
	// Mutate floor 1 only, then cut again.
	if err := db.InsertReading(floorReading("s1", "m1", 1, 6, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	s2 := db.Snapshot()
	defer s2.Close()
	if s1 == s2 {
		t.Fatal("mutation must force a fresh snapshot")
	}
	if s1.shards[1].table != s2.shards[1].table {
		t.Error("quiet floor's table clone must carry over between cuts")
	}
	if s1.shards[0].table == s2.shards[0].table {
		t.Error("mutated floor must be recaptured")
	}
	base := mSnapClones.Value()
	// The quiet floor was already frozen by s1; the next write there
	// pays exactly one clone, same as with a single cut.
	if err := db.InsertReading(floorReading("s1", "m2", 2, 6, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if got := mSnapClones.Value(); got != base+1 {
		t.Errorf("quiet floor's first post-cut write: clones %d -> %d, want +1", base, got)
	}
}
