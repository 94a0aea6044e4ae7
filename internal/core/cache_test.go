package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// TestFusionStateCaching checks the memo discipline at the entry
// level: a repeated query at the same instant reuses the cached entry,
// and each invalidation source — a new reading, a sensor-table change,
// an object-table change, clock movement past the quantum — produces a
// fresh one.
func TestFusionStateCaching(t *testing.T) {
	s, clock := newTestService(t)
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)

	_, e1 := s.fusionState("alice", clock.Now())
	_, e2 := s.fusionState("alice", clock.Now())
	if e1 != e2 {
		t.Error("repeat query at the same instant rebuilt the entry")
	}

	// Within the quantum the entry still serves.
	clock.Advance(10 * time.Millisecond)
	_, e3 := s.fusionState("alice", clock.Now())
	if e3 != e1 {
		t.Error("query within the cache quantum rebuilt the entry")
	}

	// A new reading invalidates.
	ingestAt(t, s, "ubi-1", "alice", 372, 15, clock.Now())
	_, e4 := s.fusionState("alice", clock.Now())
	if e4 == e1 {
		t.Error("cached entry survived a newer reading")
	}

	// A sensor-table change invalidates (calibration affects fusion).
	spec := model.RFIDSpec(0.7)
	if err := s.RegisterSensor("rf-new", spec); err != nil {
		t.Fatal(err)
	}
	_, e5 := s.fusionState("alice", clock.Now())
	if e5 == e4 {
		t.Error("cached entry survived a sensor registration")
	}

	// Past the quantum the entry expires (temporal degradation moves).
	clock.Advance(defaultCacheQuantum + time.Millisecond)
	_, e6 := s.fusionState("alice", clock.Now())
	if e6 == e5 {
		t.Error("cached entry served past the validity quantum")
	}
}

// TestCacheQuantumZero restricts reuse to the exact query instant.
func TestCacheQuantumZero(t *testing.T) {
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now), WithCacheQuantum(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Minute
	if err := s.RegisterSensor("ubi-1", spec); err != nil {
		t.Fatal(err)
	}
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)

	_, e1 := s.fusionState("alice", clock.Now())
	_, e2 := s.fusionState("alice", clock.Now())
	if e1 != e2 {
		t.Error("same-instant query missed with quantum 0")
	}
	clock.Advance(time.Millisecond)
	_, e3 := s.fusionState("alice", clock.Now())
	if e3 == e1 {
		t.Error("entry reused at a later instant with quantum 0")
	}
}

// TestLocateObjectCachedAnswerMatchesCold compares the warm answer
// against the cold one field by field: memoization must not change
// results, including the privacy clamp applied after the cache.
func TestLocateObjectCachedAnswerMatchesCold(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)
	cold, err := s.LocateObject("alice")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.LocateObject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rect != cold.Rect || warm.Prob != cold.Prob || warm.Band != cold.Band ||
		warm.Symbolic.String() != cold.Symbolic.String() || !warm.At.Equal(cold.At) {
		t.Errorf("warm answer diverged: cold=%+v warm=%+v", cold, warm)
	}

	// Privacy applies on top of the cached estimate.
	s.SetPrivacy("alice", PrivacyPolicy{MaxGranularity: glob.GranFloor})
	clamped, err := s.LocateObject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Symbolic.String() != "CS/Floor3" {
		t.Errorf("privacy clamp skipped on warm path: %s", clamped.Symbolic)
	}
}

// TestIngestBatchMatchesSerialIngest feeds the same readings once as a
// batch and once one at a time into twin services; every fused answer
// and trigger firing must agree.
func TestIngestBatchMatchesSerialIngest(t *testing.T) {
	build := func(t *testing.T) (*Service, *[]Notification, *sync.Mutex) {
		clock := &testClock{now: t0}
		s, err := New(building.PaperFloor(), WithClock(clock.Now))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		spec := model.UbisenseSpec(0.9)
		spec.TTL = time.Minute
		if err := s.RegisterSensor("ubi-1", spec); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got []Notification
		_, err = s.Subscribe(Subscription{
			Region:       glob.MustParse("CS/Floor3/NetLab"),
			EveryReading: true,
			Handler: func(n Notification) {
				mu.Lock()
				got = append(got, n)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, &got, &mu
	}

	readings := make([]model.Reading, 6)
	for i := range readings {
		readings[i] = model.Reading{
			SensorID:  "ubi-1",
			MObjectID: fmt.Sprintf("p%d", i%2),
			Location: glob.CoordinatePoint(glob.MustParse("CS/Floor3"),
				geom.Pt(float64(300+i*12), 15)),
			Time: t0.Add(time.Duration(i) * time.Millisecond),
		}
	}

	serial, serialNotes, serialMu := build(t)
	for _, r := range readings {
		if err := serial.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	batched, batchNotes, batchMu := build(t)
	if err := batched.IngestBatch(readings); err != nil {
		t.Fatal(err)
	}

	for _, obj := range []string{"p0", "p1"} {
		a, err := serial.LocateObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		b, err := batched.LocateObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rect != b.Rect || a.Prob != b.Prob || a.Symbolic.String() != b.Symbolic.String() {
			t.Errorf("%s: serial %+v != batched %+v", obj, a, b)
		}
	}
	// Handlers run on the asynchronous notifier; Close drains every
	// queue, so the counts below are complete.
	serial.Close()
	batched.Close()
	serialMu.Lock()
	ns := len(*serialNotes)
	serialMu.Unlock()
	batchMu.Lock()
	nb := len(*batchNotes)
	batchMu.Unlock()
	if ns != nb {
		t.Errorf("notification counts diverged: serial %d, batched %d", ns, nb)
	}
}

// TestCacheNeverServesStaleUnderRace is the freshness contract under
// contention, run with -race in CI: once an insert for an object has
// completed, no later query may be answered from a cache entry built
// before that insert. Writers bump the reading epoch through Ingest
// and IngestBatch while another goroutine churns the sensor table;
// readers snapshot the epoch first and then demand an entry at least
// that new.
func TestCacheNeverServesStaleUnderRace(t *testing.T) {
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Hour
	if err := s.RegisterSensor("stress-ubi", spec); err != nil {
		t.Fatal(err)
	}
	floor := glob.MustParse("CS/Floor3")
	region := glob.MustParse("CS/Floor3/NetLab")

	const iters = 60
	var wg sync.WaitGroup
	var failed atomic.Bool
	errs := make(chan error, 8*iters)

	mkReading := func(obj string, i int) model.Reading {
		return model.Reading{
			SensorID:  "stress-ubi",
			MObjectID: obj,
			Location:  glob.CoordinatePoint(floor, geom.Pt(float64(300+i*2), 15)),
			Time:      clock.Now().Add(time.Duration(i) * time.Millisecond),
		}
	}

	// Single-reading writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := s.Ingest(mkReading("mover", i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Batch writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i += 4 {
			batch := make([]model.Reading, 0, 4)
			for j := i; j < i+4 && j < iters; j++ {
				batch = append(batch, mkReading("pack", j))
			}
			if err := s.IngestBatch(batch); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Sensor churn: registration bumps the generation and must flush
	// every cached estimate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			churn := model.RFIDSpec(0.7)
			if err := s.RegisterSensor(fmt.Sprintf("churn-%d", i), churn); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Readers: the epoch observed before the query is a lower bound on
	// the entry that answers it.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(obj string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				before := s.db.ReadingEpoch(obj)
				_, entry := s.fusionState(obj, clock.Now())
				if entry.epoch < before {
					failed.Store(true)
					errs <- fmt.Errorf("%s: served entry epoch %d older than observed %d",
						obj, entry.epoch, before)
					return
				}
				s.LocateObject(obj) // error ok: may not exist yet
				s.ObjectsInRegion(region, 0.3)
			}
		}([]string{"mover", "pack", "mover"}[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if failed.Load() {
		t.Fatal("stale cache entry served after a completed insert")
	}
}
