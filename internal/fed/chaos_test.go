package fed_test

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/model"
)

// rowKey identifies one stored reading for the loss/duplication audit
// — the same identity the migration dedup uses.
func rowKey(r model.Reading) string {
	return fmt.Sprintf("%s|%d|%s", r.SensorID, r.Time.UnixNano(), r.Location.String())
}

// TestChaosFederationKillRestart is the multi-daemon chaos suite: a
// three-daemon federation ingests continuously while one daemon is
// killed and restarted — mid-migration and mid-query — and the run
// must end with every reading stored exactly once on its floor's
// owner, per-object epochs that never regressed, and every federated
// query along the way either complete or explicitly partial.
func TestChaosFederationKillRestart(t *testing.T) {
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
		"gamma": {"CS/F2"},
	})
	names := []string{"alpha", "beta", "gamma"}
	daemons := make([]*fedDaemon, len(names))
	for i, n := range names {
		daemons[i] = f.daemons[n]
	}
	const objects = 9
	objName := func(i int) string { return fmt.Sprintf("obj-%d", i) }
	homeFloor := func(i int) int { return i % 3 }

	base := time.Now()
	since := base.Add(-time.Minute)
	ingested := make(map[string]map[string]bool) // object -> rowKey set
	for i := 0; i < objects; i++ {
		ingested[objName(i)] = make(map[string]bool)
	}

	// Background querier: every federated scan must be complete or
	// explicitly partial — Partial mirrors Unavailable, the list is
	// sorted, and a scan never errors in non-strict mode.
	var stopQueries atomic.Bool
	var queries atomic.Int64
	var partials atomic.Int64
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for !stopQueries.Load() {
			_, unavailable, err := daemons[0].fedRouter().ObjectsInRegion(allRegion(), 0, false)
			if err != nil {
				t.Errorf("federated query errored mid-chaos: %v", err)
				return
			}
			if !sort.StringsAreSorted(unavailable) {
				t.Errorf("unavailable list not sorted: %v", unavailable)
			}
			queries.Add(1)
			if len(unavailable) > 0 {
				partials.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// ingestRound pushes one fresh reading per object through an entry
	// daemon chosen round-robin (skipping dead daemons — a real adapter
	// fails over), recording what was ingested.
	round := 0
	ingestRound := func() {
		t.Helper()
		for i := 0; i < objects; i++ {
			entry := daemons[(i+round)%len(daemons)]
			if !f.cluster.Running(entry.name) {
				entry = daemons[0] // alpha is never killed
			}
			r := fReading(objName(i), homeFloor(i), 3+float64(i%4), 4, base.Add(time.Duration(round)*time.Second+time.Duration(i)*10*time.Millisecond))
			if err := entry.svc.IngestBatch([]model.Reading{r}); err != nil {
				t.Fatalf("round %d ingest via %s: %v", round, entry.name, err)
			}
			ingested[objName(i)][rowKey(r)] = true
		}
		round++
	}

	// maxEpoch samples an object's highest epoch across the cluster;
	// the migration protocol promises it never decreases.
	maxEpoch := func(obj string) uint64 {
		var m uint64
		for _, d := range daemons {
			if e := d.svc.DB().ReadingEpoch(obj); e > m {
				m = e
			}
		}
		return m
	}
	lastEpoch := make(map[string]uint64)
	checkEpochs := func(stage string) {
		t.Helper()
		for i := 0; i < objects; i++ {
			obj := objName(i)
			e := maxEpoch(obj)
			if e < lastEpoch[obj] {
				t.Errorf("%s: epoch for %s regressed %d -> %d", stage, obj, lastEpoch[obj], e)
			}
			lastEpoch[obj] = e
		}
	}

	// Phase 1: two healthy rounds.
	ingestRound()
	ingestRound()
	checkEpochs("healthy")

	// Phase 2: kill gamma mid-round — the round's forwards and any
	// in-flight migrations race the crash; readings degrade to local
	// storage instead of vanishing.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(3 * time.Millisecond)
		f.cluster.Kill("gamma")
	}()
	ingestRound()
	<-killDone
	ingestRound() // a full round against the dead daemon
	checkEpochs("gamma down")

	// Phase 3: restart gamma mid-round — recovery also races traffic.
	restartDone := make(chan struct{})
	go func() {
		defer close(restartDone)
		time.Sleep(3 * time.Millisecond)
		if err := f.cluster.Restart("gamma"); err != nil {
			t.Errorf("restart gamma: %v", err)
		}
	}()
	ingestRound()
	<-restartDone
	f.awaitPlacement(3)
	checkEpochs("gamma back")

	// Phase 4: kill/restart once more while rounds keep flowing, to
	// catch a migration of phase-2 leftovers mid-handoff. The restart
	// waits for the kill: a round that finishes inside the kill's delay
	// would otherwise restart first and leave gamma dead for good.
	killDone = make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(2 * time.Millisecond)
		f.cluster.Kill("gamma")
	}()
	ingestRound()
	<-killDone
	if err := f.cluster.Restart("gamma"); err != nil {
		t.Fatal(err)
	}
	f.awaitPlacement(3)
	ingestRound()
	checkEpochs("second cycle")

	// Convergence: with everyone healthy, push one reading per object
	// through EVERY daemon — each non-owner holding degraded leftovers
	// hands them off on its own forward path. Retry until the cluster
	// settles (breakers may need a cooldown to close).
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, entry := range daemons {
			for i := 0; i < objects; i++ {
				r := fReading(objName(i), homeFloor(i), 3+float64(i%4), 5, base.Add(time.Duration(round)*time.Second+time.Duration(i)*10*time.Millisecond))
				if err := entry.svc.IngestBatch([]model.Reading{r}); err != nil {
					t.Fatalf("convergence ingest via %s: %v", entry.name, err)
				}
				ingested[objName(i)][rowKey(r)] = true
			}
			round++
		}
		settled := true
		for i := 0; i < objects && settled; i++ {
			owner := daemons[homeFloor(i)]
			for _, d := range daemons {
				if d != owner && rowsFor(d, objName(i), since) > 0 {
					settled = false
					break
				}
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < objects; i++ {
				for _, d := range daemons {
					if n := rowsFor(d, objName(i), since); n > 0 {
						t.Logf("%s holds %d rows of %s", d.name, n, objName(i))
					}
				}
			}
			t.Fatal("cluster never converged: objects still resident off their owners")
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkEpochs("converged")

	stopQueries.Store(true)
	qwg.Wait()
	if queries.Load() == 0 {
		t.Error("query goroutine never completed a scan")
	}
	if partials.Load() == 0 {
		t.Error("chaos run never observed an explicitly-partial result — the kill windows did not bite")
	}

	// The audit: every ingested reading stored exactly once, on the
	// owner, with nothing invented.
	for i := 0; i < objects; i++ {
		obj := objName(i)
		owner := daemons[homeFloor(i)]
		rows := owner.svc.DB().ReadingsFor(obj, since)
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			k := rowKey(r)
			if seen[k] {
				t.Errorf("%s: duplicated row %s on owner %s", obj, k, owner.name)
			}
			seen[k] = true
			if !ingested[obj][k] {
				t.Errorf("%s: owner %s holds a row that was never ingested: %s", obj, owner.name, k)
			}
		}
		for k := range ingested[obj] {
			if !seen[k] {
				t.Errorf("%s: reading lost in the chaos: %s", obj, k)
			}
		}
		for _, d := range daemons {
			if d != owner {
				if n := rowsFor(d, obj, since); n != 0 {
					t.Errorf("%s: %d stray rows on non-owner %s after convergence", obj, n, d.name)
				}
			}
		}
	}

	// The final scan is complete and sees every object.
	objs, unavailable, err := daemons[0].fedRouter().ObjectsInRegion(allRegion(), 0, false)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if len(unavailable) != 0 {
		t.Fatalf("final scan partial: %v", unavailable)
	}
	for i := 0; i < objects; i++ {
		if _, ok := objs[objName(i)]; !ok {
			t.Errorf("final scan missing %s", objName(i))
		}
	}
}
