package spatialdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// TestTriggerMatchingMatchesBruteForce is the equivalence property for
// trigger matching: over random scoped and unscoped triggers, added
// and removed between batches, InsertReadings fires exactly the
// (reading, trigger) pairs a scan of every registered trigger gives —
// a trigger fires when its object filter admits the reading and its
// region intersects the reading's, boundary contact included. Regions
// sit on a coarse integer grid so edge and corner contact are common.
func TestTriggerMatchingMatchesBruteForce(t *testing.T) {
	const floors = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := multiFloorDB(t, floors)
		if err := db.RegisterSensor("s", longSpec()); err != nil {
			t.Fatal(err)
		}
		objects := []string{"a", "b", "c", "d", "e", "f"}
		// Scoped triggers may name objects that never report.
		scopes := append([]string{"", "", "", "ghost"}, objects...)
		gridRect := func() geom.Rect {
			x0, y0 := float64(rng.Intn(50)*10), float64(rng.Intn(40)*10)
			w, h := float64(1+rng.Intn(12))*10, float64(1+rng.Intn(12))*10
			return geom.R(x0, y0, x0+w, y0+h)
		}

		type ref struct {
			mobject string
			region  geom.Rect
		}
		live := map[string]ref{}
		var mu sync.Mutex
		var fired []string
		nextID := 0
		addTrigger := func() {
			id := "t" + strconv.Itoa(nextID)
			nextID++
			tr := ref{mobject: scopes[rng.Intn(len(scopes))], region: gridRect()}
			if rng.Intn(10) == 0 {
				tr.region = db.Universe()
			}
			err := db.AddTrigger(id, tr.mobject, tr.region, func(ev TriggerEvent) {
				mu.Lock()
				fired = append(fired, ev.Reading.Trace+"/"+ev.TriggerID)
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			live[id] = tr
		}
		for i := 0; i < 30; i++ {
			addTrigger()
		}

		seq := 0
		for round := 0; round < 40; round++ {
			for n := rng.Intn(4); n > 0; n-- {
				addTrigger()
			}
			for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
				ids := make([]string, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				id := ids[rng.Intn(len(ids))]
				if err := db.RemoveTrigger(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
			}

			batch := make([]model.Reading, 1+rng.Intn(8))
			var want []string
			for i := range batch {
				obj := objects[rng.Intn(len(objects))]
				r := floorReading("s", obj, 1+rng.Intn(floors), 1, 1, t0.Add(time.Duration(seq)*time.Millisecond))
				r.Region = gridRect()
				r.Trace = fmt.Sprintf("r%04d", seq)
				seq++
				batch[i] = r
				for id, tr := range live {
					if (tr.mobject == "" || tr.mobject == obj) && tr.region.Intersects(r.Region) {
						want = append(want, r.Trace+"/"+id)
					}
				}
			}
			mu.Lock()
			fired = fired[:0]
			mu.Unlock()
			if _, err := db.InsertReadings(batch, nil); err != nil {
				t.Fatal(err)
			}
			got := append([]string(nil), fired...)
			// A nil dispatcher runs firings in reading order.
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i][:5] < got[j][:5] }) {
				t.Fatalf("seed %d round %d: firings out of reading order: %v", seed, round, got)
			}
			sort.Strings(got)
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d round %d:\n got %v\nwant %v", seed, round, got, want)
			}
		}
		if got := db.TriggerCount(); got != len(live) {
			t.Fatalf("seed %d: TriggerCount = %d, want %d", seed, got, len(live))
		}
	}
}

// latestPerSensorReference is the plain oracle for latestPerSensor:
// filter the rows by TTL, keep the newest per sensor in a map, sort by
// sensor ID.
func latestPerSensorReference(rows []model.Reading, specs map[string]model.SensorSpec, now time.Time) []model.Reading {
	latest := make(map[string]model.Reading)
	for _, r := range rows {
		spec, ok := specs[r.SensorID]
		if !ok || r.Expired(now, spec.TTL) {
			continue
		}
		if cur, ok := latest[r.SensorID]; !ok || r.Time.After(cur.Time) {
			latest[r.SensorID] = r
		}
	}
	out := make([]model.Reading, 0, len(latest))
	for _, r := range latest {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SensorID < out[j].SensorID })
	return out
}

// TestLatestPerSensorMatchesReference checks the one-pass reduction
// against the map-and-sort reference over random rows with equal
// timestamps (the earlier row must win), expired rows, and rows from
// unregistered sensors.
func TestLatestPerSensorMatchesReference(t *testing.T) {
	specs := map[string]model.SensorSpec{}
	for i, ttl := range []time.Duration{time.Second, 5 * time.Second, time.Minute, 0} {
		spec := longSpec()
		spec.TTL = ttl
		specs["s"+strconv.Itoa(i)] = spec
	}
	sensors := []string{"s3", "s0", "unknown", "s2", "s1"}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		rows := make([]model.Reading, rng.Intn(12))
		for i := range rows {
			rows[i] = model.Reading{
				SensorID:  sensors[rng.Intn(len(sensors))],
				MObjectID: "p",
				// Few distinct times, so ties are common.
				Time: t0.Add(time.Duration(rng.Intn(6)) * time.Second),
				// The row index tells tied rows apart.
				Location: glob.CoordinatePoint(glob.MustParse("CS/Floor1"), geom.Pt(float64(i), 0)),
			}
		}
		now := t0.Add(time.Duration(rng.Intn(10)) * time.Second)
		got, expired := latestPerSensor(rows, specs, now)
		want := latestPerSensorReference(rows, specs, now)
		live := 0
		for _, r := range rows {
			if spec, ok := specs[r.SensorID]; ok && !r.Expired(now, spec.TTL) {
				live++
			}
		}
		if expired != (live < len(rows)) {
			t.Fatalf("iter %d: expired = %v with %d of %d rows live", iter, expired, live, len(rows))
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: got %d rows, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i].SensorID != want[i].SensorID || !got[i].Time.Equal(want[i].Time) ||
				got[i].Location.String() != want[i].Location.String() {
				t.Fatalf("iter %d row %d: got %+v, want %+v", iter, i, got[i], want[i])
			}
		}
	}
}
