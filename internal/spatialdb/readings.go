package spatialdb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// ---------------------------------------------------------------------------
// Sensor metadata table (§5.2)

// RegisterSensor records a sensor instance and its calibrated spec in
// the sensor metadata table. The table is copy-on-write: a new view is
// published atomically, so spec lookups on the ingest and locate paths
// never take a lock.
func (db *DB) RegisterSensor(sensorID string, spec model.SensorSpec) error {
	if sensorID == "" {
		return fmt.Errorf("%w: empty sensor id", ErrUnknownSensor)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	db.sensorRegMu.Lock()
	defer db.sensorRegMu.Unlock()
	cur := db.sensorView.Load()
	specs := make(map[string]model.SensorSpec, len(cur.specs)+1)
	for id, s := range cur.specs {
		specs[id] = s
	}
	specs[sensorID] = spec
	db.sensorView.Store(&sensorTable{specs: specs, gen: cur.gen + 1})
	return nil
}

// SensorSpec returns the spec registered for a sensor.
func (db *DB) SensorSpec(sensorID string) (model.SensorSpec, error) {
	spec, ok := db.sensorView.Load().specs[sensorID]
	if !ok {
		return model.SensorSpec{}, fmt.Errorf("%w: %s", ErrUnknownSensor, sensorID)
	}
	return spec, nil
}

// Sensors returns the registered sensor IDs, sorted.
func (db *DB) Sensors() []string {
	specs := db.sensorView.Load().specs
	out := make([]string, 0, len(specs))
	for id := range specs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SensorGeneration returns a counter bumped on every sensor
// registration. Callers that derive state from the whole sensor table
// (the fusion classifier, per-sensor spec lookups on the query path)
// memoize against it and revalidate with one atomic load.
func (db *DB) SensorGeneration() uint64 { return db.sensorView.Load().gen }

// SensorSnapshot returns a copy of the sensor metadata table together
// with the generation it was taken at. The copy is the caller's to
// keep; the generation lets it revalidate with one atomic load instead
// of a lock per spec lookup.
func (db *DB) SensorSnapshot() (map[string]model.SensorSpec, uint64) {
	view := db.sensorView.Load()
	out := make(map[string]model.SensorSpec, len(view.specs))
	for id, spec := range view.specs {
		out[id] = spec
	}
	return out, view.gen
}

// ---------------------------------------------------------------------------
// Reading table (Table 2)

// TriggerFiring pairs a matched trigger callback with the event it
// should receive. InsertReadings hands the batch's firings to a
// FiringDispatcher so the caller can fan evaluation out.
type TriggerFiring struct {
	Fn    TriggerFunc
	Event TriggerEvent
}

// FiringDispatcher runs a batch's trigger firings. It is called at
// most once per InsertReadings call, after the rows are stored and all
// table locks are released, and must run every firing before
// returning. Firings for the same mobile object appear in reading
// order; a dispatcher may parallelize across objects but should
// preserve that per-object order (entry/exit edge detection depends on
// it).
type FiringDispatcher func([]TriggerFiring)

// RejectedError reports the readings of an insert that failed
// validation (unknown sensor, missing mobject id, unresolvable
// location). It covers only the rejected readings: the rest of the
// batch was stored, so re-submitting the whole batch would duplicate
// the stored rows. Callers that retry (the resilient adapter sink, a
// remote client) must retry only the listed indices.
type RejectedError struct {
	// Indices are the rejected readings' positions in the submitted
	// slice, ascending.
	Indices []int
	// Errs holds the per-reading failures, parallel to Indices.
	Errs []error
}

func (e *RejectedError) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	return fmt.Sprintf("spatialdb: %d readings rejected: %v", len(e.Errs), errors.Join(e.Errs...))
}

// Unwrap exposes the per-reading failures to errors.Is / errors.As.
func (e *RejectedError) Unwrap() []error { return e.Errs }

// InsertReading stores a sensor reading (resolving its location to a
// universe-frame MBR if the adapter has not already) and fires any
// matching triggers synchronously. The sensor must be registered.
func (db *DB) InsertReading(r model.Reading) error {
	_, err := db.InsertReadings([]model.Reading{r}, nil)
	return err
}

// placeObject pins a mobile object's reading rows (and its epoch
// counter) to the target shard. When the object last reported on a
// different floor, its rows and epoch migrate: the epoch carries over
// +1, so it stays strictly monotonic across any number of floor
// changes and a fused-location cache entry keyed on the old shard's
// counter can never collide with the new shard's values. Placement
// changes serialize on migMu; the overwhelmingly common same-shard
// case returns after one lock-free map read.
func (db *DB) placeObject(id string, to *shard) {
	if cur, ok := db.residence.Load(id); ok && cur.(*shard) == to {
		return
	}
	db.migMu.Lock()
	defer db.migMu.Unlock()
	cur, ok := db.residence.Load(id)
	if !ok {
		db.residence.Store(id, to)
		return
	}
	from := cur.(*shard)
	if from == to {
		return
	}
	// Nested cut bracket on the source shard: the caller's bracket
	// already covers `to`, but a cut sweeping `from` must also see this
	// migration in flight. pending is bumped WITHOUT the gate check —
	// waiting on the gate here would deadlock against a draining
	// snapshot that is itself waiting for the enclosing bracket (see
	// cut.go).
	from.pending.Add(1)
	// Move rows and the epoch under both shard locks, taken in key
	// order so concurrent migrations cannot deadlock.
	a, b := from, to
	if b.key < a.key {
		a, b = b, a
	}
	a.readMu.Lock()
	b.readMu.Lock()
	tf := from.mutableTable()
	tt := to.mutableTable()
	if rows, ok := tf.rows[id]; ok {
		tt.rows[id] = rows
		delete(tf.rows, id)
		delete(tf.owned, id)
		// The support entry migrates with the rows: exact on the
		// destination (recomputed from the moved rows), removed from
		// the source.
		tf.resetSupport(id, nil)
		tt.resetSupport(id, rows)
	}
	tt.epochs[id] = tf.epochs[id] + 1
	delete(tf.epochs, id)
	from.writeEpoch.Add(1)
	to.writeEpoch.Add(1)
	from.cutSeq.Add(1)
	to.cutSeq.Add(1)
	db.residence.Store(id, to)
	b.readMu.Unlock()
	a.readMu.Unlock()
	from.pending.Add(-1)
	db.wakeCutWaiters()
	mMigrations.Inc()
}

// residentShard returns the shard currently holding the object's
// reading rows, or nil when the object has none.
func (db *DB) residentShard(id string) *shard {
	if cur, ok := db.residence.Load(id); ok {
		return cur.(*shard)
	}
	return nil
}

// InsertReadings stores a slice of readings with one lock acquisition
// per target shard instead of one per reading, amortizing the hot-path
// cost for batched adapters. Readings that fail validation are
// skipped; the rest are stored. It returns the number stored and, when
// any reading was skipped, a *RejectedError naming the skipped
// indices — never retry the whole batch on that error, the other rows
// are already in the table.
//
// Readings shard by their location's floor prefix, so batches for
// independent floors take disjoint locks and ingest in parallel; the
// only cross-floor coordination is the lock-free cut bracket (cut.go),
// which lets Snapshot exclude in-flight batches (no snapshot ever
// observes part of a batch) without any global mutex.
//
// Trigger firings for the whole batch are collected and then run via
// dispatch; a nil dispatch runs them serially in insertion order,
// which makes InsertReadings(rs, nil) observably equivalent to
// len(rs) InsertReading calls. Insert hooks run last, per stored
// reading in order, as in the single-insert path.
func (db *DB) InsertReadings(rs []model.Reading, dispatch FiringDispatcher) (int, error) {
	if len(rs) == 0 {
		return 0, nil
	}
	start := time.Now()

	// Phase 1 — validate and resolve regions. Sensor specs come from
	// the lock-free view; symbolic locations resolve against their own
	// shard's object table.
	sensors := db.sensorView.Load().specs
	prepared := make([]model.Reading, 0, len(rs))
	var errs []error
	var rejected []int
	for i, r := range rs {
		if r.MObjectID == "" {
			mInsertErrors.Inc()
			rejected = append(rejected, i)
			errs = append(errs, fmt.Errorf("spatialdb: reading without mobject id"))
			continue
		}
		spec, ok := sensors[r.SensorID]
		if !ok {
			mInsertErrors.Inc()
			rejected = append(rejected, i)
			errs = append(errs, fmt.Errorf("%w: %s", ErrUnknownSensor, r.SensorID))
			continue
		}
		if r.SensorType == "" {
			r.SensorType = spec.Type
		}
		if !r.Region.Valid() || r.Region.Area() == 0 {
			rect, err := db.resolveReading(r, spec)
			if err != nil {
				mInsertErrors.Inc()
				rejected = append(rejected, i)
				errs = append(errs, fmt.Errorf("insert reading from %s: %w", r.SensorID, err))
				continue
			}
			r.Region = rect
		}
		prepared = append(prepared, r)
	}

	// Group the prepared readings by target shard, in order of first
	// appearance: a batch that interleaves floors still applies each
	// object's readings in submission order. Grouping keys on the raw
	// path components ([2]string is comparable) so the hot loop builds
	// no key strings; ids collects each group's distinct objects once,
	// so residence placement pays per object, not per reading.
	type shardGroup struct {
		key  string
		idxs []int
		ids  []string
	}
	var groups []*shardGroup
	byKey := make(map[[2]string]*shardGroup, 4)
	for i := range prepared {
		var pk [2]string
		if p := prepared[i].Location.Path; len(p) > 0 {
			pk[0] = p[0]
			if len(p) > 1 {
				pk[1] = p[1]
			}
		}
		g, ok := byKey[pk]
		if !ok {
			g = &shardGroup{key: shardKeyForGLOB(prepared[i].Location)}
			byKey[pk] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
		id := prepared[i].MObjectID
		seen := false
		for _, have := range g.ids {
			if have == id {
				seen = true
				break
			}
		}
		if !seen {
			g.ids = append(g.ids, id)
		}
	}

	// Phase 2 — store each group under its own shard's write lock:
	// movement detection, append, bound, and the per-object epoch bump
	// that invalidates fused-location caches. The whole phase runs in
	// one cut bracket spanning every target shard, so a concurrent
	// Snapshot sees either none or all of this batch (cut.go) — with no
	// global mutex on this path.
	shs := make([]*shard, len(groups))
	for i, g := range groups {
		shs[i] = db.ensureShard(g.key)
	}
	db.beginBatch(shs...)
	for gi, g := range groups {
		sh := shs[gi]
		for {
			// Pin every distinct object of the group to this shard
			// (migrating rows from a previous floor if needed), then
			// verify the placement still holds under the shard lock: a
			// migration cannot move rows out of sh while we hold its
			// write lock, so a verified placement stays true for the
			// whole store.
			for _, id := range g.ids {
				db.placeObject(id, sh)
			}
			sh.readMu.Lock()
			placed := true
			for _, id := range g.ids {
				if db.residentShard(id) != sh {
					placed = false
					break
				}
			}
			if placed {
				break
			}
			sh.readMu.Unlock() // lost a race with another batch's migration; re-place
		}
		t := sh.mutableTable()
		for _, i := range g.idxs {
			r := &prepared[i]
			rows := t.rows[r.MObjectID]
			// Movement detection: compare with the previous reading
			// from the same sensor for the same object.
			for j := len(rows) - 1; j >= 0; j-- {
				if rows[j].SensorID == r.SensorID {
					if !rows[j].Region.Eq(r.Region) {
						r.Moving = true
					}
					break
				}
			}
			// Bound per-object storage: long-TTL sensors (desktop
			// sessions, biometric long readings) must not accumulate
			// without limit. The newest rows win; fusion only consumes
			// the latest row per sensor anyway. An owned slice trims as
			// a ring buffer: re-slicing off the head is O(1) and the
			// append below reuses the backing array's spare capacity,
			// re-basing (one O(cap) copy) only every ~cap inserts — so
			// steady-state trim at the cap is O(1) amortized instead of
			// an O(cap) copy per insert. A backing array inherited from
			// a frozen snapshot table must never be re-sliced or
			// rewritten; it is replaced with a fresh 2x-cap array once,
			// after which the object is owned and rides the ring.
			if len(rows) >= maxReadingsPerObject {
				keep := rows[len(rows)-maxReadingsPerObject+1:]
				if t.owned[r.MObjectID] {
					rows = keep
				} else {
					rows = append(make([]model.Reading, 0, 2*maxReadingsPerObject), keep...)
					t.owned[r.MObjectID] = true
				}
			}
			t.rows[r.MObjectID] = append(rows, *r)
			t.epochs[r.MObjectID]++
			// Insert keeps the support index a conservative superset:
			// union-only growth here, exact recompute on prune/expiry.
			t.growSupport(r.MObjectID, r.Region)
		}
		sh.writeEpoch.Add(1)
		sh.readMu.Unlock()
		sh.inserts.Add(uint64(len(g.idxs)))
		sh.mInserts.Add(uint64(len(g.idxs)))
	}
	db.endBatch(shs...)

	// Phase 3 — match triggers for the whole batch under the shared
	// trigger lock; firing happens after release. Matching iterates the
	// batch in submission order, so per-object firing order is
	// preserved regardless of how storage grouped by shard. A reading
	// meets the unscoped triggers its region hits in the R-tree plus
	// its own object's scoped triggers, tested with the same
	// boundary-inclusive Intersects the R-tree uses.
	visits0 := db.triggerIdx.Visits()
	var firings []TriggerFiring
	db.trigMu.RLock()
	var r *model.Reading
	matchUnscoped := func(_ geom.Rect, id string) bool {
		if tr := db.triggers[id]; tr != nil {
			firings = append(firings, tr.firing(r))
		}
		return true
	}
	for i := range prepared {
		r = &prepared[i]
		db.triggerIdx.SearchIntersectFunc(r.Region, matchUnscoped)
		for _, tr := range db.scoped[r.MObjectID] {
			if tr.region.Intersects(r.Region) {
				firings = append(firings, tr.firing(r))
			}
		}
	}
	visitDelta := db.triggerIdx.Visits() - visits0
	db.trigMu.RUnlock()

	// The db_insert stage ends here: storage and trigger matching are
	// done; what follows (trigger evaluation, hooks) is accounted to the
	// downstream stages.
	mInsertVisits.Add(uint64(visitDelta))
	db.syncVisitsGauge()
	mInsertUs.Observe(float64(time.Since(start).Microseconds()))
	mInserts.Add(uint64(len(prepared)))
	mTriggerMatches.Add(uint64(len(firings)))
	if len(rs) > 1 {
		mBatchInserts.Inc()
		mBatchRows.Observe(float64(len(rs)))
	}
	for i := range prepared {
		obs.SpanSince(prepared[i].Trace, "db_insert", start)
	}

	if len(firings) > 0 {
		if dispatch != nil {
			dispatch(firings)
		} else {
			for _, f := range firings {
				f.Fn(f.Event)
			}
		}
	}
	db.hookMu.RLock()
	hooks := db.hooks
	db.hookMu.RUnlock()
	for i := range prepared {
		for _, h := range hooks {
			h(prepared[i])
		}
	}
	if len(errs) > 0 {
		return len(prepared), &RejectedError{Indices: rejected, Errs: errs}
	}
	return len(prepared), nil
}

// ReadingEpoch returns the object's reading-table epoch — a counter
// bumped whenever the object's stored rows change in a way that can
// change query results. An unchanged epoch means a cached fusion
// result for the object is still derived from the current rows. The
// counter lives on the object's resident shard and migrates with the
// rows, strictly increasing across floor changes.
func (db *DB) ReadingEpoch(mobjectID string) uint64 {
	sh := db.residentShard(mobjectID)
	if sh == nil {
		return 0
	}
	sh.readMu.RLock()
	e := sh.table.Load().epochs[mobjectID]
	sh.readMu.RUnlock()
	return e
}

// resolveReading computes the reading's universe-frame MBR from its
// GLOB location and detection radius.
func (db *DB) resolveReading(r model.Reading, spec model.SensorSpec) (geom.Rect, error) {
	if r.Location.IsZero() {
		return geom.Rect{}, fmt.Errorf("%w: reading has no location", ErrBadGeometry)
	}
	if r.Location.IsCoordinate() {
		rect, err := db.ResolveGLOB(r.Location)
		if err != nil {
			return geom.Rect{}, err
		}
		radius := r.DetectionRadius
		if radius == 0 && spec.Resolution.Kind == model.ResolutionDistance {
			radius = spec.Resolution.Radius
		}
		return rect.Expand(radius), nil
	}
	return db.ResolveGLOB(r.Location)
}

// ReadingsFor returns the unexpired readings for a mobile object at
// time now, applying each sensor's TTL from the metadata table.
// Expired rows are pruned as a side effect. Pruning does not bump the
// object's reading epoch: the removed rows were already invisible to
// every TTL-filtered query, so cached results stay correct.
func (db *DB) ReadingsFor(mobjectID string, now time.Time) []model.Reading {
	specs := db.sensorView.Load().specs
	for {
		sh := db.residentShard(mobjectID)
		if sh == nil {
			return nil
		}
		// Fast path under the shared lock: concurrent locates for
		// different objects on the same floor must not serialize here.
		// Only when a row has actually expired is the exclusive lock
		// taken to prune. The residence re-check under the lock makes
		// the read atomic with placement: a migration cannot move rows
		// out of sh while any of its locks are held.
		sh.readMu.RLock()
		if db.residentShard(mobjectID) != sh {
			sh.readMu.RUnlock()
			continue
		}
		rows := sh.table.Load().rows[mobjectID]
		live := make([]model.Reading, 0, len(rows))
		stale := false
		for _, r := range rows {
			spec, ok := specs[r.SensorID]
			if !ok || r.Expired(now, spec.TTL) {
				stale = true
				continue
			}
			live = append(live, r)
		}
		sh.readMu.RUnlock()
		if !stale {
			return live
		}

		// Pruning mutates the table, so it runs inside a cut bracket
		// (taken before readMu per the lock order) — a concurrent
		// snapshot either excludes or includes the whole prune.
		db.beginBatch(sh)
		sh.readMu.Lock()
		if db.residentShard(mobjectID) != sh {
			sh.readMu.Unlock()
			db.endBatchClean(sh)
			continue
		}
		t := sh.mutableTable()
		// Recompute: the rows may have changed between the locks.
		rows = t.rows[mobjectID]
		live = live[:0]
		for _, r := range rows {
			spec, ok := specs[r.SensorID]
			if !ok {
				continue
			}
			if !r.Expired(now, spec.TTL) {
				live = append(live, r)
			}
		}
		if len(live) == 0 {
			delete(t.rows, mobjectID)
			delete(t.owned, mobjectID)
		} else {
			t.rows[mobjectID] = append([]model.Reading(nil), live...)
			t.owned[mobjectID] = true
		}
		// Pruning is where the conservative support rect snaps back to
		// exact: recompute it from the surviving rows.
		t.resetSupport(mobjectID, t.rows[mobjectID])
		sh.readMu.Unlock()
		db.endBatch(sh)
		return live
	}
}

// LatestPerSensor returns, for each sensor that has an unexpired
// reading for the object, only its newest one — the working set for
// fusion. While none of the object's rows has expired it reduces them
// in place under the shared lock; otherwise it goes through
// ReadingsFor, which prunes the expired rows.
func (db *DB) LatestPerSensor(mobjectID string, now time.Time) []model.Reading {
	specs := db.sensorView.Load().specs
	if sh := db.residentShard(mobjectID); sh != nil {
		sh.readMu.RLock()
		if db.residentShard(mobjectID) == sh {
			latest, expired := latestPerSensor(sh.table.Load().rows[mobjectID], specs, now)
			if !expired {
				sh.readMu.RUnlock()
				return latest
			}
		}
		sh.readMu.RUnlock()
	}
	latest, _ := latestPerSensor(db.ReadingsFor(mobjectID, now), specs, now)
	return latest
}

// latestPerSensor reduces an object's rows to the newest unexpired row
// per sensor, sorted by sensor ID, in one pass (shared by the live path
// and Snapshot), and reports whether it skipped any row. Rows from
// unregistered sensors and rows past their sensor's TTL are skipped; of
// two rows from one sensor with equal times, the earlier row wins. An
// object reports through a handful of sensors, so the output stays
// sorted by insertion in place of a map and a sort.
func latestPerSensor(rows []model.Reading, specs map[string]model.SensorSpec, now time.Time) (latest []model.Reading, expired bool) {
	var (
		sensor string
		spec   model.SensorSpec
		known  bool
	)
	for i := range rows {
		r := &rows[i]
		// Consecutive rows mostly share a sensor; look its spec up once.
		if i == 0 || r.SensorID != sensor {
			sensor = r.SensorID
			spec, known = specs[sensor]
		}
		if !known || r.Expired(now, spec.TTL) {
			expired = true
			continue
		}
		j := 0
		for j < len(latest) && latest[j].SensorID < r.SensorID {
			j++
		}
		if j < len(latest) && latest[j].SensorID == r.SensorID {
			if r.Time.After(latest[j].Time) {
				latest[j] = *r
			}
			continue
		}
		latest = append(latest, model.Reading{})
		copy(latest[j+1:], latest[j:])
		latest[j] = *r
	}
	return latest, expired
}

// MobileObjects returns the IDs of all objects with stored readings,
// sorted.
func (db *DB) MobileObjects() []string {
	var out []string
	for _, sh := range db.allShards() {
		sh.readMu.RLock()
		for id := range sh.table.Load().rows {
			out = append(out, id)
		}
		sh.readMu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// ExpireReadings removes every reading for every object that has
// outlived its sensor's TTL at time now, and expires readings matching
// the filter immediately (used by the biometric logout flow, §6.3).
// Objects that lose a not-yet-expired row through the filter get their
// reading epoch bumped: the forced expiry changes query results, so
// cached fusion state for them must be invalidated. Each shard expires
// under its own lock, so floors clean up without cross-floor
// contention.
func (db *DB) ExpireReadings(now time.Time, match func(model.Reading) bool) {
	specs := db.sensorView.Load().specs
	type change struct {
		id     string
		live   []model.Reading
		forced bool
	}
	for _, sh := range db.allShards() {
		// Bracket each shard's sweep so a concurrent cut sees the whole
		// shard's expiry or none of it; a sweep that changes nothing
		// ends clean, keeping pooled snapshots valid.
		db.beginBatch(sh)
		sh.readMu.Lock()
		var changes []change
		for id, rows := range sh.table.Load().rows {
			var live []model.Reading
			forced := false
			for _, r := range rows {
				spec, ok := specs[r.SensorID]
				if !ok || r.Expired(now, spec.TTL) {
					continue
				}
				if match != nil && match(r) {
					forced = true
					continue
				}
				live = append(live, r)
			}
			if forced || len(live) != len(rows) {
				changes = append(changes, change{id: id, live: live, forced: forced})
			}
		}
		if len(changes) > 0 {
			t := sh.mutableTable()
			for _, c := range changes {
				if len(c.live) == 0 {
					delete(t.rows, c.id)
					delete(t.owned, c.id)
				} else {
					t.rows[c.id] = c.live
					t.owned[c.id] = true
				}
				t.resetSupport(c.id, c.live)
				if c.forced {
					t.epochs[c.id]++
				}
			}
			sh.writeEpoch.Add(1)
		}
		sh.readMu.Unlock()
		if len(changes) > 0 {
			db.endBatch(sh)
		} else {
			db.endBatchClean(sh)
		}
	}
}
