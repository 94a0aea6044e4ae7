// Package spatialdb is MiddleWhere's spatial database (§5) — the
// in-process substitute for the PostGIS/PostgreSQL instance the paper
// deploys. It stores
//
//   - the physical-space object table (Table 1: ObjectIdentifier,
//     GlobPrefix, ObjectType, GeometryType, Points),
//   - the sensor-reading table (Table 2) with temporal information,
//   - the per-sensor metadata table (confidence and time-to-live,
//     §5.2), and
//   - location triggers (§5.3) evaluated on every reading insert.
//
// The database is sharded by floor: the top-two GLOB path components
// ("CS/Floor3") key a shard owning its own object table, R-tree,
// reading table and locks, so ingest and expiry on independent floors
// never contend and each R-tree stays bounded by one floor's
// population (the role table partitioning plays for the paper's
// PostGIS deployment). A copy-on-write snapshot layer (Snapshot) cuts
// a consistent, immutable view across every shard for region queries
// and batched trigger evaluation.
//
// Geometry is indexed with an R-tree so containment/intersection
// queries and trigger matching stay sub-linear in table size, the role
// PostGIS's GiST indexes play in the paper's deployment. All methods
// are safe for concurrent use.
package spatialdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/coords"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/rtree"
)

// Database metrics, cached once so the hot paths are pure atomics.
var (
	mInserts        = obs.Default().Counter("spatialdb_inserts_total")
	mInsertErrors   = obs.Default().Counter("spatialdb_insert_errors_total")
	mInsertUs       = obs.Default().Histogram("spatialdb_insert_us")
	mQueries        = obs.Default().Counter("spatialdb_queries_total")
	mQueryUs        = obs.Default().Histogram("spatialdb_query_us")
	mTriggerMatches = obs.Default().Counter("spatialdb_trigger_matches_total")
	mBatchInserts   = obs.Default().Counter("spatialdb_batch_inserts_total")
	mBatchRows      = obs.Default().Histogram("spatialdb_batch_rows")
	// mInsertVisits is approximate since the per-table lock split:
	// trigger matching runs under a shared lock, so concurrent searches
	// can cross-attribute Visits() deltas. The totals still converge.
	mInsertVisits = obs.Default().Counter("rtree_insert_visits_total")
	// mVisitsGauge mirrors the cumulative node visits across every
	// shard's object index plus the trigger index; refreshed after
	// every insert and query rather than delta-tracked, because
	// concurrent readers would cross-attribute deltas.
	mVisitsGauge = obs.Default().Gauge("rtree_node_visits")
)

// syncVisitsGauge refreshes the cumulative R-tree visit gauge; safe to
// call without locks (tree visit counters are atomic).
func (db *DB) syncVisitsGauge() {
	total := db.triggerIdx.Visits()
	for _, sh := range db.allShards() {
		total += sh.objIdx.Visits()
	}
	mVisitsGauge.Set(float64(total))
}

// observeQuery records one spatial query's latency; used as
// `defer db.observeQuery(time.Now())`.
func (db *DB) observeQuery(start time.Time) {
	mQueries.Inc()
	mQueryUs.Observe(float64(time.Since(start).Microseconds()))
	db.syncVisitsGauge()
}

// Object is one row of the physical-space table (Table 1) plus the
// spatial properties of §5.1 (location, dimension, orientation and
// free-form attributes such as "power-outlets").
type Object struct {
	// GLOB names the object: GlobPrefix + ObjectIdentifier.
	GLOB glob.GLOB
	// Type is the semantic type: "Floor", "Room", "Corridor", "Door",
	// "Display", "Table", ...
	Type string
	// Kind is the geometry type (point, line, polygon).
	Kind glob.Kind
	// LocalPoints is the geometry in the coordinate frame of the
	// object's GlobPrefix, as stored in the Points column.
	LocalPoints []geom.Point
	// Bounds is the MBR of the geometry in the universe frame,
	// maintained by the database.
	Bounds geom.Rect
	// Polygon is the exact geometry in the universe frame (for
	// polygon objects); nil for points and lines.
	Polygon geom.Polygon
	// Properties holds free-form attributes used by property queries
	// ("power-outlets": "yes", "bluetooth": "high").
	Properties map[string]string
}

// ID returns the object's full GLOB string, the primary key of the
// object table.
func (o Object) ID() string { return o.GLOB.String() }

// Sentinel errors.
var (
	ErrNotFound      = errors.New("spatialdb: not found")
	ErrDuplicate     = errors.New("spatialdb: duplicate")
	ErrBadGeometry   = errors.New("spatialdb: bad geometry")
	ErrUnknownSensor = errors.New("spatialdb: unknown sensor")
	ErrBadTrigger    = errors.New("spatialdb: bad trigger")
)

// TriggerEvent is delivered to a trigger's callback when a matching
// sensor reading is inserted (§5.3).
type TriggerEvent struct {
	// TriggerID identifies the fired trigger.
	TriggerID string
	// Reading is the inserted reading that satisfied the spatial
	// condition.
	Reading model.Reading
	// Region is the trigger's region.
	Region geom.Rect
}

// TriggerFunc receives trigger events. It is called synchronously on
// the inserting goroutine; long-running work must be handed off by the
// callee (the Location Service hands events to its notifier).
type TriggerFunc func(TriggerEvent)

// trigger is a registered spatial trigger condition.
type trigger struct {
	id string
	// mobject filters on the observed object; empty matches any.
	mobject string
	region  geom.Rect
	fn      TriggerFunc
}

// firing pairs the trigger's callback with its event for reading r.
func (tr *trigger) firing(r *model.Reading) TriggerFiring {
	return TriggerFiring{
		Fn:    tr.fn,
		Event: TriggerEvent{TriggerID: tr.id, Reading: *r, Region: tr.region},
	}
}

// maxReadingsPerObject bounds the stored rows per mobile object; the
// newest rows are kept. 64 comfortably covers every deployed sensor
// reporting at once with history to spare.
const maxReadingsPerObject = 64

// sensorTable is the immutable sensor metadata view (§5.2). The
// current view hangs off an atomic pointer, so spec lookups on the
// ingest and locate hot paths are lock-free; registration replaces the
// whole view (sensors register at startup, effectively never after).
type sensorTable struct {
	specs map[string]model.SensorSpec
	gen   uint64
}

// DB is the spatial database: a router over per-floor shards (see
// shard) plus the tables that are genuinely global — sensor metadata,
// triggers, and insert hooks. Locks nest in the fixed order
//
//	batch bracket (pending / cutGate, cut.go) → migMu → shard.readMu
//
// for reading writes; shard.objMu and trigMu are only ever held alone
// (hookMu is independent and never held together with the others).
// There is deliberately no global mutex on the Snapshot/ingest pair:
// cuts coordinate with writers through the per-shard epoch vector
// (shard.pending / shard.cutSeq) and the escalation gate — see cut.go.
type DB struct {
	// frames is immutable after New; symbolic GLOB resolution walks
	// objects and frames together.
	frames   *coords.Tree
	universe geom.Rect

	// Shard directory. order is the shards sorted by key, replaced
	// wholesale on shard creation so holders iterate without a lock.
	shardMu sync.RWMutex
	shards  map[string]*shard
	order   []*shard

	// objGen counts object-table structural changes across all shards
	// (insert/delete); readers use it to detect stale cached
	// resolutions without any lock.
	objGen atomic.Uint64

	// residence maps a mobile object's ID to the shard holding its
	// reading rows and epoch counter (object IDs are not GLOBs, so the
	// rows live where the object's readings place it). Placement
	// changes — first insert, floor migration — serialize on migMu;
	// see placeObject.
	residence sync.Map
	migMu     sync.Mutex

	// sensorView is the current sensor metadata table; see sensorTable.
	sensorRegMu sync.Mutex
	sensorView  atomic.Pointer[sensorTable]

	// Cut-protocol escalation gate (cut.go): when a Snapshot's
	// optimistic sweep keeps losing races, it closes cutGate, waits on
	// gateCond for in-flight mutation brackets to drain, captures, and
	// reopens. Writers check the gate atomically in beginBatch — the
	// mutex and condvar are touched only while the gate is closed.
	cutGate  atomic.Bool
	gateMu   sync.Mutex
	gateCond *sync.Cond

	// curSnap is the most recent Snapshot — the one-deep snapshot pool.
	// Snapshot revalidates it against the epoch vector and hands it out
	// again when nothing changed (see cutUnchanged).
	curSnap atomic.Pointer[Snapshot]

	// Location triggers (§5.3). Unscoped triggers live in an R-tree
	// (their regions routinely span floors, so the index stays global);
	// object-scoped triggers live in a per-object list, so a reading
	// only ever meets the scoped triggers of its own object.
	trigMu     sync.RWMutex
	triggers   map[string]*trigger
	triggerIdx *rtree.Tree
	scoped     map[string][]*trigger

	// hooks run after every successful reading insert (and after the
	// matching triggers), outside all table locks.
	hookMu sync.RWMutex
	hooks  []func(model.Reading)

	// fanout, when set, runs cross-shard query work in parallel; see
	// SetFanout.
	fanout atomic.Pointer[func(n int, fn func(int))]

	// lastSnap is the unix-microsecond time of the last Snapshot call
	// (creation time before the first), feeding the snapshot-age gauge.
	lastSnap atomic.Int64
}

// New creates a database over the given coordinate frame tree. The
// universe rectangle (the building's floor area, the paper's U) bounds
// all geometry and probability reasoning.
func New(frames *coords.Tree, universe geom.Rect) *DB {
	db := &DB{
		frames:     frames,
		shards:     make(map[string]*shard),
		triggers:   make(map[string]*trigger),
		triggerIdx: rtree.New(),
		scoped:     make(map[string][]*trigger),
		universe:   universe,
	}
	db.sensorView.Store(&sensorTable{specs: make(map[string]model.SensorSpec)})
	db.lastSnap.Store(time.Now().UnixMicro())
	db.gateCond = sync.NewCond(&db.gateMu)
	return db
}

// Universe returns the universe rectangle.
func (db *DB) Universe() geom.Rect { return db.universe }

// Frames returns the coordinate frame tree the database resolves
// against.
func (db *DB) Frames() *coords.Tree { return db.frames }

// ---------------------------------------------------------------------------
// Object table

// InsertObject adds an object. Its geometry is resolved from the
// GlobPrefix frame into the universe frame, and the row is homed on
// the shard of its GLOB's top-two path components.
func (db *DB) InsertObject(o Object) error {
	if o.GLOB.IsZero() {
		return fmt.Errorf("%w: empty GLOB", ErrBadGeometry)
	}
	if len(o.LocalPoints) == 0 {
		return fmt.Errorf("%w: object %s has no points", ErrBadGeometry, o.ID())
	}
	id := o.ID()
	sh := db.ensureShard(shardKeyForGLOB(o.GLOB))
	sh.objMu.Lock()
	defer sh.objMu.Unlock()
	if _, ok := sh.objects[id]; ok {
		return fmt.Errorf("%w: object %s", ErrDuplicate, id)
	}
	resolved, poly, err := db.resolveFrames(o.GLOB.Prefix(), o.LocalPoints)
	if err != nil {
		return fmt.Errorf("insert object %s: %w", id, err)
	}
	stored := o
	stored.LocalPoints = append([]geom.Point(nil), o.LocalPoints...)
	stored.Bounds = resolved
	if o.Kind == glob.KindPolygon {
		stored.Polygon = poly
	}
	if o.Properties != nil {
		props := make(map[string]string, len(o.Properties))
		for k, v := range o.Properties {
			props[k] = v
		}
		stored.Properties = props
	}
	sh.mutableObjects()
	sh.objects[id] = &stored
	sh.objIdx.Insert(stored.Bounds, id)
	sh.mRTreeNodes.Set(float64(sh.objIdx.Len()))
	db.objGen.Add(1)
	return nil
}

// resolveFrames converts local-frame points into the universe frame.
// The frame tree is immutable, so no lock is needed.
func (db *DB) resolveFrames(prefix glob.GLOB, pts []geom.Point) (geom.Rect, geom.Polygon, error) {
	frame, ok := db.frames.FrameForGLOBPath(prefix.Path)
	if !ok {
		return geom.Rect{}, nil, fmt.Errorf("no coordinate frame for prefix %q", prefix.String())
	}
	root, err := db.frames.Root(frame)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	poly, err := db.frames.ConvertPolygon(geom.Polygon(pts), frame, root)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	return poly.Bounds(), poly, nil
}

// GetObject returns an object by its GLOB string.
func (db *DB) GetObject(id string) (Object, error) {
	if sh, ok := db.shardFor(shardKeyForID(id)); ok {
		sh.objMu.RLock()
		defer sh.objMu.RUnlock()
		if o, ok := sh.objects[id]; ok {
			return o.clone(), nil
		}
	}
	return Object{}, fmt.Errorf("%w: object %s", ErrNotFound, id)
}

// DeleteObject removes an object.
func (db *DB) DeleteObject(id string) error {
	sh, ok := db.shardFor(shardKeyForID(id))
	if !ok {
		return fmt.Errorf("%w: object %s", ErrNotFound, id)
	}
	sh.objMu.Lock()
	defer sh.objMu.Unlock()
	o, ok := sh.objects[id]
	if !ok {
		return fmt.Errorf("%w: object %s", ErrNotFound, id)
	}
	sh.mutableObjects()
	sh.objIdx.Delete(o.Bounds, id)
	delete(sh.objects, id)
	sh.mRTreeNodes.Set(float64(sh.objIdx.Len()))
	db.objGen.Add(1)
	return nil
}

// Objects returns all objects sorted by ID. The scan runs against one
// consistent cut of every shard's object table (captured lock-free via
// copy-on-write), so a concurrent insert is either fully visible or
// not at all — never split across shards.
func (db *DB) Objects() []Object {
	views := db.objectViews()
	var n int
	for _, v := range views {
		n += len(v.objects)
	}
	out := make([]Object, 0, n)
	for _, v := range views {
		for _, o := range v.objects {
			out = append(out, o.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

func (o *Object) clone() Object {
	out := *o
	out.LocalPoints = append([]geom.Point(nil), o.LocalPoints...)
	out.Polygon = append(geom.Polygon(nil), o.Polygon...)
	if o.Properties != nil {
		props := make(map[string]string, len(o.Properties))
		for k, v := range o.Properties {
			props[k] = v
		}
		out.Properties = props
	}
	return out
}

// ObjectFilter narrows object queries.
type ObjectFilter struct {
	// Type restricts to a semantic type; empty matches all.
	Type string
	// Prefix restricts to objects under a GLOB prefix; zero matches
	// all.
	Prefix glob.GLOB
	// Properties lists attributes the object must carry with the given
	// values.
	Properties map[string]string
}

func (f ObjectFilter) match(o *Object) bool {
	if f.Type != "" && !strings.EqualFold(f.Type, o.Type) {
		return false
	}
	if !f.Prefix.IsZero() && !o.GLOB.HasPrefix(f.Prefix) {
		return false
	}
	for k, v := range f.Properties {
		if o.Properties[k] != v {
			return false
		}
	}
	return true
}

// searchViews fans an R-tree search across every shard's object view,
// collecting matches into index-addressed slots — so serial and
// parallel fan-out produce identical result sets, and the final sort
// makes the order deterministic.
func (db *DB) searchViews(search func(v objView) []Object) []Object {
	views := db.objectViews()
	perShard := make([][]Object, len(views))
	db.fanShards(len(views), func(i int) {
		perShard[i] = search(views[i])
		views[i].done()
	})
	var out []Object
	for _, part := range perShard {
		out = append(out, part...)
	}
	return out
}

// IntersectingObjects returns objects whose universe-frame MBR
// intersects r, filtered, sorted by ID. The search fans out across
// shards when a parallel runner is installed (SetFanout).
func (db *DB) IntersectingObjects(r geom.Rect, f ObjectFilter) []Object {
	defer db.observeQuery(time.Now())
	out := db.searchViews(func(v objView) []Object {
		var part []Object
		for _, it := range v.idx.SearchIntersect(r) {
			o := v.objects[it.ID]
			if o != nil && f.match(o) {
				part = append(part, o.clone())
			}
		}
		return part
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// ContainedObjects returns objects fully inside r, filtered, sorted by
// ID.
func (db *DB) ContainedObjects(r geom.Rect, f ObjectFilter) []Object {
	defer db.observeQuery(time.Now())
	out := db.searchViews(func(v objView) []Object {
		var part []Object
		for _, it := range v.idx.SearchContained(r) {
			o := v.objects[it.ID]
			if o != nil && f.match(o) {
				part = append(part, o.clone())
			}
		}
		return part
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// ObjectsAt returns the objects whose MBR contains the point (deepest
// GLOB first — the room before the floor).
func (db *DB) ObjectsAt(p geom.Point, f ObjectFilter) []Object {
	defer db.observeQuery(time.Now())
	out := db.searchViews(func(v objView) []Object {
		var part []Object
		for _, it := range v.idx.SearchContaining(p) {
			o := v.objects[it.ID]
			if o != nil && f.match(o) {
				part = append(part, o.clone())
			}
		}
		return part
	})
	sort.Slice(out, func(i, j int) bool {
		if d1, d2 := out[i].GLOB.Depth(), out[j].GLOB.Depth(); d1 != d2 {
			return d1 > d2
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// Nearest answers property queries such as "the nearest region with
// power outlets and high Bluetooth signal" (§5.1): the k objects
// passing the filter closest to p. Each shard contributes its own k
// best candidates; the merge keeps the global k by (distance, ID).
func (db *DB) Nearest(p geom.Point, k int, f ObjectFilter) []Object {
	defer db.observeQuery(time.Now())
	type cand struct {
		obj  Object
		dist float64
	}
	views := db.objectViews()
	perShard := make([][]cand, len(views))
	db.fanShards(len(views), func(vi int) {
		v := views[vi]
		// Over-fetch from the index and filter; property predicates
		// cannot be pushed into the R-tree.
		var part []cand
		fetch := k * 4
		if fetch < 16 {
			fetch = 16
		}
		for len(part) < k {
			items := v.idx.Nearest(p, fetch)
			part = part[:0]
			for _, it := range items {
				o := v.objects[it.ID]
				if o != nil && f.match(o) {
					part = append(part, cand{obj: o.clone(), dist: it.Rect.DistToPoint(p)})
					if len(part) == k {
						break
					}
				}
			}
			if len(items) < fetch {
				break // exhausted the shard
			}
			fetch *= 2
		}
		v.done()
		perShard[vi] = part
	})
	var all []cand
	for _, part := range perShard {
		all = append(all, part...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].obj.ID() < all[j].obj.ID()
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]Object, 0, len(all))
	for _, c := range all {
		out = append(out, c.obj)
	}
	return out
}

// ResolveGLOB converts any GLOB — symbolic or coordinate — to its MBR
// in the universe frame. Symbolic GLOBs are looked up in the object
// table (one shard, by prefix); coordinate GLOBs are transformed from
// their prefix frame.
func (db *DB) ResolveGLOB(g glob.GLOB) (geom.Rect, error) {
	if g.IsZero() {
		return geom.Rect{}, fmt.Errorf("%w: empty GLOB", ErrBadGeometry)
	}
	if g.IsCoordinate() {
		r, _, err := db.resolveFrames(g.Prefix(), g.PlanarPoints())
		return r, err
	}
	if sh, ok := db.shardFor(shardKeyForGLOB(g)); ok {
		sh.objMu.RLock()
		o, ok := sh.objects[g.String()]
		sh.objMu.RUnlock()
		if ok {
			return o.Bounds, nil
		}
	}
	return geom.Rect{}, fmt.Errorf("%w: symbolic location %s", ErrNotFound, g.String())
}

// ObjectGeneration returns a counter bumped on every object-table
// change (insert or delete). A cached symbolic resolution is still
// valid while the generation it was computed under is unchanged.
func (db *DB) ObjectGeneration() uint64 { return db.objGen.Load() }

// ---------------------------------------------------------------------------
// Triggers

// AddTrigger registers a spatial trigger: fn fires whenever a reading
// for mobjectID (any object if empty) intersects region. Unscoped
// regions are indexed and scoped ones filed under their object, so an
// insert's matching work is the unscoped index hits plus its own
// object's triggers, whatever the number of triggers.
func (db *DB) AddTrigger(id, mobjectID string, region geom.Rect, fn TriggerFunc) error {
	if id == "" || fn == nil {
		return fmt.Errorf("%w: need id and callback", ErrBadTrigger)
	}
	if !region.Valid() || region.Area() <= 0 {
		return fmt.Errorf("%w: degenerate region %v", ErrBadTrigger, region)
	}
	db.trigMu.Lock()
	defer db.trigMu.Unlock()
	if _, ok := db.triggers[id]; ok {
		return fmt.Errorf("%w: trigger %s", ErrDuplicate, id)
	}
	tr := &trigger{id: id, mobject: mobjectID, region: region, fn: fn}
	db.triggers[id] = tr
	if mobjectID != "" {
		db.scoped[mobjectID] = append(db.scoped[mobjectID], tr)
	} else {
		db.triggerIdx.Insert(region, id)
	}
	return nil
}

// RemoveTrigger unregisters a trigger.
func (db *DB) RemoveTrigger(id string) error {
	db.trigMu.Lock()
	defer db.trigMu.Unlock()
	tr, ok := db.triggers[id]
	if !ok {
		return fmt.Errorf("%w: trigger %s", ErrNotFound, id)
	}
	delete(db.triggers, id)
	if tr.mobject == "" {
		db.triggerIdx.Delete(tr.region, id)
		return nil
	}
	// Order-preserving delete: registration order is the firing order
	// among one object's scoped triggers.
	if kept := slices.DeleteFunc(db.scoped[tr.mobject], func(t *trigger) bool { return t == tr }); len(kept) > 0 {
		db.scoped[tr.mobject] = kept
	} else {
		delete(db.scoped, tr.mobject)
	}
	return nil
}

// TriggerCount returns the number of registered triggers.
func (db *DB) TriggerCount() int {
	db.trigMu.RLock()
	defer db.trigMu.RUnlock()
	return len(db.triggers)
}

// AddInsertHook registers a callback invoked after every successful
// reading insert, once the matching triggers have fired. Hooks run on
// the inserting goroutine outside the table locks. The Location
// Service uses one to observe readings that fall outside any trigger
// region (exit detection for entry/exit subscriptions).
func (db *DB) AddInsertHook(fn func(model.Reading)) {
	if fn == nil {
		return
	}
	db.hookMu.Lock()
	defer db.hookMu.Unlock()
	db.hooks = append(db.hooks, fn)
}
