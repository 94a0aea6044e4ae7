package spatialdb

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/rtree"
)

// Shard-layer metrics (per-shard counters are created with the shard;
// see newShard).
var (
	mShards     = obs.Default().Gauge("spatialdb_shards")
	mMigrations = obs.Default().Counter("spatialdb_shard_migrations_total")
	mSnapshots  = obs.Default().Counter("spatialdb_snapshots_total")
	mSnapClones = obs.Default().Counter("spatialdb_snapshot_clones_total")
	mSnapAgeUs  = obs.Default().Gauge("spatialdb_snapshot_age_us")
	mFedImports = obs.Default().Counter("spatialdb_fed_imports_total")
	mFedDrops   = obs.Default().Counter("spatialdb_fed_drops_total")

	// Snapshot-pool metrics (see Snapshot/Close in snapshot.go). live
	// counts open user handles: every pooled or fresh Snapshot return
	// adds one, every first Close on a handle removes one — so a steady
	// state of zero proves no caller leaks cuts.
	mSnapPoolHits     = obs.Default().Counter("spatialdb_snapshot_pool_hits")
	mSnapPoolRecycled = obs.Default().Counter("spatialdb_snapshot_pool_recycled")
	mSnapPoolLive     = obs.Default().Gauge("spatialdb_snapshot_pool_live")
)

// rootShardKey is the shard for locations whose GLOB has no symbolic
// path components (a bare coordinate in the universe frame).
const rootShardKey = "(root)"

// ShardMetricName returns the registry name of a per-shard metric: the
// base name with a Prometheus-style shard label, e.g.
//
//	spatialdb_shard_inserts_total{shard="CS/Floor3"}
//
// The obs registry is flat, so the label is part of the name; the
// /metrics exposition is still valid Prometheus text format.
func ShardMetricName(base, shardKey string) string {
	return base + `{shard="` + shardKey + `"}`
}

// shardKeyForGLOB maps a GLOB to its shard: the top-two symbolic path
// components ("CS/Floor3/NetLab" → "CS/Floor3"). Buildings partition
// into floors, floors own their rooms, and GLOB prefixes are stable —
// so the key never changes for a fixed location, and range queries
// against a floor stay within one shard (unlike hash sharding).
func shardKeyForGLOB(g glob.GLOB) string {
	switch len(g.Path) {
	case 0:
		return rootShardKey
	case 1:
		return g.Path[0]
	default:
		return g.Path[0] + "/" + g.Path[1]
	}
}

// shardKeyForID maps an object's GLOB string to its shard without
// parsing: the first two '/'-separated symbolic segments (a coordinate
// component, starting with '(', ends the path).
func shardKeyForID(id string) string {
	key := ""
	rest := id
	for seg := 0; seg < 2 && rest != ""; seg++ {
		part := rest
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			part, rest = rest[:j], rest[j+1:]
		} else {
			rest = ""
		}
		if part == "" || part[0] == '(' {
			break
		}
		if key == "" {
			key = part
		} else {
			key += "/" + part
		}
	}
	if key == "" {
		return rootShardKey
	}
	return key
}

// readTable is one shard's reading storage (Table 2 rows plus the
// per-object epoch counters). Tables are copy-on-write: Snapshot marks
// the current table frozen, and the next writer clones the maps before
// mutating (mutableTable), so a frozen table is immutable forever.
// Row slices are shared between a table and its clones; writers may
// append in place (appends land past every frozen reader's length) but
// must never overwrite or re-slice a row slice they do not own — owned
// tracks the slices allocated since this table instance was created.
type readTable struct {
	rows   map[string][]model.Reading
	epochs map[string]uint64
	// owned marks row slices whose backing array was allocated for
	// this table instance: those may be trimmed in place. Slices
	// inherited from a cloned (frozen) table must be replaced, not
	// rewritten.
	owned map[string]bool

	// support indexes, per object, a rectangle guaranteed to contain
	// the bounding box of the object's live (TTL-filtered) readings —
	// the candidate pre-filter for region-shaped queries (DESIGN.md
	// §17). supRect mirrors the indexed rectangle so maintenance can
	// Delete the exact prior entry. The rect is a conservative
	// superset: inserts only union it wider (growSupport); prune,
	// expiry, migration, and federation recompute it exactly
	// (resetSupport). The tree rides the table's copy-on-write
	// lifecycle via rtree.Clone, so a frozen snapshot's tree is never
	// structurally mutated.
	support *rtree.Tree
	supRect map[string]geom.Rect
}

func newReadTable() *readTable {
	return &readTable{
		rows:    make(map[string][]model.Reading),
		epochs:  make(map[string]uint64),
		owned:   make(map[string]bool),
		support: rtree.New(),
		supRect: make(map[string]geom.Rect),
	}
}

// growSupport widens the object's indexed support rectangle to cover r.
// Caller holds the shard's readMu exclusively on a mutable table. The
// steady-state case — a reading inside the already-indexed box — is a
// map lookup and a containment check, with no tree mutation at all.
func (t *readTable) growSupport(id string, r geom.Rect) {
	cur, ok := t.supRect[id]
	if !ok {
		t.support.Insert(r, id)
		t.supRect[id] = r
		return
	}
	if cur.ContainsRect(r) {
		return
	}
	u := cur.Union(r)
	t.support.Delete(cur, id)
	t.support.Insert(u, id)
	t.supRect[id] = u
}

// resetSupport recomputes the object's support entry exactly from rows
// (the bounding box of every stored row's region); empty rows remove
// the entry. Caller holds the shard's readMu exclusively on a mutable
// table.
func (t *readTable) resetSupport(id string, rows []model.Reading) {
	cur, had := t.supRect[id]
	if len(rows) == 0 {
		if had {
			t.support.Delete(cur, id)
			delete(t.supRect, id)
		}
		return
	}
	u := rows[0].Region
	for _, r := range rows[1:] {
		u = u.Union(r.Region)
	}
	if had {
		if u.Eq(cur) {
			return
		}
		t.support.Delete(cur, id)
	}
	t.support.Insert(u, id)
	t.supRect[id] = u
}

// shard is one floor's slice of the database: its own object table and
// R-tree, its own reading table, and its own locks — so ingest and
// expiry on independent floors never contend, and each R-tree stays
// bounded by one floor's population.
type shard struct {
	key string

	// Object table + R-tree. objFrozen marks the objects map as
	// visible to a lock-free reader view; the next writer clones it
	// first (the R-tree copy-on-writes itself via rtree.Clone).
	objMu     sync.RWMutex
	objects   map[string]*Object
	objIdx    *rtree.Tree
	objFrozen atomic.Bool

	// Reading table, copy-on-write (see readTable). readFrozen marks
	// the current table as captured by a snapshot. The pointer is
	// atomic so a snapshot capture can read it without readMu — writers
	// still hold readMu exclusively around every Store.
	readMu     sync.RWMutex
	table      atomic.Pointer[readTable]
	readFrozen atomic.Bool
	// writeEpoch counts reading-table mutation batches on this shard —
	// the shard-level staleness stamp carried by snapshots and surfaced
	// in ShardStats.
	writeEpoch atomic.Uint64

	// Cut-protocol state (cut.go): pending counts mutation brackets in
	// flight on this shard, and spanning the ones among them that also
	// mutate other shards; cutSeq advances at the end of every bracket
	// that actually mutated the table. A snapshot capture of this shard
	// (under readMu, so a single-shard mutation is whole or absent) is
	// valid iff spanning stayed 0 and cutSeq stayed put across it.
	pending  atomic.Int32
	spanning atomic.Int32
	cutSeq   atomic.Uint64

	// inserts counts readings stored here (mirrors the per-shard
	// counter for ShardStats without a registry read).
	inserts atomic.Uint64

	mInserts    *obs.Counter
	mRTreeNodes *obs.Gauge
}

func newShard(key string) *shard {
	sh := &shard{
		key:         key,
		objects:     make(map[string]*Object),
		objIdx:      rtree.New(),
		mInserts:    obs.Default().Counter(ShardMetricName("spatialdb_shard_inserts_total", key)),
		mRTreeNodes: obs.Default().Gauge(ShardMetricName("spatialdb_shard_rtree_nodes", key)),
	}
	sh.table.Store(newReadTable())
	return sh
}

// mutableTable returns a reading table the caller may mutate. Caller
// holds readMu exclusively. If the current table is frozen in a
// snapshot, it is cloned first (shallow: row slices are shared, see
// readTable).
func (sh *shard) mutableTable() *readTable {
	if !sh.readFrozen.Load() {
		return sh.table.Load()
	}
	old := sh.table.Load()
	nt := &readTable{
		rows:   make(map[string][]model.Reading, len(old.rows)),
		epochs: make(map[string]uint64, len(old.epochs)),
		owned:  make(map[string]bool),
		// O(1) copy-on-write: the clone shares nodes with the frozen
		// tree and deep-copies only on its first actual mutation.
		support: old.support.Clone(),
		supRect: make(map[string]geom.Rect, len(old.supRect)),
	}
	for k, v := range old.rows {
		nt.rows[k] = v
	}
	for k, v := range old.epochs {
		nt.epochs[k] = v
	}
	for k, v := range old.supRect {
		nt.supRect[k] = v
	}
	sh.table.Store(nt)
	sh.readFrozen.Store(false)
	mSnapClones.Inc()
	return nt
}

// mutableObjects makes the object map safe to mutate. Caller holds
// objMu exclusively. (The R-tree copy-on-writes independently: it was
// marked shared by Clone and materializes on its next mutation.)
func (sh *shard) mutableObjects() {
	if !sh.objFrozen.Load() {
		return
	}
	m := make(map[string]*Object, len(sh.objects))
	for k, v := range sh.objects {
		m[k] = v
	}
	sh.objects = m
	sh.objFrozen.Store(false)
}

// objView is a lock-free read view of one shard's object table: the
// frozen map and a copy-on-write clone of the R-tree. Searches run
// without holding the shard lock; done() folds the clone's node visits
// back into the live index so the rtree_node_visits gauge keeps
// counting query work.
type objView struct {
	sh      *shard
	objects map[string]*Object
	idx     *rtree.Tree
}

func (v objView) done() {
	if n := v.idx.Visits(); n > 0 {
		v.sh.objIdx.AddVisits(n)
	}
}

// objectViews captures a consistent per-shard view of every object
// table. The capture itself is a brief read-lock per shard; searching
// and merging happen lock-free afterwards.
func (db *DB) objectViews() []objView {
	shards := db.allShards()
	views := make([]objView, len(shards))
	for i, sh := range shards {
		sh.objMu.RLock()
		views[i] = objView{sh: sh, objects: sh.objects, idx: sh.objIdx.Clone()}
		sh.objFrozen.Store(true)
		sh.objMu.RUnlock()
	}
	return views
}

// shardFor returns the shard for a key if it exists.
func (db *DB) shardFor(key string) (*shard, bool) {
	db.shardMu.RLock()
	sh, ok := db.shards[key]
	db.shardMu.RUnlock()
	return sh, ok
}

// ensureShard returns the shard for a key, creating it on first use.
func (db *DB) ensureShard(key string) *shard {
	if sh, ok := db.shardFor(key); ok {
		return sh
	}
	db.shardMu.Lock()
	defer db.shardMu.Unlock()
	if sh, ok := db.shards[key]; ok {
		return sh
	}
	sh := newShard(key)
	db.shards[key] = sh
	// Copy-on-write for the ordered slice: allShards hands the current
	// slice to lock-free iteration, so it is never appended in place.
	order := make([]*shard, 0, len(db.order)+1)
	order = append(order, db.order...)
	order = append(order, sh)
	sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
	db.order = order
	mShards.Set(float64(len(db.shards)))
	return sh
}

// allShards returns the shards sorted by key. The slice is immutable
// (replaced wholesale on shard creation), so callers iterate without a
// lock.
func (db *DB) allShards() []*shard {
	db.shardMu.RLock()
	order := db.order
	db.shardMu.RUnlock()
	return order
}

// fanShards runs fn(0..n-1) through the installed fan-out runner when
// one is wired and there is real fan-out to gain, serially otherwise.
// Index-addressed result slots keep the merge deterministic either
// way.
func (db *DB) fanShards(n int, fn func(int)) {
	if n > 1 {
		if fan := db.fanout.Load(); fan != nil {
			(*fan)(n, fn)
			return
		}
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// SetFanout installs a parallel runner for cross-shard queries; the
// Location Service wires its bounded worker pool in. run must execute
// fn(0..n-1), possibly concurrently, and return after all calls
// complete. A nil run restores serial evaluation.
func (db *DB) SetFanout(run func(n int, fn func(int))) {
	if run == nil {
		db.fanout.Store(nil)
		return
	}
	db.fanout.Store(&run)
}

// ShardStat describes one shard for stats surfaces (mwctl stats).
type ShardStat struct {
	// Key is the shard's GLOB prefix (top-two path components).
	Key string `json:"key"`
	// Objects is the number of object-table rows homed here.
	Objects int `json:"objects"`
	// MobileObjects is the number of objects with stored readings.
	MobileObjects int `json:"mobile_objects"`
	// Readings is the total number of stored reading rows.
	Readings int `json:"readings"`
	// RTreeNodes is the object R-tree's entry count.
	RTreeNodes int `json:"rtree_nodes"`
	// SupportRects is the reading-support R-tree's entry count (one
	// per mobile object homed here) — the candidate pre-filter index.
	SupportRects int `json:"support_rects"`
	// Epoch is the shard's write epoch (mutation batches applied).
	Epoch uint64 `json:"epoch"`
	// Inserts counts readings stored since the database was created.
	Inserts uint64 `json:"inserts"`
}

// ShardStats reports per-shard table sizes and write epochs, sorted by
// shard key. It also refreshes the snapshot-age gauge.
func (db *DB) ShardStats() []ShardStat {
	db.refreshSnapshotAge()
	shards := db.allShards()
	out := make([]ShardStat, 0, len(shards))
	for _, sh := range shards {
		st := ShardStat{
			Key:     sh.key,
			Epoch:   sh.writeEpoch.Load(),
			Inserts: sh.inserts.Load(),
		}
		sh.objMu.RLock()
		st.Objects = len(sh.objects)
		st.RTreeNodes = sh.objIdx.Len()
		sh.objMu.RUnlock()
		sh.readMu.RLock()
		t := sh.table.Load()
		st.MobileObjects = len(t.rows)
		st.SupportRects = t.support.Len()
		for _, rows := range t.rows {
			st.Readings += len(rows)
		}
		sh.readMu.RUnlock()
		out = append(out, st)
	}
	return out
}

// refreshSnapshotAge sets the snapshot-age gauge to the time since the
// last Snapshot call (since New when none has been taken).
func (db *DB) refreshSnapshotAge() {
	mSnapAgeUs.Set(float64(time.Since(time.UnixMicro(db.lastSnap.Load())).Microseconds()))
}
