// Package core implements the MiddleWhere Location Service (§4): the
// single source of location information for location-sensitive
// applications. It fuses data from multiple sensors and resolves
// conflicts (§4.1), answers object-based and region-based queries
// (§4.2), accepts subscriptions for location-based conditions and
// notifies applications when they become true (§4.3), classifies the
// probability space into bands (§4.4), resolves symbolic regions with
// privacy granularity limits (§4.5), and derives spatial relationships
// between objects and regions (§4.6).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/rcc"
	"middlewhere/internal/rules"
	"middlewhere/internal/spatialdb"
	"middlewhere/internal/topo"
)

// Location is the consolidated answer to "where is object X?": the
// inferred rectangle in the universe frame, its probability and band,
// and the symbolic region it falls in.
type Location struct {
	// Object is the located mobile object's ID.
	Object string
	// Rect is the inferred location MBR in the universe frame.
	Rect geom.Rect
	// Prob is the probability the object is within Rect.
	Prob float64
	// Band classifies Prob against the deployed sensors (§4.4).
	Band fusion.Band
	// Symbolic is the deepest symbolic region containing the estimate
	// (possibly truncated by a privacy policy).
	Symbolic glob.GLOB
	// Coordinate is the estimate's rectangle as a coordinate GLOB in
	// the universe frame.
	Coordinate glob.GLOB
	// Support and Discarded list the sensor readings used and rejected
	// by conflict resolution.
	Support, Discarded []string
	// At is the query evaluation time.
	At time.Time
}

// Notification is delivered to subscribers when their location
// condition becomes true (§4.3).
type Notification struct {
	// SubscriptionID identifies the subscription.
	SubscriptionID string
	// Object is the mobile object that satisfied the condition.
	Object string
	// Region is the subscription's region in the universe frame.
	Region geom.Rect
	// Prob is the fused probability that the object is in Region.
	Prob float64
	// Band classifies Prob.
	Band fusion.Band
	// At is when the triggering reading was evaluated.
	At time.Time
	// Trace is the obs trace ID of the reading that provoked this
	// notification (empty when tracing is disabled), so a remote
	// subscriber can attribute the push to its cause.
	Trace string
}

// Subscription configures a region-based notification (§4.3).
type Subscription struct {
	// Object restricts the subscription to one mobile object; empty
	// watches everyone.
	Object string
	// Region is the region of interest: a symbolic or coordinate GLOB.
	Region glob.GLOB
	// MinProb is the probability threshold; the subscriber is notified
	// when P(object in region) exceeds it. Zero means any positive
	// probability.
	MinProb float64
	// MinBand, when non-zero, additionally requires the probability to
	// reach the given band.
	MinBand fusion.Band
	// EveryReading requests a notification for every qualifying
	// reading. The default notifies only on entry — when the condition
	// transitions from false to true for an object.
	EveryReading bool
	// Handler receives notifications on the service's notifier
	// goroutine. It must not block for long.
	Handler func(Notification)
}

// PrivacyPolicy limits the granularity at which an object's location
// may be revealed (§4.5).
type PrivacyPolicy struct {
	// MaxGranularity is the deepest reveal allowed (e.g. GranRoom).
	MaxGranularity glob.Granularity
	// HideCoordinates suppresses the coordinate GLOB entirely.
	HideCoordinates bool
}

// Service is the Location Service. Create with New and Close when
// done.
type Service struct {
	db    *spatialdb.DB
	graph *topo.Graph
	bld   *building.Building
	now   func() time.Time

	mu   sync.Mutex
	subs map[string]*subscription
	// inside indexes, per object, the subscriptions whose condition
	// currently holds for it (object -> subID -> subscription). Only
	// true states are stored, so exit detection for a reading visits
	// the subscriptions holding its object and nothing else.
	inside map[string]map[string]*subscription
	seq    int

	// privMu guards the read-mostly disclosure tables separately from
	// the subscription state: applyPrivacy sits on the locate hot path
	// and must not contend with trigger bookkeeping.
	privMu  sync.RWMutex
	privacy map[string]PrivacyPolicy // object -> policy
	acls    map[string]AccessPolicy  // object -> per-requester policy

	// cache holds per-object fused-location state invalidated by
	// reading epochs; sensors memoizes the spec table + classifier;
	// quantum bounds cached staleness on a live clock.
	cache   locateCache
	sensors sensorMemo
	quantum time.Duration

	// pool fans ObjectsInRegion and batched trigger evaluation across
	// objects; nil when parallelism is 1.
	parallelism int
	pool        *workerPool

	// notifyQs is the sharded notification queue set: worker i drains
	// notifyQs[i], and a subscription's dispatches always hash to the
	// same queue (queueFor), so per-subscription delivery order is
	// preserved while independent subscriptions deliver in parallel.
	notifyQs      []chan dispatch
	notifyWorkers int
	notifyWG      sync.WaitGroup
	stop          chan struct{}

	// started anchors Health's uptime.
	started time.Time
	// ingested and notified count readings accepted and notifications
	// dispatched since start (heartbeat counters for Health).
	ingested, notified atomic.Uint64

	// history is non-nil when WithHistory is enabled.
	history *historyRecorder

	// routerMu guards the federation ingest router. When one is
	// installed (federated daemons only), IngestBatch consults it to
	// forward readings owned by peer daemons before storing the rest
	// locally.
	routerMu     sync.RWMutex
	ingestRouter IngestRouter
}

// IngestRouter partitions an ingest batch for federation: it forwards
// readings whose floor shard is placed on a peer daemon and returns
// the indices (into the submitted slice, ascending) of the readings to
// store locally. An implementation must not lose readings: anything it
// cannot forward (peer down, no lease) it keeps local by including the
// index. The returned error reports forwarding trouble that did not
// lose data (the affected readings are in localIdx).
type IngestRouter interface {
	RouteReadings(rs []model.Reading) (localIdx []int, err error)
}

// SetIngestRouter installs (or, with nil, removes) the federation
// ingest router.
func (s *Service) SetIngestRouter(r IngestRouter) {
	s.routerMu.Lock()
	s.ingestRouter = r
	s.routerMu.Unlock()
}

func (s *Service) currentRouter() IngestRouter {
	s.routerMu.RLock()
	r := s.ingestRouter
	s.routerMu.RUnlock()
	return r
}

type subscription struct {
	id     string
	spec   Subscription
	region geom.Rect
}

type dispatch struct {
	fn func(Notification)
	n  Notification
	// enq anchors the notify stage: queue wait plus handler execution
	// both count against delivery, not trigger evaluation.
	enq time.Time
}

// Option configures the service.
type Option interface{ apply(*Service) }

type clockOption struct{ now func() time.Time }

func (o clockOption) apply(s *Service) { s.now = o.now }

// WithClock injects a clock; tests use it to control temporal
// degradation and TTLs deterministically.
func WithClock(now func() time.Time) Option { return clockOption{now: now} }

type parallelismOption struct{ n int }

func (o parallelismOption) apply(s *Service) { s.parallelism = o.n }

// WithParallelism sets the worker-pool size used to fan
// ObjectsInRegion and batched trigger evaluation across objects. Zero
// (the default) sizes the pool to GOMAXPROCS; 1 disables the pool and
// evaluates serially.
func WithParallelism(n int) Option { return parallelismOption{n} }

type quantumOption struct{ d time.Duration }

func (o quantumOption) apply(s *Service) { s.quantum = o.d }

// WithCacheQuantum sets how long a cached fused location may be served
// on a live clock before temporal degradation forces a recompute.
// Epoch invalidation on new readings is exact regardless; the quantum
// only bounds time-decay staleness. Zero restricts cache hits to
// queries at the exact cached instant (useful under a fixed test
// clock).
func WithCacheQuantum(d time.Duration) Option { return quantumOption{d} }

type notifyWorkersOption struct{ n int }

func (o notifyWorkersOption) apply(s *Service) { s.notifyWorkers = o.n }

// WithNotifyWorkers sets the number of notifier workers draining the
// sharded notification queues. Zero (the default) derives the count
// from the service parallelism, capped at maxNotifyWorkers; 1 restores
// the single-goroutine notifier. Notifications for one subscription
// always run on the same worker, in enqueue order, whatever the count.
func WithNotifyWorkers(n int) Option { return notifyWorkersOption{n} }

// Sentinel errors.
var (
	ErrUnknownObject = errors.New("core: no readings for object")
	ErrClosed        = errors.New("core: service closed")
	ErrBadSub        = errors.New("core: bad subscription")
)

// New builds a Location Service over a building model: it creates the
// spatial database, loads the floor objects, and builds the topology
// graph.
func New(b *building.Building, opts ...Option) (*Service, error) {
	db, err := b.NewDB()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	graph, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Service{
		db:      db,
		graph:   graph,
		bld:     b,
		now:     time.Now,
		subs:    make(map[string]*subscription),
		inside:  make(map[string]map[string]*subscription),
		privacy: make(map[string]PrivacyPolicy),
		acls:    make(map[string]AccessPolicy),
		cache:   locateCache{entries: make(map[string]*locEntry)},
		quantum: defaultCacheQuantum,
		stop:    make(chan struct{}),
	}
	for _, o := range opts {
		o.apply(s)
	}
	if s.parallelism <= 0 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	if s.parallelism > 1 {
		s.pool = newWorkerPool(s.parallelism)
		// Cross-shard object queries (Objects, IntersectingObjects,
		// Nearest, MWQL scans) fan their per-shard searches across the
		// same bounded pool.
		db.SetFanout(s.pool.fanOut)
	}
	if s.notifyWorkers <= 0 {
		s.notifyWorkers = s.parallelism
	}
	if s.notifyWorkers > maxNotifyWorkers {
		s.notifyWorkers = maxNotifyWorkers
	}
	// Total buffered capacity stays at the pre-sharding level (one
	// 1024-slot queue) split across the workers, with a floor so a
	// single slow handler still rides out bursts on its own queue.
	qcap := notifyQueueCap / s.notifyWorkers
	if qcap < minNotifyQueueCap {
		qcap = minNotifyQueueCap
	}
	s.notifyQs = make([]chan dispatch, s.notifyWorkers)
	s.notifyWG.Add(s.notifyWorkers)
	for i := range s.notifyQs {
		s.notifyQs[i] = make(chan dispatch, qcap)
		go s.notifier(s.notifyQs[i])
	}
	mNotifyWorkers.Set(float64(s.notifyWorkers))
	s.started = s.now()
	db.AddInsertHook(s.observeExit)
	if s.history != nil {
		db.AddInsertHook(s.observeForHistory)
	}
	return s, nil
}

// observeExit re-evaluates entry/exit state for subscriptions that
// currently hold an object inside their region when a new reading for
// that object lands elsewhere: without this, an object that left a
// region silently would still be considered inside and its next entry
// would not notify. Only the subscriptions holding the object are
// visited, so the cost does not grow with the subscription table.
func (s *Service) observeExit(r model.Reading) {
	obj := r.MObjectID
	s.mu.Lock()
	var stale []*subscription
	for _, sub := range s.inside[obj] {
		if !sub.region.Intersects(r.Region) {
			stale = append(stale, sub)
		}
	}
	s.mu.Unlock()
	for _, sub := range stale {
		p, _, err := s.probInRect(obj, sub.region)
		inside := err == nil && p > 0 && p >= sub.spec.MinProb
		s.mu.Lock()
		if s.subs[sub.id] == sub {
			s.setInside(obj, sub, inside)
		}
		s.mu.Unlock()
	}
}

// setInside records whether sub's condition holds for obj and returns
// the previous state. Caller holds s.mu.
func (s *Service) setInside(obj string, sub *subscription, inside bool) (was bool) {
	held := s.inside[obj]
	_, was = held[sub.id]
	switch {
	case inside && !was:
		if held == nil {
			held = make(map[string]*subscription)
			s.inside[obj] = held
		}
		held[sub.id] = sub
	case !inside && was:
		delete(held, sub.id)
		if len(held) == 0 {
			delete(s.inside, obj)
		}
	}
	return was
}

// Notifier sizing. The per-queue buffer keeps the pre-sharding total
// (1024 dispatches) split across workers, floored so each queue still
// absorbs a burst alone.
const (
	maxNotifyWorkers  = 8
	notifyQueueCap    = 1024
	minNotifyQueueCap = 128
)

// Core metrics, cached once so the trigger/notify paths are pure
// atomics.
var (
	mIngested      = obs.Default().Counter("core_ingested_total")
	mTriggerEvals  = obs.Default().Counter("core_trigger_evals_total")
	mTriggerUs     = obs.Default().Histogram("core_trigger_eval_us")
	mNotified      = obs.Default().Counter("core_notifications_total")
	mNotifyUs      = obs.Default().Histogram("core_notify_us")
	mQueueDepth    = obs.Default().Gauge("core_notify_queue_depth")
	mNotifyWorkers = obs.Default().Gauge("core_notify_workers")
	mNotifyDrops   = obs.Default().Counter("core_notify_drops_total")
)

// queueFor maps a subscription to its notification queue: FNV-1a over
// the subscription ID, so one subscription's dispatches always land on
// the same worker (per-subscription order) while distinct
// subscriptions spread across the set.
func (s *Service) queueFor(subID string) chan dispatch {
	if len(s.notifyQs) == 1 {
		return s.notifyQs[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(subID); i++ {
		h = (h ^ uint32(subID[i])) * 16777619
	}
	return s.notifyQs[h%uint32(len(s.notifyQs))]
}

// notifyDepth sums the queued dispatches across every worker queue.
func (s *Service) notifyDepth() int {
	d := 0
	for _, q := range s.notifyQs {
		d += len(q)
	}
	return d
}

// deliver runs one queued notification handler, accounting queue wait
// plus handler time to the notify stage.
func (s *Service) deliver(d dispatch) {
	d.fn(d.n)
	mNotifyUs.Observe(float64(time.Since(d.enq).Microseconds()))
	obs.SpanSince(d.n.Trace, "notify", d.enq)
	mQueueDepth.Set(float64(s.notifyDepth()))
}

// notifier delivers one queue's notifications off the insert path.
// Each worker owns exactly one queue, so dispatches within a queue —
// and therefore within a subscription — run strictly in enqueue order.
func (s *Service) notifier(q chan dispatch) {
	defer s.notifyWG.Done()
	for {
		select {
		case d := <-q:
			s.deliver(d)
		case <-s.stop:
			// Drain anything already queued, then exit.
			for {
				select {
				case d := <-q:
					s.deliver(d)
				default:
					return
				}
			}
		}
	}
}

// Close stops the notifier workers and waits for them to exit.
func (s *Service) Close() {
	s.mu.Lock()
	select {
	case <-s.stop:
		s.mu.Unlock()
		return
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	s.notifyWG.Wait()
	if s.pool != nil {
		s.pool.close()
	}
}

// DB exposes the underlying spatial database (adapters insert readings
// through it; applications may run object queries).
func (s *Service) DB() *spatialdb.DB { return s.db }

// Graph exposes the building topology graph.
func (s *Service) Graph() *topo.Graph { return s.graph }

// Universe returns the universe rectangle.
func (s *Service) Universe() geom.Rect { return s.db.Universe() }

// RegisterSensor records a sensor instance and its calibration.
func (s *Service) RegisterSensor(sensorID string, spec model.SensorSpec) error {
	return s.db.RegisterSensor(sensorID, spec)
}

// Ingest stores a sensor reading; database triggers fire and matching
// subscriptions are evaluated.
func (s *Service) Ingest(r model.Reading) error {
	if s.currentRouter() != nil {
		// Federated daemons route every reading so floors placed on
		// peer daemons receive theirs; the batch path owns that logic.
		return s.IngestBatch([]model.Reading{r})
	}
	if r.Trace == "" && obs.Enabled() {
		// Local ingest begins the trace here; readings arriving over
		// mwrpc carry the ID their client stamped.
		r.Trace = obs.BeginTrace()
	}
	if err := s.db.InsertReading(r); err != nil {
		return err
	}
	s.ingested.Add(1)
	mIngested.Inc()
	return nil
}

// Batch-ingest metrics.
var (
	mBatchIngests = obs.Default().Counter("core_batch_ingests_total")
	mBatchSize    = obs.Default().Histogram("core_batch_size")
	mForwarded    = obs.Default().Counter("core_forwarded_readings_total")
)

// IngestBatch stores a slice of readings in one database pass,
// amortizing lock acquisition across the batch and fanning the
// resulting trigger evaluations out per object on the worker pool.
// Readings that fail validation are skipped and reported in the
// returned *spatialdb.RejectedError (indices are positions in rs); the
// rest are stored, so callers must not re-submit the whole slice on
// that error.
func (s *Service) IngestBatch(rs []model.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	if obs.Enabled() {
		// Stamp traces on a copy; the caller's slice stays untouched.
		stamped := make([]model.Reading, len(rs))
		copy(stamped, rs)
		for i := range stamped {
			if stamped[i].Trace == "" {
				stamped[i].Trace = obs.BeginTrace()
			}
		}
		rs = stamped
	}
	router := s.currentRouter()
	if router == nil {
		return s.ingestStamped(rs)
	}
	localIdx, routeErr := router.RouteReadings(rs)
	if len(localIdx) == len(rs) {
		// Everything stayed local (single-daemon placement, or the
		// router fell back for every reading).
		if err := s.ingestStamped(rs); err != nil {
			return err
		}
		return routeErr
	}
	mForwarded.Add(uint64(len(rs) - len(localIdx)))
	if len(localIdx) == 0 {
		return routeErr
	}
	local := make([]model.Reading, 0, len(localIdx))
	for _, i := range localIdx {
		local = append(local, rs[i])
	}
	err := s.ingestStamped(local)
	// Rejected indices refer to the local subset; remap them to the
	// caller's positions so at-least-once retry logic stays exact.
	var rej *spatialdb.RejectedError
	if errors.As(err, &rej) {
		for k, li := range rej.Indices {
			rej.Indices[k] = localIdx[li]
		}
	}
	if err != nil {
		return err
	}
	return routeErr
}

// IngestBatchLocal stores a batch strictly on this daemon, bypassing
// the federation router. The federation layer serves forwarded batches
// through it — a forwarded reading must not be re-routed even when the
// placement maps briefly disagree, or two daemons could bounce it
// forever.
func (s *Service) IngestBatchLocal(rs []model.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	if obs.Enabled() {
		stamped := make([]model.Reading, len(rs))
		copy(stamped, rs)
		for i := range stamped {
			if stamped[i].Trace == "" {
				stamped[i].Trace = obs.BeginTrace()
			}
		}
		rs = stamped
	}
	return s.ingestStamped(rs)
}

// ingestStamped is the shared storage tail of the ingest paths: one
// database pass, counters, and batch metrics. Traces are already
// stamped.
func (s *Service) ingestStamped(rs []model.Reading) error {
	n, err := s.db.InsertReadings(rs, s.dispatchFirings)
	s.ingested.Add(uint64(n))
	mIngested.Add(uint64(n))
	mBatchIngests.Inc()
	mBatchSize.Observe(float64(len(rs)))
	return err
}

// classifier returns the §4.4 probability classifier for the
// registered sensors, memoized against the sensor-table generation.
func (s *Service) classifier() fusion.Classifier {
	_, cls := s.sensorView()
	return cls
}

// fusionReadings converts the object's live readings into fusion
// inputs: p_i is the spec's detection probability net of temporal
// degradation, and q_i is the spec's false-report probability scaled
// by area(A)/area(U) — a spurious report is uniformly distributed over
// the coverage area, so the likelihood of it landing on the reading's
// specific rectangle shrinks with that rectangle (the same scaling the
// paper applies to z in §6: z = z0·area(A)/area(U)).
func (s *Service) fusionReadings(objectID string, now time.Time) []fusion.Reading {
	rows := s.db.LatestPerSensor(objectID, now)
	specs, _ := s.sensorView()
	return fusion.FromReadings(rows, specs, now, s.db.Universe().Area())
}

// LocateObject answers the object-based query "where is X?" (§4.2):
// it fuses the live readings, resolves conflicts, classifies the
// probability, resolves the symbolic region, and applies any privacy
// policy registered for the object.
func (s *Service) LocateObject(objectID string) (Location, error) {
	now := s.now()
	readings, entry := s.fusionState(objectID, now)
	if len(readings) == 0 {
		return Location{}, fmt.Errorf("%w: %s", ErrUnknownObject, objectID)
	}
	if entry.hasLoc {
		// Warm path: the cached entry already carries the fused
		// location; only the per-request privacy policy is applied.
		return s.applyPrivacy(objectID, entry.loc), nil
	}
	lat := fusion.Build(s.db.Universe(), readings)
	est, err := lat.Infer()
	if err != nil {
		return Location{}, fmt.Errorf("locate %s: %w", objectID, err)
	}
	loc := Location{
		Object:     objectID,
		Rect:       est.Rect,
		Prob:       est.Prob,
		Band:       s.classifier().Classify(est.Prob),
		Symbolic:   s.symbolicRegion(est.Rect),
		Coordinate: glob.CoordinateRect(glob.Symbolic(s.bld.Name), est.Rect),
		Support:    est.Support,
		Discarded:  est.Discarded,
		// At is the evaluation time of the readings the estimate was
		// fused from, which for a cache hit predates the query by less
		// than the cache quantum.
		At: entry.at,
	}
	// Publish a fresh immutable entry carrying the fused location; the
	// keys and readings are inherited from the entry just validated.
	filled := *entry
	filled.hasLoc = true
	filled.loc = loc
	s.cache.put(objectID, &filled)
	return s.applyPrivacy(objectID, loc), nil
}

// symbolicRegion finds the deepest symbolic region whose bounds
// contain the estimate (falling back to the region containing its
// centre).
func (s *Service) symbolicRegion(r geom.Rect) glob.GLOB {
	best := glob.GLOB{}
	bestDepth := -1
	for _, o := range s.db.IntersectingObjects(r, spatialdb.ObjectFilter{}) {
		switch o.Type {
		case "Room", "Corridor", "Floor":
		default:
			continue
		}
		contains := o.Bounds.ContainsRect(r) || o.Bounds.ContainsPoint(r.Center())
		if contains && o.GLOB.Depth() > bestDepth {
			best, bestDepth = o.GLOB, o.GLOB.Depth()
		}
	}
	return best
}

// SetPrivacy registers a privacy policy for an object (§4.5). A zero
// policy removes the restriction.
func (s *Service) SetPrivacy(objectID string, p PrivacyPolicy) {
	s.privMu.Lock()
	defer s.privMu.Unlock()
	if p == (PrivacyPolicy{}) {
		delete(s.privacy, objectID)
		return
	}
	s.privacy[objectID] = p
}

func (s *Service) applyPrivacy(objectID string, loc Location) Location {
	s.privMu.RLock()
	p, ok := s.privacy[objectID]
	s.privMu.RUnlock()
	if !ok {
		return loc
	}
	return s.applyPolicy(loc, p)
}

// ProbInRegion answers the region-based query "what is the probability
// that X is in region R?" (§4.2). The region may be symbolic or
// coordinate.
func (s *Service) ProbInRegion(objectID string, region glob.GLOB) (float64, fusion.Band, error) {
	rect, err := s.db.ResolveGLOB(region)
	if err != nil {
		return 0, 0, fmt.Errorf("region query: %w", err)
	}
	return s.probInRect(objectID, rect)
}

func (s *Service) probInRect(objectID string, rect geom.Rect) (float64, fusion.Band, error) {
	now := s.now()
	readings, _ := s.fusionState(objectID, now)
	if len(readings) == 0 {
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownObject, objectID)
	}
	p := fusion.ProbRegion(s.db.Universe(), readings, rect)
	return p, s.classifier().Classify(p), nil
}

// ObjectsInRegion answers "who is in room R?" (§1.1's region-based
// location): every mobile object whose probability of being in the
// region reaches minProb, with the probabilities.
//
// The scan is sublinear in total object count: candidates come from
// the per-shard support R-trees instead of iterating every mobile
// object, and each candidate is gated on its live reading support — an
// object none of whose readings touch the region contributes nothing
// (the support-gated semantics, DESIGN.md §17).
func (s *Service) ObjectsInRegion(region glob.GLOB, minProb float64) (map[string]float64, error) {
	rect, err := s.db.ResolveGLOB(region)
	if err != nil {
		return nil, fmt.Errorf("region query: %w", err)
	}
	// One snapshot pins the whole scan to a consistent cut of the
	// reading tables: every object is evaluated against the same set of
	// completed insert batches, and the scan holds no table locks while
	// it fuses, so concurrent per-floor ingest proceeds unimpeded.
	snap := s.db.Snapshot()
	defer snap.Close()
	return s.objectsInRegionOn(snap, rect, minProb, s.now(), true), nil
}

// objectsInRegionOn runs the region scan against one snapshot.
// prefilter selects the candidate source — the support R-tree
// pre-filter, or the exhaustive all-objects scan the equivalence tests
// compare against; both apply the identical live-support gate.
func (s *Service) objectsInRegionOn(snap *spatialdb.Snapshot, rect geom.Rect, minProb float64, now time.Time, prefilter bool) map[string]float64 {
	var ids []string
	if prefilter {
		cands := snap.SupportCandidates(rect)
		ids = make([]string, len(cands))
		for i, c := range cands {
			ids[i] = c.ID
		}
	} else {
		ids = snap.MobileObjects()
	}
	// Results land in index-addressed slots, so the merge below is
	// deterministic no matter which worker finishes first.
	probs := make([]float64, len(ids))
	hit := make([]bool, len(ids))
	eval := func(i int) {
		readings := s.fusionStateSnap(snap, ids[i], now)
		if _, ok := liveSupport(readings, rect); !ok {
			return
		}
		p := fusion.ProbRegion(snap.Universe(), readings, rect)
		if p >= minProb && p > 0 {
			probs[i], hit[i] = p, true
		}
	}
	if s.pool != nil && len(ids) >= parallelFanThreshold {
		s.pool.fanOutChunked(len(ids), s.parallelism, eval)
	} else {
		for i := range ids {
			eval(i)
		}
	}
	out := make(map[string]float64)
	for i, id := range ids {
		if hit[i] {
			out[id] = probs[i]
		}
	}
	return out
}

// Subscribe registers a region-based notification (§4.3) and returns
// its ID. The condition is compiled into a spatial-database trigger;
// when a qualifying reading arrives, the service fuses the object's
// readings, and notifies the handler if the probability passes the
// thresholds.
func (s *Service) Subscribe(spec Subscription) (string, error) {
	if spec.Handler == nil {
		return "", fmt.Errorf("%w: nil handler", ErrBadSub)
	}
	rect, err := s.db.ResolveGLOB(spec.Region)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSub, err)
	}
	s.mu.Lock()
	s.seq++
	id := "sub-" + strconv.Itoa(s.seq)
	sub := &subscription{id: id, spec: spec, region: rect}
	s.subs[id] = sub
	s.mu.Unlock()

	if err := s.db.AddTrigger(id, spec.Object, rect, s.onTrigger(sub)); err != nil {
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
		return "", err
	}
	return id, nil
}

// onTrigger adapts a subscription to a database trigger callback; the
// single-insert path evaluates against the live tables.
func (s *Service) onTrigger(sub *subscription) spatialdb.TriggerFunc {
	return func(ev spatialdb.TriggerEvent) { s.evalTrigger(sub, ev, nil) }
}

// subFor maps a fired trigger back to its subscription (trigger IDs
// are subscription IDs); nil when it was unsubscribed concurrently.
func (s *Service) subFor(triggerID string) *subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subs[triggerID]
}

// evalTrigger evaluates a fired database trigger against the
// subscription's probability condition. A non-nil snap evaluates the
// probability against that consistent cut (the batched dispatch path
// takes one snapshot per batch); nil evaluates against the live
// tables.
func (s *Service) evalTrigger(sub *subscription, ev spatialdb.TriggerEvent, snap *spatialdb.Snapshot) {
	start := time.Now()
	trace := ev.Reading.Trace
	mTriggerEvals.Inc()
	// The trigger_eval stage ends when the notification is handed to
	// the queue (or the evaluation decides not to notify); queue wait
	// belongs to notify.
	evalDone := func() {
		mTriggerUs.Observe(float64(time.Since(start).Microseconds()))
		obs.SpanSince(trace, "trigger_eval", start)
	}
	obj := ev.Reading.MObjectID
	var (
		p    float64
		band fusion.Band
	)
	if snap != nil {
		readings := s.fusionStateSnap(snap, obj, s.now())
		if len(readings) == 0 {
			evalDone()
			return
		}
		p = fusion.ProbRegion(snap.Universe(), readings, sub.region)
		band = s.classifierFor(snap).Classify(p)
	} else {
		var err error
		p, band, err = s.probInRect(obj, sub.region)
		if err != nil {
			evalDone()
			return
		}
	}
	qualifies := p > 0 && p >= sub.spec.MinProb
	if qualifies && sub.spec.MinBand > 0 && band < sub.spec.MinBand {
		qualifies = false
	}
	s.mu.Lock()
	if s.subs[sub.id] != sub { // unsubscribed concurrently
		s.mu.Unlock()
		evalDone()
		return
	}
	was := s.setInside(obj, sub, qualifies)
	s.mu.Unlock()

	if !qualifies || (was && !sub.spec.EveryReading) {
		evalDone()
		return
	}
	n := Notification{
		SubscriptionID: sub.id,
		Object:         obj,
		Region:         sub.region,
		Prob:           p,
		Band:           band,
		At:             s.now(),
		Trace:          trace,
	}
	evalDone()
	select {
	case s.queueFor(sub.id) <- dispatch{fn: sub.spec.Handler, n: n, enq: time.Now()}:
		s.notified.Add(1)
		mNotified.Inc()
		mQueueDepth.Set(float64(s.notifyDepth()))
	case <-s.stop:
		// The service is shutting down: the notification is dropped
		// rather than enqueued behind a stopped worker set.
		mNotifyDrops.Inc()
	}
}

// Unsubscribe removes a subscription.
func (s *Service) Unsubscribe(id string) error {
	s.mu.Lock()
	sub, ok := s.subs[id]
	delete(s.subs, id)
	if ok {
		s.release(sub)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: unknown subscription %s", ErrBadSub, id)
	}
	return s.db.RemoveTrigger(id)
}

// release drops every inside state sub holds. An object-scoped
// subscription can only hold its own object; an unscoped one is looked
// up across the index. Caller holds s.mu.
func (s *Service) release(sub *subscription) {
	if obj := sub.spec.Object; obj != "" {
		s.setInside(obj, sub, false)
		return
	}
	for obj := range s.inside {
		s.setInside(obj, sub, false)
	}
}

// Subscriptions returns the number of active subscriptions.
func (s *Service) Subscriptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// HealthState classifies a component's ability to do its job.
type HealthState int

// Health states, from best to worst.
const (
	Healthy HealthState = iota
	Degraded
	Down
)

// String names the state.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// Health is the service's heartbeat snapshot (§4's Location Service as
// a long-running daemon needs to report whether it is keeping up).
type Health struct {
	// State summarizes: Healthy normally, Degraded when the
	// notification queue is running more than half full (handlers are
	// not keeping up), Down after Close.
	State HealthState
	// Uptime is time since New, on the service clock.
	Uptime time.Duration
	// Ingested counts readings accepted since start.
	Ingested uint64
	// Notifications counts notifications dispatched since start.
	Notifications uint64
	// Subscriptions is the number of active subscriptions.
	Subscriptions int
	// Sensors is the number of registered sensor instances.
	Sensors int
	// QueueDepth/QueueCap describe the notification backlog.
	QueueDepth, QueueCap int
}

// Health reports the service's current heartbeat state.
func (s *Service) Health() Health {
	h := Health{
		Uptime:        s.now().Sub(s.started),
		Ingested:      s.ingested.Load(),
		Notifications: s.notified.Load(),
		Subscriptions: s.Subscriptions(),
		Sensors:       len(s.db.Sensors()),
		QueueDepth:    s.notifyDepth(),
		QueueCap:      s.notifyWorkers * cap(s.notifyQs[0]),
	}
	select {
	case <-s.stop:
		h.State = Down
	default:
		if h.QueueDepth*2 > h.QueueCap {
			h.State = Degraded
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Spatial relationships (§4.6)

// RelateRegions returns the RCC-8 relation between two regions and,
// when externally connected, the passage refinement (ECFP/ECRP/ECNP).
func (s *Service) RelateRegions(a, b glob.GLOB) (rcc.Relation, rcc.Passage, error) {
	// Prefer the graph for registered rooms (it knows the doors).
	if _, okA := s.graph.Region(a.String()); okA {
		if _, okB := s.graph.Region(b.String()); okB {
			return s.graph.Relation(a.String(), b.String())
		}
	}
	ra, err := s.db.ResolveGLOB(a)
	if err != nil {
		return 0, 0, err
	}
	rb, err := s.db.ResolveGLOB(b)
	if err != nil {
		return 0, 0, err
	}
	rel := rcc.Relate(ra, rb)
	return rel, rcc.PassageNone, nil
}

// RouteBetween returns the shortest traversable route between two
// symbolic regions.
func (s *Service) RouteBetween(a, b glob.GLOB, policy topo.TraversalPolicy) (topo.Route, error) {
	return s.graph.ShortestRoute(a.String(), b.String(), policy)
}

// RegionDistance returns the Euclidean and path distances between two
// symbolic regions (§4.6.1). The path distance is reported as +Inf
// when no traversable route exists.
func (s *Service) RegionDistance(a, b glob.GLOB, policy topo.TraversalPolicy) (euclidean, path float64, err error) {
	euclidean, err = s.graph.EuclideanDistance(a.String(), b.String())
	if err != nil {
		return 0, 0, err
	}
	path, err = s.graph.PathDistance(a.String(), b.String(), policy)
	if errors.Is(err, topo.ErrNoRoute) {
		return euclidean, topo.Infinity, nil
	}
	if err != nil {
		return 0, 0, err
	}
	return euclidean, path, nil
}

// RuleEngine builds a Datalog engine preloaded with the building's
// derived relation facts: ecfp/2, ecrp/2, ecnp/2 for adjacent regions
// and region/1 for every room and corridor. Applications add their own
// rules on top (§4.6.1's XSB Prolog reasoning).
func (s *Service) RuleEngine() *rules.Engine {
	e := rules.NewEngine()
	regions := s.graph.Regions()
	for _, r := range regions {
		e.AddFact("region", r.ID)
	}
	for i := 0; i < len(regions); i++ {
		for j := 0; j < len(regions); j++ {
			if i == j {
				continue
			}
			rel, pass, err := s.graph.Relation(regions[i].ID, regions[j].ID)
			if err != nil || rel != rcc.EC {
				continue
			}
			switch pass {
			case rcc.PassageFree:
				e.AddFact("ecfp", regions[i].ID, regions[j].ID)
			case rcc.PassageRestricted:
				e.AddFact("ecrp", regions[i].ID, regions[j].ID)
			default:
				e.AddFact("ecnp", regions[i].ID, regions[j].ID)
			}
		}
	}
	return e
}
