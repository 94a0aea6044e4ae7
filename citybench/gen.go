package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/sim"
)

// personRec is what the generator knows of one person: the latest
// reading it reported, and the latest one the daemon acknowledged,
// with the true room at that reading — the ground truth the query
// client checks locates against.
type personRec struct {
	reported uint64 // readings reported so far
	stored   uint64 // of those, acknowledged
	due      time.Time
	room     string
	key      string // floor shard key of the acknowledged reading
}

// personTable is shared by the generator (writer) and the query
// client (reader).
type personTable struct {
	mu    sync.Mutex
	ids   []string
	index map[string]int
	recs  []personRec
	// truth holds each reported reading's true room until its ack.
	truth map[string][]truth
}

// truth is the true room of a person at one reading, keyed by the
// reading's due time (a person reports at most once a step), and the
// floor shard key the reading is for.
type truth struct {
	due       time.Time
	room, key string
}

func newPersonTable(ids []string) *personTable {
	t := &personTable{ids: ids, index: make(map[string]int, len(ids)),
		recs: make([]personRec, len(ids)), truth: make(map[string][]truth, len(ids))}
	for i, id := range ids {
		t.index[id] = i
	}
	return t
}

// reported notes a reading about to be handed to the adapter.
func (t *personTable) reported(i int, due time.Time, room, key string) {
	t.mu.Lock()
	t.recs[i].reported++
	id := t.ids[i]
	t.truth[id] = append(t.truth[id], truth{due, room, key})
	t.mu.Unlock()
}

// locatable reports whether the daemon that stores the floors in local
// holds person i's rows and will keep holding them: the latest
// acknowledged reading is live and local, and no reading in flight is
// bound for a floor elsewhere, which would hand the rows over first.
func (t *personTable) locatable(i int, now time.Time, local map[string]bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recs[i]
	if r.stored == 0 || now.Sub(r.due) >= liveFor || !local[r.key] {
		return false
	}
	for _, p := range t.truth[t.ids[i]] {
		if !local[p.key] {
			return false
		}
	}
	return true
}

// acked notes that the daemon acknowledged a reading. A person's
// readings are acknowledged in the order they were reported; any
// older ones still queued never made it (shed or refused).
func (t *personTable) acked(r model.Reading) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.truth[r.MObjectID]
	for len(q) > 0 && q[0].due.Before(r.Time) {
		q = q[1:]
	}
	if len(q) == 0 || !q[0].due.Equal(r.Time) {
		t.truth[r.MObjectID] = q
		return
	}
	rec := &t.recs[t.index[r.MObjectID]]
	rec.stored++
	rec.due, rec.room = r.Time, q[0].room
	rec.key = q[0].key
	t.truth[r.MObjectID] = q[1:]
}

func (t *personTable) get(i int) personRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recs[i]
}

// streamSink sits between the Batcher and the IngestStream. It queues
// the watched-push expectations before each batch can reach the
// daemon, and pairs every sent batch with its acknowledgement. The
// daemon acks a stream's batches in order, so the number acked is the
// number sent minus the stream's unacked count.
type streamSink struct {
	c        *city
	inflight [][]model.Reading
	sent     int // batches
	acked    int // batches
	// readings counts readings sent; failed those a send refused for
	// a reason other than backpressure.
	readings, failed int
	unackedMax       int
	ingest           [2]series // due time -> ack, per phase
	split            time.Time
	// marks are step ends awaiting their last ack; stepAck is the time
	// from a step's final flush to that ack, in ms.
	marks   []stepMark
	stepAck series

	// The generator points these at its current span while traced.
	log    *spanLog
	req    uint64
	parent int
}

// IngestBatch implements adapter.BatchSink.
func (k *streamSink) IngestBatch(rs []model.Reading) error {
	c := k.c
	var expected []string
	for _, r := range rs {
		if c.watched[r.MObjectID] && c.storedHere(r.Location) {
			c.matcher.expect(r.MObjectID, r.Time)
			expected = append(expected, r.MObjectID)
		}
	}
	sp := k.log.begin("remote.stream_send", k.req, k.parent)
	err := c.stream.Send(rs)
	k.log.end(sp)
	if err != nil {
		for i := len(expected) - 1; i >= 0; i-- {
			c.matcher.retract(expected[i])
		}
		if !errors.Is(err, mwrpc.ErrNoCredit) {
			k.failed += len(rs) // the Batcher has let go of the batch
		}
		return err
	}
	k.inflight = append(k.inflight, rs)
	k.sent++
	k.readings += len(rs)
	k.observeAcks()
	return nil
}

// observeAcks stamps every newly acknowledged batch's readings with
// their ingest latency.
func (k *streamSink) observeAcks() {
	st := k.c.stream.Stats()
	if st.Unacked > k.unackedMax {
		k.unackedMax = st.Unacked
	}
	acked := k.sent - st.Unacked
	now := time.Now()
	for ; k.acked < acked; k.acked++ {
		for _, r := range k.inflight[0] {
			k.ingest[phaseOf(r.Time, k.split)].add(now.Sub(r.Time))
			k.c.people.acked(r)
		}
		k.inflight[0] = nil
		k.inflight = k.inflight[1:]
	}
	for len(k.marks) > 0 && k.marks[0].sent <= k.acked {
		k.stepAck.add(now.Sub(k.marks[0].at))
		k.marks = k.marks[1:]
	}
}

// stepMark is a step's final flush: the batch count sent by then.
type stepMark struct {
	sent int
	at   time.Time
}

// markStep notes that a step's readings have all been handed over.
func (k *streamSink) markStep() {
	k.marks = append(k.marks, stepMark{k.sent, time.Now()})
	k.observeAcks()
}

func (k *streamSink) unacked() int { return k.sent - k.acked }

func (k *streamSink) unackedReadings() int {
	n := 0
	for _, rs := range k.inflight {
		n += len(rs)
	}
	return n
}

// phaseOf is 1 for times at or after split (the traced half of a
// traced run) and 0 otherwise.
func phaseOf(t, split time.Time) int {
	if !split.IsZero() && !t.Before(split) {
		return 1
	}
	return 0
}

// ackPoll is how often the generator looks for acks while batches
// are in flight; it bounds the error of an ingest latency.
const ackPoll = time.Millisecond

// emitGroup is how many readings the generator reports at once: each
// group goes out when its last reading is due, about every 5 ms at the
// city's top rate.
const emitGroup = 16

// generator is the open-loop ingest load: one goroutine steps the
// simulation on a fixed schedule and reports every carried tag
// through its floor's Ubisense adapter.
type generator struct {
	c     *city
	tally *tally
	stepN int64
	log   *spanLog // non-nil while traced

	stalls   int  // ErrNoCredit returned to the adapters or the flush
	stalled  bool // a batch is re-buffered, waiting for credit
	late     int  // steps that started a group more than lateSlack late
	lagMax   time.Duration
	depthMax float64
	heapMax  uint64
	lastHeap time.Time
}

// lateSlack is how far behind its due time a group may start before
// the step counts as late: one group's worth of readings at the top
// rate, well above the host's timer granularity.
const lateSlack = 5 * time.Millisecond

// emit reports one step's carried tags. The readings are spread evenly
// over [start, start+span) in an order shuffled each step, as a real
// tag field reports, and each is stamped with its own due time; span 0
// reports them all at start (warm-up). It returns the indices of the
// people who reported.
func (g *generator) emit(people []sim.PersonState, start time.Time, span time.Duration) []int {
	c := g.c
	carried := make([]int, 0, len(people))
	for i := range people {
		if c.carry.Float64() <= carryProb {
			carried = append(carried, i)
		}
	}
	c.carry.Shuffle(len(carried), func(a, b int) { carried[a], carried[b] = carried[b], carried[a] })
	c.sink.log, c.sink.req = g.log, uint64(g.stepN)
	dueOf := func(r int) time.Time { return start.Add(span * time.Duration(r) / time.Duration(len(carried))) }
	lateStep := false
	for j := 0; j < len(carried); j += emitGroup {
		group := carried[j:min(j+emitGroup, len(carried))]
		if lag := g.waitUntil(dueOf(j + len(group) - 1)); lag > lateSlack {
			lateStep = true
			g.lagMax = max(g.lagMax, lag)
		}
		root := g.log.begin("gen.emit", uint64(g.stepN), 0)
		for x, i := range group {
			p, due := people[i], dueOf(j+x)
			k := c.floorOf(p.Pos)
			local := geom.Pt(p.Pos.X, p.Pos.Y-float64(k)*c.floorH)
			c.people.reported(i, due, p.Room, c.floorKeys[k])
			g.tally.attempt("reading", 1)
			sp := g.log.begin("adapter.report_fix", uint64(g.stepN), root)
			c.sink.parent = sp
			g.noteCredit(c.adapters[k].ReportFix(p.ID, local, due))
			g.log.end(sp)
		}
		g.log.end(root)
	}
	if lateStep {
		g.late++
	}
	sp := g.log.begin("adapter.batcher_flush", uint64(g.stepN), 0)
	c.sink.parent = sp
	g.noteCredit(c.batch.Flush())
	g.log.end(sp)
	c.sink.markStep()
	return carried
}

// noteCredit counts a credit stall: the Batcher re-buffered its batch
// and the generator retries it as acks return credit.
func (g *generator) noteCredit(err error) {
	if errors.Is(err, mwrpc.ErrNoCredit) {
		g.stalls++
		g.stalled = true
	}
}

// waitUntil watches for acks, and retries a stalled batch, until t.
// It returns how late the generator already was.
func (g *generator) waitUntil(t time.Time) time.Duration {
	c := g.c
	lag := time.Since(t)
	for {
		c.sink.observeAcks()
		if g.stalled && c.batch.Pending() > 0 {
			g.stalled = false
			g.noteCredit(c.batch.Flush())
		}
		wait := time.Until(t)
		if wait <= 0 {
			return lag
		}
		if c.sink.unacked() == 0 {
			time.Sleep(wait)
			continue
		}
		// Flush returns as soon as every batch is acked, or after the
		// wait with an error that only says acks are still due.
		_ = c.stream.Flush(min(wait, ackPoll))
	}
}

// settle waits until everything the generator handed over has been
// acknowledged. Past deadline it gives up and reports the run wedged.
func (g *generator) settle(deadline time.Time) error {
	c := g.c
	for {
		if c.batch.Pending() > 0 {
			g.noteCredit(c.batch.Flush())
		}
		c.sink.observeAcks()
		if c.batch.Pending() == 0 && c.sink.unacked() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d batches unacked, %d readings buffered after %v",
				errWedged, c.sink.unacked(), c.batch.Pending(), settleTimeout)
		}
		_ = c.stream.Flush(ackPoll)
	}
}

// run issues the planned steps, step i (from 1) spanning
// [t0+(i-1)*interval, t0+i*interval), then waits for the last acks.
// It never slows down for the system under test: lateness shows in the
// latencies, which are taken from each reading's due time, and in the
// lag.
func (g *generator) run(t0 time.Time, plan [][]sim.PersonState, interval time.Duration, split time.Time) error {
	c := g.c
	for i := 1; i <= len(plan); i++ {
		start := t0.Add(time.Duration(i-1) * interval)
		if !split.IsZero() && !start.Before(split) && g.log == nil {
			g.log = c.genLog
		}
		g.stepN = int64(i)
		g.emit(plan[i-1], start, interval)
		if d := c.svc.Health().QueueDepth; float64(d) > g.depthMax {
			g.depthMax = float64(d)
		}
		g.sampleHeap()
	}
	return g.settle(time.Now().Add(settleTimeout))
}

// sampleHeap records the in-use heap about once a second.
func (g *generator) sampleHeap() {
	if time.Since(g.lastHeap) < time.Second {
		return
	}
	g.lastHeap = time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > g.heapMax {
		g.heapMax = ms.HeapInuse
	}
}
