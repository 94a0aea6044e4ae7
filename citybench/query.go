package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"middlewhere/internal/fusion"
	"middlewhere/internal/glob"
	"middlewhere/internal/mwql"
)

// liveFor is how recent a person's latest reading must be for the
// query client to ask about them: inside the Ubisense TTL (3 s) with
// margin, so a locate never races the reading's expiry.
const liveFor = 2 * time.Second

// regionMinProb is the probability floor of every region query.
const regionMinProb = 0.5

// querier is the closed-loop query client: one goroutine that sends
// the workload's query mix over the app connection, each query after
// the previous one returned.
type querier struct {
	c     *city
	rng   *rand.Rand
	tally *tally
	log   *spanLog // non-nil while traced
	req   uint64

	lat  [2][opKinds]series
	done [2]int // queries completed, per phase
	// perSec counts the untraced queries completed in each second
	// since t0.
	t0     time.Time
	perSec []int
	// Locates whose answer could be checked against ground truth, and
	// how many named the person's true room.
	accN, accHit [2]int
	// wrong counts answers that failed their check; notes keeps the
	// first few errors and wrong answers for the report.
	wrong int
	notes []string

	// Traced-half measurements of single layers, in milliseconds like
	// every series.
	wireLocate, wireRegion   series
	snapshotUs, candidatesUs series
}

// run sends queries until stop is set; queries issued at or after
// split are traced.
func (q *querier) run(stop *atomic.Bool, split time.Time) {
	for !stop.Load() {
		start := time.Now()
		phase := phaseOf(start, split)
		if phase == 1 && q.log == nil {
			q.log = q.c.queryLog
		}
		op := q.pick()
		q.req++
		q.tally.attempt("query_"+opNames[op], 1)
		err := q.do(op, phase)
		if err != nil {
			q.tally.fail("query_"+opNames[op], 1)
			q.note(err.Error())
		} else {
			q.done[phase]++
			if phase == 0 {
				sec := int(time.Since(q.t0) / time.Second)
				for len(q.perSec) <= sec {
					q.perSec = append(q.perSec, 0)
				}
				q.perSec[sec]++
			}
		}
		if q.c.w.Think > 0 {
			time.Sleep(q.c.w.Think)
		}
	}
}

// rate is the untraced queries completed per second over a window of
// the given length from t0: the median over its whole seconds, or the
// mean rate when it is shorter than three.
func (q *querier) rate(window float64) (float64, string) {
	full := q.perSec[:min(len(q.perSec), int(window))]
	if len(full) < 3 {
		return float64(q.done[0]) / window, fmt.Sprintf("%d queries in %.2f s", q.done[0], window)
	}
	secs := make([]float64, len(full))
	for i, n := range full {
		secs[i] = float64(n)
	}
	return median(secs), fmt.Sprintf("median of %d seconds; %d queries in %.2f s", len(full), q.done[0], window)
}

// pick draws the next query kind from the workload's mix.
func (q *querier) pick() opKind {
	n := q.rng.Intn(100)
	for op, share := range q.c.w.Mix {
		if n < share {
			return opKind(op)
		}
		n -= share
	}
	return opLocate
}

func (q *querier) note(msg string) {
	if len(q.notes) < 8 {
		q.notes = append(q.notes, msg)
	}
}

func (q *querier) wrongAnswer(msg string) {
	q.wrong++
	q.note(msg)
}

// do runs one query and records its latency when it succeeds.
func (q *querier) do(op opKind, phase int) error {
	root := q.log.begin("query."+opNames[op], q.req, 0)
	defer q.log.end(root)
	switch op {
	case opLocate:
		return q.locate(phase, root)
	case opRoomRegion, opFloorRegion:
		return q.region(op, phase, root)
	case opHeatmap:
		return q.heatmap(phase, root)
	default:
		return q.mwql(phase, root)
	}
}

// timed runs call as a child span of parent and adds its latency to
// the op's series.
func (q *querier) timed(op opKind, phase, parent int, name string, call func() error) (time.Duration, error) {
	sp := q.log.begin(name, q.req, parent)
	start := time.Now()
	err := call()
	d := time.Since(start)
	q.log.end(sp)
	if err == nil {
		q.lat[phase][op].add(d)
	}
	return d, err
}

// inProcess times a call made straight into the daemon's packages.
func (q *querier) inProcess(parent int, name string, call func()) time.Duration {
	sp := q.log.begin(name, q.req, parent)
	start := time.Now()
	call()
	d := time.Since(start)
	q.log.end(sp)
	return d
}

// livePerson picks a person the connected daemon can locate, scanning
// from a random start.
func (q *querier) livePerson() (int, bool) {
	now := time.Now()
	n := len(q.c.people.ids)
	start := q.rng.Intn(n)
	for k := 0; k < n; k++ {
		if i := (start + k) % n; q.c.people.locatable(i, now, q.c.localKeys) {
			return i, true
		}
	}
	return 0, false
}

func (q *querier) locate(phase, root int) error {
	i, ok := q.livePerson()
	if !ok {
		return fmt.Errorf("locate: no live person to ask about")
	}
	id := q.c.people.ids[i]
	before := q.c.people.get(i)
	var symbolic string
	rtt, err := q.timed(opLocate, phase, root, "client.locate", func() error {
		loc, err := q.c.app.Locate(id)
		symbolic = loc.Symbolic
		return err
	})
	if err != nil {
		return fmt.Errorf("locate %s: %w", id, err)
	}
	// The answer is checkable when the daemon had acknowledged the
	// person's latest reading before the call and no newer one was
	// reported during it.
	if after := q.c.people.get(i); before.stored == before.reported && after.reported == before.reported {
		q.accN[phase]++
		if symbolic == before.room {
			q.accHit[phase]++
		}
	}
	if q.log == nil {
		return nil
	}
	in := q.inProcess(root, "core.locate", func() { _, _ = q.c.svc.LocateObject(id) })
	q.wireLocate.add(rtt - in)
	q.fusionInfer(id, root)
	return nil
}

// fusionInfer repeats a locate's fusion step by step on a fresh
// snapshot: capture, the person's readings into the lattice, infer.
func (q *querier) fusionInfer(id string, root int) {
	db := q.c.svc.DB()
	start := time.Now()
	snap := db.Snapshot()
	capture := time.Since(start)
	q.inProcess(root, "fusion.infer", func() {
		now := time.Now()
		rs := fusion.FromReadings(snap.LatestPerSensor(id, now), snap.SensorSpecs(), now, snap.Universe().Area())
		_, _ = fusion.Build(snap.Universe(), rs).Infer()
	})
	start = time.Now()
	snap.Close()
	q.snapshotUs.add(capture + time.Since(start))
}

func (q *querier) region(op opKind, phase, root int) error {
	k := q.rng.Intn(q.c.sc.Floors)
	region := q.c.floorKeys[k]
	if op == opRoomRegion {
		region = fmt.Sprintf("%s/r%dc%d", region, q.rng.Intn(q.c.sc.Rows), q.rng.Intn(q.c.sc.Cols))
	}
	var got map[string]float64
	rtt, err := q.timed(op, phase, root, "client."+opNames[op], func() error {
		if q.c.w.Fed {
			rep, err := q.c.app.FedObjectsInRegion(region, regionMinProb, false)
			if err == nil && len(rep.Unavailable) > 0 {
				err = fmt.Errorf("partial result: %s unavailable", strings.Join(rep.Unavailable, ", "))
			}
			got = rep.Objects
			return err
		}
		var err error
		got, err = q.c.app.ObjectsInRegion(region, regionMinProb)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s %s: %w", opNames[op], region, err)
	}
	for id, p := range got {
		if p < regionMinProb || p > 1+1e-9 {
			q.wrongAnswer(fmt.Sprintf("%s %s: %s has probability %g", opNames[op], region, id, p))
		}
	}
	if q.log == nil {
		return nil
	}
	g := glob.MustParse(region)
	if q.c.w.Fed {
		q.inProcess(root, "fed.objects_in_region", func() { _, _, _ = q.c.router.ObjectsInRegion(g, regionMinProb, false) })
		return nil
	}
	in := q.inProcess(root, "core.objects_in_region", func() { _, _ = q.c.svc.ObjectsInRegion(g, regionMinProb) })
	q.wireRegion.add(rtt - in)
	return nil
}

// heatmap asks the daemon in process: no RPC serves occupancy
// heatmaps yet.
func (q *querier) heatmap(phase, root int) error {
	key := q.localFloor()
	g := glob.MustParse(key)
	var total float64
	var cells int
	_, err := q.timed(opHeatmap, phase, root, "core.heatmap", func() error {
		h, err := q.c.svc.OccupancyHeatmap(g, q.c.sc.Rows, q.c.sc.Cols)
		if err == nil {
			total, cells = h.Total(), len(h.Cells)*len(h.Cells[0])
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("heatmap %s: %w", key, err)
	}
	if cells != q.c.sc.Rows*q.c.sc.Cols || math.IsNaN(total) || total < 0 || total > float64(q.c.sc.People)+1e-6 {
		q.wrongAnswer(fmt.Sprintf("heatmap %s: %d cells, total %g", key, cells, total))
	}
	if q.log == nil {
		return nil
	}
	rect, err := q.c.svc.DB().ResolveGLOB(g)
	if err != nil {
		return err
	}
	snap := q.c.svc.DB().Snapshot()
	q.candidatesUs.add(q.inProcess(root, "spatialdb.support_candidates", func() { _ = snap.SupportCandidates(rect) }))
	snap.Close()
	return nil
}

// mwql asks for the three rooms of a floor nearest a random point on
// it; every answer must be a room of that floor.
func (q *querier) mwql(phase, root int) error {
	k := q.rng.Intn(q.c.sc.Floors)
	x := q.rng.Float64() * float64(q.c.sc.Cols) * roomW
	y := (float64(k) + q.rng.Float64()) * q.c.floorH
	src := fmt.Sprintf("SELECT objects WHERE type = 'Room' AND within('%s') NEAREST (%.1f, %.1f) LIMIT 3",
		q.c.floorKeys[k], x, y)
	var names []string
	_, err := q.timed(opMWQL, phase, root, "client.mwql", func() error {
		objs, err := q.c.app.Query(src)
		for _, o := range objs {
			names = append(names, o.GLOB)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("mwql: %w", err)
	}
	bad := len(names) != 3
	for _, n := range names {
		bad = bad || !strings.HasPrefix(n, q.c.floorKeys[k]+"/")
	}
	if bad {
		q.wrongAnswer(fmt.Sprintf("mwql %q: got %v", src, names))
	}
	if q.log != nil {
		q.inProcess(root, "mwql.exec", func() { _, _ = mwql.Exec(q.c.svc.DB(), src) })
	}
	return nil
}

// localFloor picks a floor the connected daemon stores.
func (q *querier) localFloor() string {
	for {
		if key := q.c.floorKeys[q.rng.Intn(q.c.sc.Floors)]; q.c.localKeys[key] {
			return key
		}
	}
}
