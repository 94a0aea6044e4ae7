package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/registry"
	"middlewhere/internal/remote"
	"middlewhere/internal/sim"
	"middlewhere/internal/spatialdb"
)

// scale sizes the city. The benchmark runs fullScale; the tests run a
// toy city through the same code.
type scale struct {
	Floors, Rows, Cols int
	People, Watched    int
}

// fullScale is the 16-floor tower: 4x6 rooms a floor, 640 people.
// Watched caps the workloads' watched-person counts.
var fullScale = scale{Floors: 16, Rows: 4, Cols: 6, People: 640, Watched: 256}

// Room geometry in feet, as the sustained-load harness uses.
const (
	roomW, roomH, corridorH = 12.0, 10.0, 5.0
	carryProb               = 0.95
	batchSize               = 128
	// Warm-up runs at least warmupSteps steps (so every run does the
	// same set-up work) and until every person has a reading.
	warmupSteps    = 4
	warmupMaxSteps = 20
)

// opKind is one kind of closed-loop query.
type opKind int

const (
	opLocate opKind = iota
	opRoomRegion
	opFloorRegion
	opHeatmap
	opMWQL
	opKinds
)

var opNames = [opKinds]string{"locate", "room_region", "floor_region", "heatmap", "mwql"}

// workload is one traffic mix. The program under test sees only the
// readings and queries the workload generates from the seed.
type workload struct {
	Name string
	// StepsPerSec is the open-loop simulator rate; each step every
	// person's tag reports with probability carryProb.
	StepsPerSec float64
	// RoomSubs installs one room-entry subscription per room — the
	// trigger table that is Figure 9's variable.
	RoomSubs bool
	// Mix is the closed-loop query mix in percent per opKind.
	Mix [opKinds]int
	// Think is the pause between queries; zero runs the query client
	// flat out.
	Think time.Duration
	// Watched is how many people have an every-reading subscription,
	// whose pushes give the notify latency.
	Watched int
	// Fed splits the floors between two daemons behind a registry and
	// sends region queries through the federation.
	Fed bool
}

var workloads = []workload{
	{
		Name: "city_ingest", StepsPerSec: 5, RoomSubs: true, Watched: 64,
		// A paced probe gives every end-to-end metric its samples while
		// leaving the write path almost all of the machine.
		Mix: [opKinds]int{60, 25, 5, 5, 5}, Think: 2 * time.Millisecond,
	},
	{
		Name: "city_query", StepsPerSec: 1,
		// Readings arrive once a second here, so more people are
		// watched to give the notify latency its samples.
		Watched: 256,
		Mix:     [opKinds]int{60, 25, 5, 5, 5},
	},
	{
		Name: "fed_pair", StepsPerSec: 2, Fed: true, Watched: 256,
		// mw.query has no federated form, so the MWQL share goes to
		// locates. An application pace of one query a millisecond keeps
		// the daemons below saturation, so the forwarding and fan-out
		// costs show rather than the host's spare CPU: flat out, the
		// throughput swung by a third from run to run on two CPUs.
		Mix: [opKinds]int{65, 25, 5, 5, 0}, Think: time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// city is one stood-up deployment: the daemon(s) on loopback TCP, the
// two client connections, the per-floor adapters, and the simulation
// that feeds them.
type city struct {
	w      workload
	sc     scale
	bld    *building.Building
	floorH float64

	// svc is the daemon the clients talk to; svcB is the federation
	// peer on fed_pair.
	svc, svcB     *core.Service
	srv, srvB     *remote.Server
	reg           *registry.Server
	router, peerB *fed.Router
	addr          string
	// localKeys marks the floor keys whose readings svc stores itself.
	localKeys map[string]bool

	// ingest carries the adapters' stream; app holds the subscriptions
	// and runs the query loop.
	ingest, app *remote.LocationClient
	stream      *remote.IngestStream
	sink        *streamSink
	batch       *adapter.Batcher
	adapters    []*adapter.Ubisense

	sim      *sim.Sim
	carry    *rand.Rand
	people   *personTable
	matcher  *pushMatcher
	rejected atomic.Int64
	pushes   atomic.Int64 // every push the subscriber received
	entries  atomic.Int64 // room-entry pushes
	unrouted atomic.Int64 // pushes for no known subscription
	// notifiedBase is the process-wide dispatched-notification count
	// when this city started, so pushes can be reconciled with it.
	notifiedBase uint64
	watchSubs    map[string]string
	roomSubs     map[string]bool
	watched      map[string]bool
	floorKeys    []string

	// simTime is how long set-up spent stepping the simulator, which
	// models the world and is no part of the program's set-up cost.
	simTime time.Duration

	// genLog and queryLog receive the traced half's spans.
	genLog, queryLog *spanLog
}

// setUp builds the city, starts the daemon(s), connects the clients,
// registers the sensors, installs the subscriptions and fills every
// person's first reading.
func setUp(w workload, sc scale, seed int64, interval time.Duration) (c *city, err error) {
	c = &city{w: w, sc: sc, notifiedBase: notifiedTotal()}
	defer func() {
		if err != nil {
			c.tearDown()
			c = nil
		}
	}()
	c.bld = building.MultiStorey("C", sc.Floors, sc.Rows, sc.Cols, roomW, roomH, corridorH)
	c.floorH = float64(sc.Rows) * (roomH + corridorH)
	for k := 0; k < sc.Floors; k++ {
		c.floorKeys = append(c.floorKeys, fmt.Sprintf("C/F%d", k))
	}
	if err := c.startDaemons(); err != nil {
		return c, err
	}
	opts := remote.DialOptions{CallTimeout: callTimeout, DialAttempts: 2}
	if c.ingest, err = remote.DialLocationOptions(c.addr, opts); err != nil {
		return c, fmt.Errorf("dial ingest: %w", err)
	}
	if c.app, err = remote.DialLocationOptions(c.addr, opts); err != nil {
		return c, fmt.Errorf("dial app: %w", err)
	}
	if c.stream, err = c.ingest.OpenIngestStream(); err != nil {
		return c, fmt.Errorf("open stream: %w", err)
	}
	c.stream.OnReject(func(rs []remote.RejectedReadingDTO) { c.rejected.Add(int64(len(rs))) })

	c.sim, err = sim.New(c.bld, sim.Config{
		People: sc.People, Seed: seed, Step: interval,
		// People walk briskly and dwell briefly, so each changes room
		// every few seconds and the room triggers keep firing.
		Speed: 6, DwellMin: time.Second, DwellMax: 4 * time.Second,
	})
	if err != nil {
		return c, err
	}
	c.carry = rand.New(rand.NewSource(seed + 1))
	ids := make([]string, 0, sc.People)
	for _, p := range c.sim.People() {
		ids = append(ids, p.ID)
	}
	c.people = newPersonTable(ids)
	pick := rand.New(rand.NewSource(seed + 3)).Perm(len(ids))
	nWatched := min(w.Watched, sc.Watched)
	watched := make([]string, 0, nWatched)
	c.watched = make(map[string]bool, nWatched)
	for _, i := range pick[:nWatched] {
		watched = append(watched, ids[i])
		c.watched[ids[i]] = true
	}
	c.matcher = newPushMatcher(watched)

	c.sink = &streamSink{c: c}
	c.batch = adapter.NewBatcher(c.sink, batchSize)
	var reg adapter.Registrar = c.ingest
	if c.svcB != nil {
		reg = registerBoth{c.ingest, c.svcB}
	}
	for k := 0; k < sc.Floors; k++ {
		a, err := adapter.NewUbisense(fmt.Sprintf("ubi-f%02d", k),
			glob.MustParse(c.floorKeys[k]), carryProb, c.batch, reg, adapter.Options{})
		if err != nil {
			return c, err
		}
		c.adapters = append(c.adapters, a)
	}
	if err := c.subscribe(watched); err != nil {
		return c, err
	}
	return c, c.warmUp()
}

const (
	callTimeout = 5 * time.Second
	// settleTimeout bounds the wait for one step's acks; drainTimeout
	// the final wait for pushes. Past either the run is wedged.
	settleTimeout = 10 * time.Second
	drainTimeout  = 10 * time.Second
)

// startDaemons starts one daemon, or on fed_pair a registry and two
// daemons that each own half the floors.
func (c *city) startDaemons() error {
	var err error
	if c.svc, err = core.New(c.bld); err != nil {
		return err
	}
	c.srv = remote.NewServer(c.svc)
	addr, err := c.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	c.addr = addr
	c.localKeys = make(map[string]bool, c.sc.Floors)
	if !c.w.Fed {
		for _, key := range c.floorKeys {
			c.localKeys[key] = true
		}
		return nil
	}
	c.reg = registry.NewServer(time.Now)
	regAddr, err := c.reg.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	if c.svcB, err = core.New(c.bld); err != nil {
		return err
	}
	c.srvB = remote.NewServer(c.svcB)
	addrB, err := c.srvB.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	var floorsA, floorsB []string
	for k, key := range c.floorKeys {
		if k < c.sc.Floors/2 {
			floorsA = append(floorsA, key)
			c.localKeys[key] = true
		} else {
			floorsB = append(floorsB, key)
		}
	}
	if c.router, err = fed.New(c.svc, fed.Config{Daemon: "A", Addr: addr, RegistryAddr: regAddr, Floors: floorsA}); err != nil {
		return err
	}
	if c.peerB, err = fed.New(c.svcB, fed.Config{Daemon: "B", Addr: addrB, RegistryAddr: regAddr, Floors: floorsB}); err != nil {
		return err
	}
	c.srv.SetFederation(c.router)
	c.srvB.SetFederation(c.peerB)
	// Each router leased before the other existed; refresh both so the
	// placement maps agree before the first reading.
	if err := c.router.RefreshPlacement(); err != nil {
		return err
	}
	return c.peerB.RefreshPlacement()
}

// registerBoth registers each sensor over the wire with the daemon
// the adapters stream to, and with the federation peer, which must
// know a sensor to store the readings forwarded to it.
type registerBoth struct{ a, b adapter.Registrar }

func (r registerBoth) RegisterSensor(id string, spec model.SensorSpec) error {
	if err := r.a.RegisterSensor(id, spec); err != nil {
		return err
	}
	return r.b.RegisterSensor(id, spec)
}

// subscribe installs the watched-person every-reading subscriptions
// and, on the trigger-table workloads, one entry subscription per room.
func (c *city) subscribe(watched []string) error {
	c.watchSubs = make(map[string]string, len(watched))
	c.roomSubs = make(map[string]bool)
	universe := glob.CoordinateRect(glob.Symbolic("C"), c.bld.Universe).String()
	for _, id := range watched {
		sid, err := c.app.Subscribe(remote.SubscribeArgs{Object: id, Region: universe, EveryReading: true},
			c.onPush)
		if err != nil {
			return fmt.Errorf("subscribe %s: %w", id, err)
		}
		c.watchSubs[sid] = id
	}
	if !c.w.RoomSubs {
		return nil
	}
	for k := 0; k < c.sc.Floors; k++ {
		for i := 0; i < c.sc.Rows; i++ {
			for j := 0; j < c.sc.Cols; j++ {
				sid, err := c.app.Subscribe(remote.SubscribeArgs{Region: fmt.Sprintf("C/F%d/r%dc%d", k, i, j)}, c.onPush)
				if err != nil {
					return fmt.Errorf("subscribe room: %w", err)
				}
				c.roomSubs[sid] = true
			}
		}
	}
	return nil
}

// onPush runs on the app connection's reader goroutine for every
// notification pushed to this subscriber. The subscription maps it
// reads are complete before the first reading is sent.
func (c *city) onPush(n remote.NotificationDTO) {
	at := time.Now()
	c.pushes.Add(1)
	if id, ok := c.watchSubs[n.SubscriptionID]; ok {
		eval, _ := time.Parse(time.RFC3339Nano, n.Time)
		c.matcher.arrive(id, eval, at)
		return
	}
	if c.roomSubs[n.SubscriptionID] {
		c.entries.Add(1)
		return
	}
	c.unrouted.Add(1)
}

// warmUp runs unpaced steps until every person has a stored reading,
// then waits until every notification they caused has arrived, so the
// measured run starts from a live, quiet city.
func (c *city) warmUp() error {
	seen := make([]bool, c.sc.People)
	left := c.sc.People
	for step := 0; left > 0 || step < warmupSteps; step++ {
		if step == warmupMaxSteps {
			return fmt.Errorf("warm-up: %d people still without a reading after %d steps", left, step)
		}
		simStart := time.Now()
		people := c.walk(1)[0]
		c.simTime += time.Since(simStart)
		carried, err := c.fill(people)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for _, i := range carried {
			if !seen[i] {
				seen[i] = true
				left--
			}
		}
	}
	if err := c.quiesce(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// fill reports one step's carried tags at once and waits until the
// daemon has acknowledged them. It returns the indices of the people
// who reported.
func (c *city) fill(people []sim.PersonState) ([]int, error) {
	g := &generator{c: c, tally: newTally()}
	carried := g.emit(people, time.Now(), 0)
	return carried, g.settle(time.Now().Add(settleTimeout))
}

// quiesce checks that no reading filled so far was refused or
// rejected, and waits until every notification they caused has
// arrived.
func (c *city) quiesce() error {
	if n := c.sink.failed + int(c.rejected.Load()); n > 0 {
		return fmt.Errorf("%d readings refused or rejected", n)
	}
	return c.drain(time.Now().Add(drainTimeout))
}

// walk moves the simulated people the given number of steps and
// returns where each step left them.
func (c *city) walk(steps int) [][]sim.PersonState {
	plan := make([][]sim.PersonState, steps)
	for i := range plan {
		c.sim.Step()
		plan[i] = c.sim.People()
	}
	return plan
}

// drain waits until every expected watched push has arrived and the
// subscriber has received every notification the daemons dispatched.
func (c *city) drain(deadline time.Time) error {
	for {
		if c.matcher.outstanding() == 0 && c.pushesSettled() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d watched pushes outstanding", errWedged, c.matcher.outstanding())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pushesSettled reports whether the subscriber has received as many
// pushes as the daemons dispatched to it.
func (c *city) pushesSettled() bool {
	return uint64(c.pushes.Load()) >= notifiedTotal()-c.notifiedBase
}

var errWedged = errors.New("wedged")

// floorOf is the floor a universe point is on.
func (c *city) floorOf(p geom.Point) int {
	k := int(p.Y / c.floorH)
	if k < 0 {
		k = 0
	}
	if k >= c.sc.Floors {
		k = c.sc.Floors - 1
	}
	return k
}

// storedHere reports whether the daemon the subscriber is connected
// to stores a reading itself (all but fed_pair's forwarded half).
func (c *city) storedHere(loc glob.GLOB) bool {
	return c.localKeys[spatialdb.ShardKeyForGLOB(loc)]
}

// tearDown stops everything setUp started, in reverse order.
func (c *city) tearDown() {
	if c.stream != nil {
		_ = c.stream.Close() // flushed already; a wedged stream times out
	}
	for _, cl := range []*remote.LocationClient{c.app, c.ingest} {
		if cl != nil {
			cl.Close()
		}
	}
	for _, r := range []*fed.Router{c.router, c.peerB} {
		if r != nil {
			r.Close()
		}
	}
	for _, s := range []*remote.Server{c.srv, c.srvB} {
		if s != nil {
			s.Close()
		}
	}
	for _, s := range []*core.Service{c.svc, c.svcB} {
		if s != nil {
			s.Close()
		}
	}
	if c.reg != nil {
		c.reg.Close()
	}
}
