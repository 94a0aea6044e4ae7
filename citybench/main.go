// Command citybench is the repository benchmark: a 16-floor city under
// open-loop sensor load, served over loopback TCP, measured end to end
// and per layer.
//
// One process stands up the daemon (or, on fed_pair, a registry and
// two federated daemons) behind remote.Server, and drives it with two
// remote.LocationClient connections: the adapters' streaming ingest,
// and an application that holds the subscriptions and runs the query
// loop. Two load goroutines generate the traffic: the open-loop
// generator steps the simulator in real time and reports every
// carried tag through its floor's Ubisense adapter, a Batcher and the
// IngestStream; the query client sends a closed-loop mix of locate,
// region, heatmap and MWQL queries. The benchmark adds no code to the
// program: it times its own calls into public functions and reads the
// program's always-on obs counters.
//
// Usage, from the repository root:
//
//	bash citybench/run.sh --workload city_ingest --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the first
// half untraced and the second half traced, and prints the per-layer
// metrics, the tracing overhead (traced minus untraced medians) and
// the span file it wrote. The last line of standard output is the
// result as JSON.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"middlewhere/internal/obs"
)

// config is one invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Out receives the span file and the entry-count record.
	Out    string
	Scale  scale
	Setups int
}

// setupRuns is how many times a run sets the city up; setup_s is the
// median of their times.
const setupRuns = 7

// accFloor is the lowest locate room accuracy that passes: a located
// person's symbolic room must match the room of their true position
// at their latest reading.
const accFloor = 0.9

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: city_ingest, city_query or fed_pair")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for the simulation, the tags carried and the queries")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.StringVar(&cfg.Out, "out", filepath.Join(".bench_build", "citybench"), "directory for spans and the entry-count record")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Scale = fullScale
	cfg.Setups = setupRuns
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "citybench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "citybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// result is a run's verdict.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           []metric
	Checks            []string // answer checks that failed
	Failures          []kindCount
	Notes             []string // the first few errors and wrong answers
}

func (r *result) add(name, unit string, v float64, note string) {
	r.Metrics = append(r.Metrics, metric{name, unit, v, note})
}

// addQ adds a percentile metric, noting when the sample count could
// not support the percentile asked for.
func (r *result) addQ(name, unit string, xs []float64, q float64) {
	p := percentile(xs, q)
	note := fmt.Sprintf("p%.4g of %d", p.At*100, p.N)
	if p.Reduced {
		note += fmt.Sprintf(", FLAGGED: p%g needs %d samples", q*100, int(math.Ceil(minTail/(1-q))))
	}
	r.add(name, unit, p.Value, note)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) summary() summary {
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]jsonMetric)}
	for _, m := range r.Metrics {
		s.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return s
}

// counterNames are the obs counters whose deltas the per-layer metrics
// and the failure accounting read. Every daemon in the process shares
// the one registry, so on fed_pair they are the two daemons combined.
var counterNames = []string{
	"adapter_batch_shed_total",
	"core_cache_hits_total", "core_cache_misses_total",
	"core_heatmap_candidates", "core_notifications_total", "core_notify_drops_total",
	"core_trigger_evals_total",
	"fed_forwarded_readings_total", "fed_ingest_fallback_local_total", "fed_partial_results_total",
	"fusion_lattice_evals_total",
	"mwrpc_bytes_received_total", "mwrpc_call_errors_total", "mwrpc_frames_received_total",
	"mwrpc_pushes_sent_total",
	"spatialdb_snapshot_capture_retries_total", "spatialdb_snapshot_escalations_total",
	"spatialdb_snapshot_pool_hits", "spatialdb_snapshots_total",
}

// probe is a point-in-time reading of the process and its counters.
type probe struct {
	at       time.Time
	counters map[string]uint64
	cutWaits uint64
	cpu      time.Duration
	gcs      uint32
	gcPause  uint64
}

func takeProbe() probe {
	p := probe{at: time.Now(), counters: make(map[string]uint64, len(counterNames))}
	reg := obs.Default()
	for _, n := range counterNames {
		p.counters[n] = reg.Counter(n).Value()
	}
	p.cutWaits = reg.Histogram("spatialdb_cut_wait_us").Count()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gcs, p.gcPause = ms.NumGC, ms.PauseTotalNs
	return p
}

func (p probe) delta(q probe, name string) float64 {
	return float64(q.counters[name] - p.counters[name])
}

func notifiedTotal() uint64 { return obs.Default().Counter("core_notifications_total").Value() }

// run sets the city up, measures it for cfg.Seconds and reports.
func run(cfg config, out io.Writer) (*result, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Setups < 1 {
		cfg.Setups = 1
	}
	interval := time.Duration(float64(time.Second) / w.StepsPerSec)
	steps := int(math.Round(cfg.Seconds * w.StepsPerSec))
	if steps < 2 {
		steps = 2
	}
	fmt.Fprintf(out, "citybench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d\n",
		w.Name, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	roomSubs := 0
	if w.RoomSubs {
		roomSubs = cfg.Scale.Floors * cfg.Scale.Rows * cfg.Scale.Cols
	}
	fmt.Fprintf(out, "city: %d floors of %dx%d rooms, %d people (%d watched); %g steps/s x %.2f carry = %.0f readings/s offered; %d room subscriptions; query mix %v%% of %v, think %v; federated=%v\n",
		cfg.Scale.Floors, cfg.Scale.Rows, cfg.Scale.Cols, cfg.Scale.People, min(w.Watched, cfg.Scale.Watched),
		w.StepsPerSec, carryProb, w.StepsPerSec*carryProb*float64(cfg.Scale.People), roomSubs,
		w.Mix, opNames, w.Think, w.Fed)

	// Clock discipline: the daemon keeps its own wall clock, and every
	// reading is stamped with the time it is due. Slaving the service
	// clock to a generator that runs ahead of a pipelined stream
	// changes the answers: TTL expiry and temporal degradation are then
	// judged against a clock the stored readings have not reached. In
	// one 100-step probe that gave 1463 entry notifications instead of
	// 8693. On the wall clock the entry count repeats exactly for a
	// seed, which the run checks.
	var setups []float64
	var c *city
	for i := 0; i < cfg.Setups; i++ {
		start := time.Now()
		if c, err = setUp(w, cfg.Scale, cfg.Seed, interval); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (time.Since(start) - c.simTime).Seconds())
		if i < cfg.Setups-1 {
			c.tearDown()
		}
	}

	// The simulator's steps are all taken before the clock starts, so
	// its own work (route finding above all) never counts against the
	// system under test. Taking them can outlast the warm-up readings'
	// life, so the first planned step is filled unpaced, as one more
	// warm-up step, and the clock starts on a live city.
	plan := c.walk(steps + 1)
	if _, err := c.fill(plan[0]); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := c.quiesce(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plan = plan[1:]
	tally := newTally()
	gen := &generator{c: c, tally: tally}
	t0 := time.Now().Add(10 * time.Millisecond)
	var split time.Time
	if cfg.Trace {
		split = t0.Add(time.Duration(steps/2) * interval)
		c.genLog, c.queryLog = newSpanLog("gen", t0), newSpanLog("query", t0)
	}
	c.sink.split = split
	c.sink.ingest, c.sink.stepAck = [2]series{}, nil
	c.matcher.reset(split)
	c.entries.Store(0)
	q := &querier{c: c, rng: rand.New(rand.NewSource(cfg.Seed + 2)), tally: tally, t0: t0}
	sentBase, acceptedBase := c.sink.readings, c.stream.Stats().Accepted
	begin := takeProbe()

	var stop atomic.Bool
	genDone := make(chan error, 1)
	queryDone := make(chan struct{})
	go func() {
		err := gen.run(t0, plan, interval, split)
		stop.Store(true)
		genDone <- err
	}()
	go func() {
		defer close(queryDone)
		q.run(&stop, split)
	}()

	mid := begin
	if cfg.Trace {
		time.Sleep(time.Until(split))
		mid = takeProbe()
	}
	watchdog := time.NewTimer(time.Until(t0.Add(time.Duration(steps)*interval + settleTimeout + 2*callTimeout)))
	defer watchdog.Stop()
	var genErr error
	wedged := false
	select {
	case genErr = <-genDone:
	case <-watchdog.C:
		wedged = true
	}
	if !wedged {
		select {
		case <-queryDone:
		case <-watchdog.C:
			wedged = true
		}
	}
	end := takeProbe()
	if !cfg.Trace {
		mid = end
	}
	if errors.Is(genErr, errWedged) || wedged {
		fmt.Fprintf(os.Stderr, "citybench: run wedged (%v); goroutines:\n%s\n", genErr, goroutineDump())
		tally.fail("wedged", 1)
		wedged = true
	} else if genErr != nil {
		return nil, genErr
	}

	res := &result{Correct: true}
	check := func(ok bool, format string, args ...interface{}) {
		if !ok {
			res.Correct = false
			res.Checks = append(res.Checks, fmt.Sprintf(format, args...))
		}
	}
	if !wedged {
		if err := c.drain(time.Now().Add(drainTimeout)); err != nil {
			fmt.Fprintf(os.Stderr, "citybench: final drain: %v; goroutines:\n%s\n", err, goroutineDump())
		}
	}

	// Failure accounting: every operation kind, one ledger.
	st := c.stream.Stats()
	sent := c.sink.readings - sentBase
	shed := int(begin.delta(end, "adapter_batch_shed_total"))
	tally.fail("reading_refused", c.sink.failed)
	tally.fail("reading_shed", shed)
	tally.fail("reading_rejected", int(c.rejected.Load()))
	tally.fail("reading_unacked", c.sink.unackedReadings()+c.batch.Pending())
	if !wedged {
		tally.fail("reading_dropped", sent-int(st.Accepted-acceptedBase)-int(c.rejected.Load()))
	}
	tally.fail("notify_drop", int(begin.delta(end, "core_notify_drops_total")))
	m := c.matcher
	m.mu.Lock()
	tally.attempt("watched_push", m.expected)
	tally.fail("watched_push_missing", m.expected-m.matched)
	tally.fail("watched_push_unexpected", m.unmatched)
	tally.fail("watched_push_disorder", m.disorder+m.early)
	pushOK := m.expected == m.matched && m.unmatched == 0 && m.disorder == 0 && m.early == 0
	pushes := fmt.Sprintf("%d expected, %d matched, %d unexpected, %d out of order, %d early",
		m.expected, m.matched, m.unmatched, m.disorder, m.early)
	m.mu.Unlock()
	tally.fail("push_unrouted", int(c.unrouted.Load()))
	res.Attempted, res.Failed = tally.totals()
	res.Failures = tally.failures()

	check(!wedged, "the run wedged")
	check(pushOK, "watched pushes not 1:1 with readings: %s", pushes)
	check(c.rejected.Load() == 0 && st.Rejected == 0, "%d readings rejected", c.rejected.Load())
	check(q.wrong == 0, "%d wrong query answers: %v", q.wrong, q.notes)
	acc := ratio(q.accHit[0], q.accN[0])
	check(q.accN[0] > 0 && acc >= accFloor, "locate room accuracy %.4f over %d checkable locates, floor %.2f",
		acc, q.accN[0], accFloor)
	entries := c.entries.Load()
	if !wedged {
		key := fmt.Sprintf("%s seed=%d steps=%d scale=%v", w.Name, cfg.Seed, steps, cfg.Scale)
		prev, err := recordEntries(cfg.Out, key, entries)
		if err != nil {
			return nil, err
		}
		check(prev < 0 || prev == entries, "entry notifications %d, an earlier run of this seed had %d", entries, prev)
	}

	if cfg.Trace {
		if err := perLayer(res, cfg, c, gen, q, begin, mid, end, entries, shed); err != nil {
			return nil, err
		}
	} else {
		endToEnd(res, c, q, gen, setups, begin, end)
	}
	res.Notes = q.notes
	report(out, res)

	torn := make(chan struct{})
	go func() {
		c.tearDown()
		close(torn)
	}()
	select {
	case <-torn:
	case <-time.After(drainTimeout):
		fmt.Fprintln(os.Stderr, "citybench: teardown did not finish; exiting anyway")
	}
	return res, nil
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(res *result, c *city, q *querier, gen *generator, setups []float64, begin, end probe) {
	res.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d setups, simulator time excluded", len(setups)))
	res.addQ("ingest_p50_ms", "ms", c.sink.ingest[0], 0.50)
	res.addQ("ingest_p99_ms", "ms", c.sink.ingest[0], 0.99)
	res.addQ("notify_p50_ms", "ms", c.matcher.lat[0], 0.50)
	res.addQ("notify_p99_ms", "ms", c.matcher.lat[0], 0.99)
	res.addQ("locate_p50_ms", "ms", q.lat[0][opLocate], 0.50)
	regions := append(append(series(nil), q.lat[0][opRoomRegion]...), q.lat[0][opFloorRegion]...)
	res.addQ("region_p50_ms", "ms", regions, 0.50)
	res.addQ("heatmap_p50_ms", "ms", q.lat[0][opHeatmap], 0.50)
	res.Metrics[len(res.Metrics)-1].Note += "; in process: no heatmap RPC exists yet"

	res.add("locate_room_acc", "fraction", ratio(q.accHit[0], q.accN[0]), fmt.Sprintf("%d checkable locates", q.accN[0]))
	ops := len(c.sink.ingest[0]) + q.done[0]
	res.add("cpu_us_per_op", "us", float64(end.cpu-begin.cpu)/1e3/float64(max(ops, 1)),
		fmt.Sprintf("%d readings acked + queries completed", ops))
	res.add("heap_peak_mb", "MB", float64(gen.heapMax)/(1<<20), "peak HeapInuse, sampled each second")
	res.add("ok_frac", "fraction", 1-ratio(res.Failed, res.Attempted),
		fmt.Sprintf("1 - failed/attempted = 1 - %d/%d", res.Failed, res.Attempted))
}

// perLayer fills the traced run's metrics. Counter deltas come from
// the untraced first half (begin..mid), where the benchmark's own
// in-process calls cannot inflate them; timings of single calls come
// from the traced second half's spans.
func perLayer(res *result, cfg config, c *city, gen *generator, q *querier, begin, mid, end probe, entries int64, shed int) error {
	d := func(name string) float64 { return begin.delta(mid, name) }
	readings := float64(max(len(c.sink.ingest[0]), 1))
	locates := float64(max(len(q.lat[0][opLocate]), 1))
	heatmaps := float64(max(len(q.lat[0][opHeatmap]), 1))
	durs := spanDurations(c.genLog, c.queryLog)
	us := func(name string, p float64) float64 { return percentile(durs[name], p).Value / 1e3 }

	// Query tails and the query rate, from the untraced half: on two
	// shared CPUs they swing with the host's spare CPU by more than any
	// regression bound, so they are reported here, unbounded.
	regions := append(append(series(nil), q.lat[0][opRoomRegion]...), q.lat[0][opFloorRegion]...)
	res.addQ("query.locate_p99_ms", "ms", q.lat[0][opLocate], 0.99)
	res.addQ("query.region_p99_ms", "ms", regions, 0.99)
	res.addQ("query.heatmap_p99_ms", "ms", q.lat[0][opHeatmap], 0.99)
	qps, note := q.rate(mid.at.Sub(begin.at).Seconds())
	res.add("query.qps", "1/s", qps, note)
	res.add("gen.lag_max_ms", "ms", float64(gen.lagMax)/1e6, "")
	res.add("gen.late_steps", "count", float64(gen.late), "")
	res.add("adapter.report_us.p50", "us", us("adapter.report_fix", 0.5), "")
	res.add("adapter.flush_ms.p50", "ms", us("adapter.batcher_flush", 0.5)/1e3, "")
	res.add("adapter.flush_ms.p99", "ms", us("adapter.batcher_flush", 0.99)/1e3, "")
	res.add("adapter.credit_stalls", "count", float64(gen.stalls), "")
	res.add("adapter.shed", "count", float64(shed), "")
	res.add("remote.send_us.p50", "us", us("remote.stream_send", 0.5), "")
	res.add("remote.ack_wait_ms.p50", "ms", percentile(c.sink.stepAck, 0.5).Value, "step's last flush to its last ack")
	res.add("remote.ack_wait_ms.p99", "ms", percentile(c.sink.stepAck, 0.99).Value, "step's last flush to its last ack")
	res.add("remote.unacked_max", "count", float64(c.sink.unackedMax), "")
	res.add("remote.wire_us.locate.p50", "us", percentile(q.wireLocate, 0.5).Value*1e3, "client RTT minus in-process time")
	res.add("remote.wire_us.region.p50", "us", percentile(q.wireRegion, 0.5).Value*1e3, "client RTT minus in-process time")
	res.add("mwrpc.bytes_in_per_reading", "B", d("mwrpc_bytes_received_total")/readings, "client and daemon receipts combined")
	res.add("mwrpc.frames_in_per_reading", "count", d("mwrpc_frames_received_total")/readings, "")
	res.add("mwrpc.pushes_per_reading", "count", d("mwrpc_pushes_sent_total")/readings, "")
	res.add("mwrpc.call_errors", "count", begin.delta(end, "mwrpc_call_errors_total"), "")
	res.add("core.locate_us.p50", "us", us("core.locate", 0.5), "")
	res.add("core.locate_us.p99", "us", us("core.locate", 0.99), "")
	res.add("core.objects_in_region_us.p50", "us", us("core.objects_in_region", 0.5), "")
	res.add("core.objects_in_region_us.p99", "us", us("core.objects_in_region", 0.99), "")
	hits, misses := d("core_cache_hits_total"), d("core_cache_misses_total")
	res.add("core.cache_hit_ratio", "fraction", hits/math.Max(hits+misses, 1), "")
	res.add("core.fused_lookups_per_reading", "count", (hits+misses)/readings, "")
	res.add("core.trigger_evals_per_reading", "count", d("core_trigger_evals_total")/readings, "")
	res.add("core.notify_queue_depth_max", "count", gen.depthMax, "sampled once a step")
	res.add("core.notify_drops", "count", begin.delta(end, "core_notify_drops_total"), "")
	res.add("core.entry_notifications", "count", float64(entries), "whole run; repeats exactly for a seed")
	res.add("spatialdb.snapshot_us.p50", "us", percentile(q.snapshotUs, 0.5).Value*1e3, "Snapshot + Close")
	res.add("spatialdb.snapshot_us.p99", "us", percentile(q.snapshotUs, 0.99).Value*1e3, "Snapshot + Close")
	res.add("spatialdb.escalations", "count", d("spatialdb_snapshot_escalations_total"), "")
	res.add("spatialdb.capture_retries", "count", d("spatialdb_snapshot_capture_retries_total"), "")
	res.add("spatialdb.cut_waits", "count", float64(mid.cutWaits-begin.cutWaits), "")
	poolHits := d("spatialdb_snapshot_pool_hits")
	res.add("spatialdb.pool_hit_ratio", "fraction", poolHits/math.Max(poolHits+d("spatialdb_snapshots_total"), 1), "")
	res.add("spatialdb.support_candidates_us.p50", "us", percentile(q.candidatesUs, 0.5).Value*1e3, "")
	res.add("spatialdb.candidates_per_heatmap", "count", d("core_heatmap_candidates")/heatmaps, "")
	res.add("fusion.infer_us.p50", "us", us("fusion.infer", 0.5), "")
	res.add("fusion.lattice_evals_per_locate", "count", d("fusion_lattice_evals_total")/locates, "")
	res.add("mwql.exec_us.p50", "us", us("mwql.exec", 0.5), "")
	res.add("fed.fanout_ms.p50", "ms", us("fed.objects_in_region", 0.5)/1e3, "")
	res.add("fed.fanout_ms.p99", "ms", us("fed.objects_in_region", 0.99)/1e3, "")
	res.add("fed.forwarded_per_reading", "count", d("fed_forwarded_readings_total")/readings, "")
	res.add("fed.partial_results", "count", begin.delta(end, "fed_partial_results_total"), "")
	res.add("fed.fallback_local", "count", begin.delta(end, "fed_ingest_fallback_local_total"), "")
	res.add("proc.gc_cycles", "count", float64(mid.gcs-begin.gcs), "")
	res.add("proc.gc_pause_ms", "ms", float64(mid.gcPause-begin.gcPause)/1e6, "")

	// Tracing overhead: the traced half's medians minus the untraced
	// half's, in one run on one city.
	overhead := func(name string, xs [2]series) {
		res.add("trace.overhead."+name, "ms", percentile(xs[1], 0.5).Value-percentile(xs[0], 0.5).Value, "traced minus untraced median")
	}
	overhead("ingest_p50_ms", c.sink.ingest)
	overhead("notify_p50_ms", c.matcher.lat)
	overhead("locate_p50_ms", [2]series{q.lat[0][opLocate], q.lat[1][opLocate]})
	untraced := float64(q.done[0]) / mid.at.Sub(begin.at).Seconds()
	traced := float64(q.done[1]) / end.at.Sub(mid.at).Seconds()
	res.add("trace.overhead.query_qps", "1/s", traced-untraced, "traced minus untraced")

	self := selfTimes(c.genLog, c.queryLog)
	for _, name := range spanNames {
		res.add("self_us."+name+".p50", "us", percentile(self[name], 0.5).Value, "span self time")
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.Out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := writeSpans(path, c.genLog, c.queryLog); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "citybench: wrote %d spans to %s\n", len(c.genLog.spans)+len(c.queryLog.spans), path)
	return nil
}

// spanNames are the spans the benchmark records, one per boundary it
// times: the generator's step and its calls into the adapter, the
// Batcher and the stream; the query client's requests, their client
// RPCs and the same requests sent in process to core, spatialdb,
// fusion, mwql and fed.
var spanNames = []string{
	"gen.emit", "adapter.report_fix", "adapter.batcher_flush", "remote.stream_send",
	"query.locate", "query.room_region", "query.floor_region", "query.heatmap", "query.mwql",
	"client.locate", "client.room_region", "client.floor_region", "client.mwql",
	"core.locate", "core.objects_in_region", "core.heatmap",
	"spatialdb.support_candidates", "fusion.infer", "mwql.exec", "fed.objects_in_region",
}

// report prints every metric by name and unit, then the failures.
func report(out io.Writer, res *result) {
	for _, m := range res.Metrics {
		fmt.Fprintf(out, "%-38s %14.4f %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Fprintf(out, "attempted %d, failed %d", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "; %s %d", f.Kind, f.N)
	}
	fmt.Fprintln(out)
	for _, n := range res.Notes {
		fmt.Fprintln(out, "note:", n)
	}
	if res.Correct {
		fmt.Fprintln(out, "answer checks: pass")
	}
	for _, c := range res.Checks {
		fmt.Fprintln(out, "answer check FAILED:", c)
	}
}

// recordEntries stores this run's entry-notification count under key
// and returns the count an earlier run recorded for it, or -1.
func recordEntries(dir, key string, n int64) (int64, error) {
	path := filepath.Join(dir, "entries.json")
	rec := make(map[string]int64)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rec); err != nil {
			return 0, fmt.Errorf("entry record %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	prev, ok := rec[key]
	if ok {
		return prev, nil
	}
	rec[key] = n
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	return -1, os.WriteFile(path, b, 0o644)
}

func goroutineDump() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
