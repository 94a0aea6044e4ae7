package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileSupportsOnlyWhatTheSamplesAllow(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		q       float64
		value   float64
		at      float64
		reduced bool
	}{
		{100, 0.5, 50, 0.5, false},
		{1000, 0.99, 990, 0.99, false},
		{2000, 0.99, 1980, 0.99, false},
		// 100 samples leave ten beyond p90 at most.
		{100, 0.99, 90, 0.9, true},
		// Too few for any tail: the median, flagged.
		{12, 0.99, 6, 0.5, true},
		{1, 0.5, 1, 0.5, true},
	}
	for _, c := range cases {
		p := percentile(seq(c.n), c.q)
		if p.Value != c.value || math.Abs(p.At-c.at) > 1e-9 || p.Reduced != c.reduced || p.N != c.n {
			t.Errorf("percentile(n=%d, q=%g) = %+v, want value %g at %g reduced %v", c.n, c.q, p, c.value, c.at, c.reduced)
		}
	}
	if p := percentile(nil, 0.5); !p.Reduced || p.N != 0 {
		t.Errorf("percentile of no samples = %+v, want flagged and empty", p)
	}
}

func TestPushMatcherPairsFirstInFirstOut(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	m := newPushMatcher([]string{"a", "b"})
	m.expect("a", at(0))
	m.expect("a", at(200))
	m.expect("b", at(0))
	m.expect("nobody", at(0)) // unwatched: ignored
	m.expect("b", at(200))
	m.retract("b") // its batch was not sent
	if got := m.outstanding(); got != 3 {
		t.Fatalf("outstanding = %d, want 3", got)
	}
	m.arrive("a", at(5), at(30))    // pairs with a@0: 30ms
	m.arrive("b", at(6), at(40))    // pairs with b@0: 40ms
	m.arrive("a", at(205), at(250)) // pairs with a@200: 50ms
	m.arrive("b", at(300), at(300)) // no reading waiting
	if got := m.outstanding(); got != 0 {
		t.Errorf("outstanding = %d, want 0", got)
	}
	if m.unmatched != 1 || m.disorder != 0 || m.early != 0 {
		t.Errorf("unmatched %d disorder %d early %d, want 1 0 0", m.unmatched, m.disorder, m.early)
	}
	want := []float64{30, 40, 50}
	if len(m.lat[0]) != len(want) {
		t.Fatalf("latencies %v, want %v", m.lat[0], want)
	}
	for i, v := range want {
		if m.lat[0][i] != v {
			t.Errorf("latency %d = %g, want %g", i, m.lat[0][i], v)
		}
	}

	// Evaluation times that go backwards, and a push before its due
	// time, are both caught.
	m.reset(at(1000))
	m.expect("a", at(900))
	m.expect("a", at(1100))
	m.arrive("a", at(950), at(960))
	m.arrive("a", at(940), at(1000))
	if m.disorder != 1 || m.early != 1 {
		t.Errorf("disorder %d early %d, want 1 1", m.disorder, m.early)
	}
	if len(m.lat[0]) != 1 || len(m.lat[1]) != 0 {
		t.Errorf("phase latencies %v / %v, want one untraced sample", m.lat[0], m.lat[1])
	}
}

func TestTallyCountsEveryKind(t *testing.T) {
	tl := newTally()
	tl.attempt("reading", 100)
	tl.attempt("query_locate", 10)
	tl.fail("reading_shed", 3)
	tl.fail("query_locate", 1)
	tl.fail("reading_dropped", 0) // nothing to count
	if a, f := tl.totals(); a != 110 || f != 4 {
		t.Errorf("totals = %d attempted, %d failed; want 110, 4", a, f)
	}
	got := tl.failures()
	want := []kindCount{{"query_locate", 1}, {"reading_shed", 3}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("failures = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := &spanLog{source: "t"}
	l.spans = []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "child", ID: 3, Parent: 1, Start: 50, End: 70},
		{Name: "grandchild", ID: 4, Parent: 3, Start: 55, End: 60},
		{Name: "open", ID: 5, Start: 80}, // never closed
	}
	self := selfTimes(l)
	if got := self["root"]; len(got) != 1 || got[0] != 0.05 {
		t.Errorf("root self = %v µs, want [0.05]", got)
	}
	if got := self["child"]; len(got) != 2 || got[0] != 0.03 || got[1] != 0.015 {
		t.Errorf("child self = %v µs, want [0.03 0.015]", got)
	}
	if _, ok := self["open"]; ok {
		t.Error("an unclosed span got a self time")
	}
	var nilLog *spanLog
	if id := nilLog.begin("x", 1, 0); id != 0 {
		t.Errorf("nil log begin = %d, want 0", id)
	}
	nilLog.end(0)
}

func TestEntryRecordFlagsAChangedCount(t *testing.T) {
	dir := t.TempDir()
	if prev, err := recordEntries(dir, "k", 7); err != nil || prev != -1 {
		t.Fatalf("first record = %d, %v; want -1, nil", prev, err)
	}
	if prev, err := recordEntries(dir, "k", 9); err != nil || prev != 7 {
		t.Fatalf("second record = %d, %v; want 7, nil", prev, err)
	}
	if prev, err := recordEntries(dir, "other", 9); err != nil || prev != -1 {
		t.Fatalf("other key = %d, %v; want -1, nil", prev, err)
	}
}

// toyScale is a city small enough for a seconds-long smoke run.
var toyScale = scale{Floors: 4, Rows: 2, Cols: 3, People: 120, Watched: 16}

// benchmarkFile is the repository's BENCHMARK.json, read for the
// metric names the benchmark promises.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long runs")
	}
	bf := readBenchmarkFile(t)
	if len(bf.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Work), len(workloads))
	}
	for i, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Workload: w.Name, Seed: int64(7 + i), Seconds: 2, Trace: traced,
				Out: t.TempDir(), Scale: toyScale, Setups: 2}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d/%d failed (%v), checks %v, notes %v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Failures, res.Checks, res.Notes)
			}
			got := res.summary().Metrics
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", w.Name, m.Name, v.Unit, m.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, m.Name, v.Value)
				}
			}
		}
	}
}
