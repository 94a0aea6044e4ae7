package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a p99 over fewer than 1000 samples rests on fewer than ten values
// and is noise, so the helper reports the highest percentile the
// sample count supports instead, and flags it.
const minTail = 10

// quantile is one reported percentile: the value, the percentile it
// was actually taken at, and the sample count behind it.
type quantile struct {
	Value   float64
	At      float64 // the percentile used, in (0, 1)
	N       int
	Reduced bool // At is below the percentile asked for
}

// percentile returns the nearest-rank q-th percentile of xs, lowered
// to the highest percentile that still has at least minTail samples
// beyond it. With too few samples for even that, it returns the
// median and flags it. xs is sorted in place.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{At: q, Reduced: true}
	}
	sort.Float64s(xs)
	at := q
	if limit := 1 - float64(minTail)/float64(n); at > limit {
		at = limit
	}
	reduced := at < q
	if at < 0.5 {
		at = 0.5
	}
	idx := int(math.Ceil(at*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return quantile{Value: xs[idx], At: at, N: n, Reduced: reduced}
}

// series collects latency samples in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// pushMatcher pairs every watched person's notification pushes with
// the readings that caused them, first in first out per person. The
// daemon delivers one push per qualifying reading, in reading order,
// so the k-th push for a person belongs to its k-th stored reading.
// The pairing yields the notify latency (push arrival minus the
// reading's due time) and three answer checks: no push without a
// reading, pushes in order, and no reading left without its push.
type pushMatcher struct {
	mu        sync.Mutex
	pending   map[string][]time.Time // person -> due times awaiting a push
	lastEval  map[string]time.Time   // person -> evaluation time of its last push
	lat       [2]series              // per phase
	split     time.Time              // due times from here on are phase 1
	matched   int
	expected  int
	unmatched int // pushes with no reading waiting for them
	disorder  int // pushes whose evaluation time went backwards
	early     int // pushes that arrived before their reading was due
}

func newPushMatcher(watched []string) *pushMatcher {
	m := &pushMatcher{
		pending:  make(map[string][]time.Time, len(watched)),
		lastEval: make(map[string]time.Time, len(watched)),
	}
	for _, id := range watched {
		m.pending[id] = nil
	}
	return m
}

// expect queues a push for a reading of id due at due. It must be
// called before the reading can reach the daemon.
func (m *pushMatcher) expect(id string, due time.Time) {
	m.mu.Lock()
	if q, ok := m.pending[id]; ok {
		m.pending[id] = append(q, due)
		m.expected++
	}
	m.mu.Unlock()
}

// retract undoes the latest expect for id: its reading was not sent.
func (m *pushMatcher) retract(id string) {
	m.mu.Lock()
	if q := m.pending[id]; len(q) > 0 {
		m.pending[id] = q[:len(q)-1]
		m.expected--
	}
	m.mu.Unlock()
}

// arrive pairs a push for id, evaluated at eval, that arrived at at.
func (m *pushMatcher) arrive(id string, eval, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.pending[id]
	if !ok || len(q) == 0 {
		m.unmatched++
		return
	}
	due := q[0]
	m.pending[id] = q[1:]
	m.matched++
	if last, seen := m.lastEval[id]; seen && eval.Before(last) {
		m.disorder++
	}
	m.lastEval[id] = eval
	if at.Before(due) {
		m.early++
		return
	}
	phase := 0
	if !m.split.IsZero() && !due.Before(m.split) {
		phase = 1
	}
	m.lat[phase].add(at.Sub(due))
}

// outstanding is how many expected pushes have not arrived.
func (m *pushMatcher) outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.expected - m.matched
}

// reset forgets the pairing history (after warm-up) and starts
// phase 0 latencies afresh. Pending expectations must be empty.
func (m *pushMatcher) reset(split time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lat = [2]series{}
	m.split = split
	m.matched, m.expected = 0, 0
	m.unmatched, m.disorder, m.early = 0, 0, 0
}

// tally counts operations attempted and failed, by kind, so the
// result can say what failed as well as how much.
type tally struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
}

func newTally() *tally {
	return &tally{attempted: make(map[string]int), failed: make(map[string]int)}
}

func (t *tally) attempt(kind string, n int) {
	t.mu.Lock()
	t.attempted[kind] += n
	t.mu.Unlock()
}

func (t *tally) fail(kind string, n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.failed[kind] += n
	t.mu.Unlock()
}

// totals returns attempted and failed over every kind.
func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.attempted {
		attempted += n
	}
	for _, n := range t.failed {
		failed += n
	}
	return attempted, failed
}

// failures returns the failed counts by kind, sorted by kind.
func (t *tally) failures() []kindCount {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]kindCount, 0, len(t.failed))
	for k, n := range t.failed {
		out = append(out, kindCount{k, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

type kindCount struct {
	Kind string
	N    int
}
