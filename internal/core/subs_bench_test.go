package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// BenchmarkIngestBatchSubscriptions is the component form of the
// paper's Figure 9 flatness claim: the cost of ingesting a reading
// must not depend on how many subscriptions exist, only on those that
// concern it. One op is an IngestBatch of 64 readings from 16 people
// walking floor 0 of a 16-floor tower (4x6 rooms per floor, as in
// citybench).
//
// Both variants share a base: four entry subscriptions on room r0c0 of
// floor 1, which every ingesting person entered during set-up and
// still holds (MinProb 0 keeps an object inside while any reading
// lives), so every reading re-evaluates four inside states on exit
// detection. subs-N adds N subscriptions that concern none of the
// ingested readings: half room-entry subscriptions spread over the
// rooms of floors 2-15, half object-scoped universe subscriptions for
// people who do not report. BENCH_6.json gates subs-4096 at no more
// than 1.25x subs-0, measured in the same run.
func BenchmarkIngestBatchSubscriptions(b *testing.B) {
	for _, n := range []int{0, 4096} {
		b.Run(fmt.Sprintf("subs-%d", n), func(b *testing.B) { benchIngestSubs(b, n) })
	}
}

func benchIngestSubs(b *testing.B, extra int) {
	const (
		floors, rows, cols = 16, 4, 6
		people, batchLen   = 16, 64
	)
	clock := &testClock{now: t0}
	s, err := New(building.MultiStorey("C", floors, rows, cols, 12, 10, 5), WithClock(clock.Now))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Hour
	if err := s.RegisterSensor("ubi", spec); err != nil {
		b.Fatal(err)
	}
	discard := func(Notification) {}
	subscribe := func(sub Subscription) {
		sub.Handler = discard
		if _, err := s.Subscribe(sub); err != nil {
			b.Fatal(err)
		}
	}
	held := glob.MustParse("C/F1/r0c0")
	for i := 0; i < 4; i++ {
		subscribe(Subscription{Region: held})
	}
	universe := glob.CoordinateRect(glob.Symbolic("C"), s.Universe())
	for i := 0; i < extra; i++ {
		if i%2 == 0 {
			room := i / 2 % ((floors - 2) * rows * cols)
			f, r, c := 2+room/(rows*cols), room/cols%rows, room%cols
			subscribe(Subscription{Region: glob.MustParse(fmt.Sprintf("C/F%d/r%dc%d", f, r, c))})
		} else {
			subscribe(Subscription{Object: fmt.Sprintf("idle%04d", i), Region: universe, EveryReading: true})
		}
	}

	reading := func(person int, floor string, p geom.Point, at time.Time) model.Reading {
		return model.Reading{
			SensorID:  "ubi",
			MObjectID: fmt.Sprintf("p%02d", person),
			Location:  glob.CoordinatePoint(glob.MustParse(floor), p),
			Time:      at,
		}
	}
	enter := make([]model.Reading, people)
	for i := range enter {
		enter[i] = reading(i, "C/F1", geom.Pt(6, 5), t0)
	}
	if err := s.IngestBatch(enter); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < people; i++ {
		if got := len(insideOf(s, fmt.Sprintf("p%02d", i))); got != 4 {
			b.Fatalf("p%02d holds %d inside states after set-up, want 4", i, got)
		}
	}

	rng := rand.New(rand.NewSource(12))
	batch := make([]model.Reading, batchLen)
	for j := range batch {
		batch[j] = reading(j%people, "C/F0", geom.Pt(rng.Float64()*72, rng.Float64()*60), t0)
	}
	clock.Advance(time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Time = t0.Add(time.Duration(i*batchLen+j) * time.Microsecond)
		}
		if err := s.IngestBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
