package core

import (
	"testing"
	"time"

	"middlewhere/internal/glob"
)

// insideOf lists the subscription IDs the inside index holds obj in.
func insideOf(s *Service, obj string) map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]bool{}
	for id := range s.inside[obj] {
		out[id] = true
	}
	return out
}

// TestExitThenReentryNotifies walks an object into a region, out of
// it, and back in, for an unscoped and an object-scoped entry
// subscription side by side. The exit reading must clear both inside
// states (through exit detection, since neither trigger fires on it)
// and the re-entry must notify both again.
func TestExitThenReentryNotifies(t *testing.T) {
	s, _ := newTestService(t)
	notes := make(chan Notification, 16)
	handler := func(n Notification) { notes <- n }
	region := glob.MustParse("CS/Floor3/NetLab")
	anyone, err := s.Subscribe(Subscription{Region: region, MinProb: 0.3, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	ivanOnly, err := s.Subscribe(Subscription{Object: "ivan", Region: region, MinProb: 0.3, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(step string) {
		t.Helper()
		got := map[string]bool{}
		for len(got) < 2 {
			select {
			case n := <-notes:
				if n.Object != "ivan" {
					t.Fatalf("%s: notification for %s", step, n.Object)
				}
				got[n.SubscriptionID] = true
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: notified %v, want %s and %s", step, got, anyone, ivanOnly)
			}
		}
	}

	ingestAt(t, s, "ubi-1", "ivan", 370, 15, t0)
	expect("entry")
	if in := insideOf(s, "ivan"); !in[anyone] || !in[ivanOnly] || len(in) != 2 {
		t.Fatalf("after entry, ivan inside %v", in)
	}
	ingestAt(t, s, "ubi-1", "ivan", 100, 35, t0.Add(2*time.Second))
	if in := insideOf(s, "ivan"); len(in) != 0 {
		t.Fatalf("after exit, ivan still inside %v", in)
	}
	ingestAt(t, s, "ubi-1", "ivan", 370, 15, t0.Add(3*time.Second))
	expect("re-entry")
	s.Close()
	if len(notes) != 0 {
		t.Errorf("%d extra notifications", len(notes))
	}
}

// TestUnsubscribeReleasesInsideState unsubscribes subscriptions that
// hold objects inside their region: no inside state may survive, and a
// later reading outside the region must not re-evaluate them (exit
// detection fuses nothing, so the fusion cache sees no lookup).
func TestUnsubscribeReleasesInsideState(t *testing.T) {
	s, _ := newTestService(t)
	region := glob.MustParse("CS/Floor3/NetLab")
	var ids []string
	for _, obj := range []string{"", "ivan", "judy"} {
		id, err := s.Subscribe(Subscription{Object: obj, Region: region, Handler: func(Notification) {}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A subscription elsewhere that nobody enters stays registered.
	other, err := s.Subscribe(Subscription{Region: glob.MustParse("CS/Floor3/3105"), Handler: func(Notification) {}})
	if err != nil {
		t.Fatal(err)
	}
	ingestAt(t, s, "ubi-1", "ivan", 370, 15, t0)
	ingestAt(t, s, "ubi-1", "judy", 372, 16, t0)
	if len(insideOf(s, "ivan")) != 2 || len(insideOf(s, "judy")) != 2 {
		t.Fatalf("ivan inside %v, judy inside %v", insideOf(s, "ivan"), insideOf(s, "judy"))
	}
	for _, id := range ids {
		if err := s.Unsubscribe(id); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	left := len(s.inside)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("inside index keeps %d objects after unsubscribing every holder", left)
	}

	lookups := func() uint64 { return mCacheHits.Value() + mCacheMisses.Value() }
	before := lookups()
	ingestAt(t, s, "ubi-1", "ivan", 100, 35, t0.Add(time.Second))
	ingestAt(t, s, "ubi-1", "judy", 100, 35, t0.Add(time.Second))
	if got := lookups() - before; got != 0 {
		t.Errorf("exit readings after unsubscribe fused %d times, want 0", got)
	}
	if n := s.Subscriptions(); n != 1 {
		t.Errorf("subscriptions = %d, want 1 (%s)", n, other)
	}
}
