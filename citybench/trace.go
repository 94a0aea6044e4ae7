package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans of one request share Req; Parent is the ID of the
// enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Source string `json:"source"`
}

// spanLog records the spans of one goroutine in memory. A nil
// *spanLog records nothing, so untraced code paths pay one nil check.
type spanLog struct {
	source string
	origin time.Time
	spans  []span
}

func newSpanLog(source string, origin time.Time) *spanLog {
	return &spanLog{source: source, origin: origin}
}

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, req uint64, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{
		Name: name, Req: req, ID: len(l.spans) + 1, Parent: parent,
		Start: int64(time.Since(l.origin)), Source: l.source,
	})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.origin))
}

// selfTimes returns each span name's self times in microseconds: a
// span's duration minus the part of it its children cover. Spans of
// one log come from one goroutine, so siblings never overlap.
func selfTimes(logs ...*spanLog) map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range logs {
		if l == nil {
			continue
		}
		child := make([]int64, len(l.spans)+1)
		for _, s := range l.spans {
			if s.Parent > 0 && s.End > 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for _, s := range l.spans {
			if s.End == 0 {
				continue // never closed: the call wedged
			}
			self := s.End - s.Start - child[s.ID]
			out[s.Name] = append(out[s.Name], float64(self)/1e3)
		}
	}
	return out
}

// spanDurations returns every closed span's duration in nanoseconds,
// by name.
func spanDurations(logs ...*spanLog) map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range logs {
		for _, s := range l.spans {
			if s.End > 0 {
				out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
			}
		}
	}
	return out
}

// writeSpans writes every span as one JSON line, sorted by start.
func writeSpans(path string, logs ...*spanLog) error {
	var all []span
	for _, l := range logs {
		if l != nil {
			all = append(all, l.spans...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
