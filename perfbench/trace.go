package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory around the façade calls the benchmark makes.
// A nil *tracer records nothing, which is how untraced runs measure.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the enclosing span, or -1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = time.Since(t.epoch)
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: -1})
	t.mu.Unlock()
}

// spanStats summarizes the spans of one name: a span's self time is its
// duration minus the time its child spans cover.
type spanStats struct {
	name        string
	durs        []float64 // ms
	total, self time.Duration
}

func (t *tracer) summary() []spanStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*spanStats{}
	for i, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanStats{name: s.name}
			byName[s.name] = st
		}
		d := s.end - s.start
		st.durs = append(st.durs, ms(d))
		st.total += d
		st.self += d - child[i]
	}
	out := make([]spanStats, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// p50 is the span's median duration in ms, 0 when the name never occurred.
func spanP50(stats []spanStats, name string) float64 {
	for _, s := range stats {
		if s.name == name {
			return median(s.durs)
		}
	}
	return 0
}

func formatSpans(stats []spanStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %10s %10s %10s %10s\n", "span", "count", "p50_ms", "p99_ms", "total_s", "self_s")
	for _, s := range stats {
		p99 := "n/a"
		if v, _, ok := percentile(s.durs, 0.99); ok {
			p99 = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(&sb, "%-14s %8d %10.4f %10s %10.3f %10.3f\n",
			s.name, len(s.durs), median(s.durs), p99, s.total.Seconds(), s.self.Seconds())
	}
	return sb.String()
}
