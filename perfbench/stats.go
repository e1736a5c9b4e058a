package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail value resting on fewer samples is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and how
// many samples lie beyond it. ok is false when fewer than minBeyond do.
func percentile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median is the middle of xs (the mean of the two middle values for an
// even count); it is used for repeated measurements of one quantity, not
// for latency distributions, so it has no sample-count floor.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ops counts one run's operations. Every operation attempted ends in
// exactly one of: completed, refused at submission, or undelivered when
// the drain gave up.
type ops struct {
	attempted, refused, undelivered int
}

func (o ops) failed() int    { return o.refused + o.undelivered }
func (o ops) completed() int { return o.attempted - o.failed() }

// failedFrac is the share of attempted operations that did not complete.
func (o ops) failedFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed()) / float64(o.attempted)
}

// perKop divides a cost by thousands of completed operations: a failed
// operation did no useful work, so it never lowers the cost of the others.
func perKop(cost float64, o ops) (float64, error) {
	if o.completed() <= 0 {
		return 0, fmt.Errorf("no operation completed")
	}
	return cost / (float64(o.completed()) / 1000), nil
}

// openLoop records an open-loop generator: operation i is due at
// start + i*interval whether or not earlier ones have completed, so its
// latency is timed from the due time. A stall then shows in every
// operation that fell due during it, not only in the one that was in
// flight. How late the generator itself submitted is kept apart.
type openLoop struct {
	start     time.Time
	interval  time.Duration
	submitted []time.Time
	done      []time.Time
}

func newOpenLoop(start time.Time, interval time.Duration) *openLoop {
	return &openLoop{start: start, interval: interval}
}

func (g *openLoop) due(i int) time.Time { return g.start.Add(time.Duration(i) * g.interval) }

// submit records that operation i was handed to the system at t; ids are
// consecutive from 0.
func (g *openLoop) submit(i int, t time.Time) {
	if i != len(g.submitted) {
		panic(fmt.Sprintf("openLoop: submit %d out of order (want %d)", i, len(g.submitted)))
	}
	g.submitted = append(g.submitted, t)
	g.done = append(g.done, time.Time{})
}

// complete records the completion of operation i at t (first one wins).
func (g *openLoop) complete(i int, t time.Time) {
	if g.done[i].IsZero() {
		g.done[i] = t
	}
}

func (g *openLoop) completed(i int) bool { return !g.done[i].IsZero() }

// latenciesMs returns due-to-completion latencies of completed operations.
func (g *openLoop) latenciesMs() []float64 {
	out := make([]float64, 0, len(g.done))
	for i, t := range g.done {
		if !t.IsZero() {
			out = append(out, ms(t.Sub(g.due(i))))
		}
	}
	return out
}

// latenessMs returns how late each submission left relative to its due
// time (0 when on time).
func (g *openLoop) latenessMs() []float64 {
	out := make([]float64, len(g.submitted))
	for i, t := range g.submitted {
		if l := t.Sub(g.due(i)); l > 0 {
			out[i] = ms(l)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mix64 is SplitMix64's finalizer; it derives per-unit seeds from the
// run's seed.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// digest is an FNV-1a accumulator over 64-bit words: the sim workloads fold
// their domain outputs into it so that two builds can be checked for
// byte-identical behaviour.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			*d ^= digest((v >> (8 * i)) & 0xFF)
			*d *= 1099511628211
		}
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }
