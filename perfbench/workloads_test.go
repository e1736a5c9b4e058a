package main

import (
	"strings"
	"testing"
	"time"

	"repro/star"
)

var smallElect = electParams{n: 5, t: 2, gap: 4, horizon: 3 * time.Second, slice: 25 * time.Millisecond, pool: []uint64{3, 5}}

var smallLanes = lanesParams{shards: 2, size: 3, epoch: 25 * time.Millisecond,
	warm: 500 * time.Millisecond, submit: 500 * time.Millisecond, perEpoch: 1, drainCap: 10 * time.Second}

// Two runs of the same seed produce the same digest of domain outputs on
// the simulator workloads, and another seed produces another. The election
// workload replays one protocol seed electRepeats times per group, so its
// units share a digest and their slice times fold into one series; the
// lanes workload's units differ.
func TestSimDigestRepeats(t *testing.T) {
	for _, c := range []struct {
		name        string
		unit        func(m *measure, seed uint64, i int) error
		units, lats int
		sameDigests bool
	}{
		{"elect", smallElect.unit, electRepeats, 1, true},
		{"lanes", smallLanes.unit, 2, 2, false},
	} {
		run := func(seed uint64) string {
			m := newMeasure(newTracer())
			for i := 0; i < c.units; i++ {
				if err := c.unit(m, seed, i); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			if len(m.problems) > 0 {
				t.Fatalf("%s: %v", c.name, m.problems)
			}
			if m.ops.failed() != 0 || len(m.lat) != c.lats || m.latencies()*c.units != m.ops.attempted*c.lats {
				t.Fatalf("%s: %+v, %d latency series of %d in all", c.name, m.ops, len(m.lat), m.latencies())
			}
			if len(m.digests) != c.units || (m.digests[0] == m.digests[1]) != c.sameDigests {
				t.Fatalf("%s: unit digests %v, want them equal=%v", c.name, m.digests, c.sameDigests)
			}
			return strings.Join(m.digests, " ")
		}
		a, b := run(7), run(7)
		if a != b {
			t.Errorf("%s: same seed, digests %s and %s", c.name, a, b)
		}
		if run(8) == a {
			t.Errorf("%s: seeds 7 and 8 share digests %s", c.name, a)
		}
	}
}

// The wall-clock workload completes every submission across a leader
// crash, and its checks hold.
func TestAbcastLifetime(t *testing.T) {
	p := abcastParams{n: 3, interval: time.Millisecond, count: 400, drainCap: 5 * time.Second}
	for _, tr := range []struct {
		name string
		tr   func() star.Transport
	}{
		{"live", star.Live},
		{"tcp", func() star.Transport { return loopbackTCP(3) }},
	} {
		m := newMeasure(newTracer())
		if err := p.unit(m, 1, 0, tr.tr()); err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		if len(m.problems) > 0 {
			t.Fatalf("%s: %v", tr.name, m.problems)
		}
		if m.ops.attempted != p.count || m.latencies()+m.ops.failed() != p.count {
			t.Fatalf("%s: %+v with %d latencies", tr.name, m.ops, m.latencies())
		}
		if len(m.samples["failover_ms"]) != 1 {
			t.Fatalf("%s: no failover measured", tr.name)
		}
	}
}
