package main

import (
	"time"

	"repro/star"
)

// electParams sizes the paper-election workload; tests shrink it.
type electParams struct {
	n, t    int
	gap     int64
	horizon time.Duration // virtual time each election runs
	slice   time.Duration // virtual time per Run call: one operation
	pool    []uint64      // protocol seeds the units draw from
}

// electPool holds the protocol seeds of the election workload: 1..32
// except 16 and 21, the two seeds in that range whose model-A election at
// n=51 has not settled by the 30 s horizon (last disagreements at 28.48 s
// and 27.64 s). Model A promises eventual leadership with no bound on when:
// 25 of the other seeds settle between 1.2 s and 1.7 s, and seeds 1, 9, 10,
// 17 and 32 between 15.5 s and 20.3 s. The workload measures the cost of
// completed elections of one fixed length, so it keeps the horizon and
// leaves out the seeds that would need a longer one.
var electPool = func() []uint64 {
	var p []uint64
	for s := uint64(1); s <= 32; s++ {
		if s != 16 && s != 21 {
			p = append(p, s)
		}
	}
	return p
}()

// electWorkload is the paper's own model at a size where per-message O(n)
// work dominates: model A (intermittent rotating star, gap 4), Fig. 3,
// n=51, t=25, on the simulator.
var electWorkload = electParams{n: 51, t: 25, gap: 4, horizon: 30 * time.Second, slice: 25 * time.Millisecond, pool: electPool}

func (p electParams) options(seed uint64) []star.Option {
	return []star.Option{
		star.N(p.n), star.Resilience(p.t), star.Seed(seed),
		star.Algorithm(star.Fig3), star.Scenario(star.Intermittent(star.Gap(p.gap))),
	}
}

// electRepeats is how many consecutive units replay one protocol seed. The
// simulator replays a seed exactly, so slice k does the same work in every
// repeat, and the median over the repeats of each slice's time drops the
// host's bursts of slowness, which seldom hit the same slice twice, while
// keeping the slices' own spread. A 30 s run holds one group of repeats.
const electRepeats = 3

// seed picks unit i's protocol seed from the pool: run seed s replays pool
// entry s (modulo the pool's size), and a longer run moves to the next.
func (p electParams) seed(runSeed uint64, i int) uint64 {
	return p.pool[(runSeed+uint64(i/electRepeats))%uint64(len(p.pool))]
}

// medianEach is the element-wise median of equally long series.
func medianEach(series [][]float64) []float64 {
	n := len(series[0])
	for _, s := range series {
		n = min(n, len(s))
	}
	out := make([]float64, n)
	col := make([]float64, len(series))
	for k := range out {
		for j, s := range series {
			col[j] = s[k]
		}
		out[k] = median(col)
	}
	return out
}

func setupElect(seed uint64) (time.Duration, error) {
	p := electWorkload
	start := time.Now()
	c, err := star.New(p.options(p.seed(seed, 0))...)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, c.Close()
}

func unitElect(m *measure, runSeed uint64, i int) error { return electWorkload.unit(m, runSeed, i) }

// unit runs one election for the horizon in fixed virtual slices; each
// slice is one operation, timed in wall-clock. The last unit of a group of
// repeats folds the group's slice times into their element-wise median.
func (p electParams) unit(m *measure, runSeed uint64, i int) error {
	seed := p.seed(runSeed, i)
	start := time.Now()
	c, err := star.New(p.options(seed)...)
	if err != nil {
		return err
	}
	defer c.Close()
	m.setup = append(m.setup, time.Since(start).Seconds())

	clock := startUnit()
	var lat []float64
	var inRun time.Duration
	for c.Now() < p.horizon {
		id := m.tr.begin("run_slice", -1)
		t0 := time.Now()
		if err := c.Run(p.slice); err != nil {
			return err
		}
		d := time.Since(t0)
		m.tr.end(id)
		inRun += d
		lat = append(lat, ms(d))
	}
	m.lat = append(m.lat, lat)
	if i%electRepeats == electRepeats-1 {
		group := len(m.lat) - electRepeats
		m.lat = append(m.lat[:group], medianEach(m.lat[group:]))
	}
	slices := len(lat)
	rep := c.Report()
	o := ops{attempted: slices}
	ok := rep.Stabilized && rep.BoundOK && rep.Leader >= 0 && !c.Crashed(rep.Leader)
	if !ok {
		o.undelivered = slices
		m.problem("elect seed %d: stabilized=%v leader=%d BoundOK=%v (max susp %d, B %d)",
			seed, rep.Stabilized, rep.Leader, rep.BoundOK, rep.MaxSuspLevel, rep.BoundB)
	}
	if err := clock.finish(m, o); err != nil {
		return err
	}

	met := c.Metrics()
	m.add("sim.events", float64(met.Events))
	m.add("sim.run_wall_s", inRun.Seconds())
	simNet(m, met.Net)
	coreCounters(m, met, rep)
	m.sample("stab_virtual_ms", ms(rep.StabilizedAt))
	dig := newDigest()
	dig.add(seed, met.Events, met.Net.Sent, met.Net.Bytes, uint64(rep.StabilizedAt),
		uint64(rep.Leader), uint64(rep.MaxSuspLevel), uint64(rep.RoundsDone))
	if r := i % electRepeats; r > 0 && m.digests[len(m.digests)-r] != dig.String() {
		m.problem("elect seed %d: repeat %d digest %s differs from %s", seed, r, dig, m.digests[len(m.digests)-r])
	}
	m.digests = append(m.digests, dig.String())
	m.logf("elect seed=%d stabilized=%v leader=%d at=%v B=%d max_susp=%d events=%d msgs=%d digest=%s wall=%.3fs",
		seed, rep.Stabilized, rep.Leader, rep.StabilizedAt, rep.BoundB, rep.MaxSuspLevel, met.Events, met.Net.Sent, dig, m.wall[len(m.wall)-1])
	return nil
}

// simNet records a simulated cluster's transport counters.
func simNet(m *measure, n star.NetStats) {
	m.add("netsim.sent", float64(n.Sent))
	m.add("netsim.delivered", float64(n.Delivered))
	m.add("netsim.bytes", float64(n.Bytes))
}

// coreCounters records the Ω layers' counters of one cluster: the paper's
// protocol step (core), its round windows (rounds) and the scenario gate.
func coreCounters(m *measure, met star.Metrics, rep *star.Report) {
	for _, k := range met.Net.PerKind {
		if k.Kind == "ALIVE" {
			m.add("core.alive_msgs", float64(k.Count))
		}
	}
	m.add("scenario.gate_held_winning", float64(met.GateHeldWinning))
	m.add("scenario.gate_held_lose", float64(met.GateHeldLose))
	m.add("core.leader_changes", float64(rep.Changes))
	for _, nm := range met.Nodes {
		m.add("core.rounds_done", float64(nm.RoundsDone))
		m.add("core.susp_increments", float64(nm.Increments))
		m.add("core.late_alive", float64(nm.LateAlive))
		m.max("core.max_susp_level", float64(nm.MaxSuspLevel))
		m.add("rounds.window_evictions", float64(nm.WindowEvictions))
		m.add("rounds.window_overflow", float64(nm.WindowOverflow))
	}
}
