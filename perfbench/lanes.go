package main

import (
	"time"

	"repro/star"
)

// lanesParams sizes the global-lanes workload; tests shrink it.
type lanesParams struct {
	shards, size int
	epoch        time.Duration
	warm         time.Duration // virtual time before the first submission
	submit       time.Duration // virtual time during which shards submit
	perEpoch     int           // submissions per shard per epoch
	drainCap     time.Duration // virtual time the drain may take at most
}

// lanesWorkload keeps shards small so that per-message O(n) cost stays low
// and the time goes to consensus, atomic broadcast, the lane router, the
// delegate tier and the façade's epoch loop.
var lanesWorkload = lanesParams{shards: 4, size: 8, epoch: 25 * time.Millisecond,
	warm: time.Second, submit: 4 * time.Second, perEpoch: 4, drainCap: 20 * time.Second}

func (p lanesParams) options(seed uint64, onDecide func(star.Event)) []star.FedOption {
	return []star.FedOption{
		star.FedShape(p.shards, p.size), star.FedSeed(seed), star.FedAppLanes(),
		star.FedEpoch(p.epoch), star.FedObserve(star.EventGlobalDecide, onDecide),
	}
}

func setupLanes(seed uint64) (time.Duration, error) {
	start := time.Now()
	f, err := star.NewFederation(lanesWorkload.options(seed, func(star.Event) {})...)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, f.Close()
}

func unitLanes(m *measure, runSeed uint64, i int) error { return lanesWorkload.unit(m, runSeed, i) }

// unit runs one federation: warm-up, a submission phase in which every
// shard submits perEpoch global broadcasts per epoch (rotating the
// submitting member), and a drain until every submission is sequenced.
// One submission is one operation, timed in wall-clock from the Broadcast
// call to the EventGlobalDecide that commits it.
func (p lanesParams) unit(m *measure, runSeed uint64, i int) error {
	seed := mix64(runSeed<<16 | uint64(i))
	type decision struct {
		virt time.Duration
		wall time.Time
	}
	decided := map[uint64]decision{}
	slice := -1 // the open run_slice span, parent of decide callbacks
	onDecide := func(ev star.Event) {
		id := m.tr.begin("decide_cb", slice)
		decided[uint64(ev.Round)] = decision{ev.At, time.Now()}
		m.tr.end(id)
	}
	start := time.Now()
	f, err := star.NewFederation(p.options(seed, onDecide)...)
	if err != nil {
		return err
	}
	defer f.Close()
	m.setup = append(m.setup, time.Since(start).Seconds())

	type submission struct {
		virt time.Duration
		wall time.Time
	}
	subs := map[int64]submission{}
	var order []int64
	rng := seed
	clock := startUnit()
	var inRun time.Duration
	backlog := 0.0
	run := func() error {
		slice = m.tr.begin("run_slice", -1)
		t0 := time.Now()
		err := f.Run(p.epoch)
		inRun += time.Since(t0)
		m.tr.end(slice)
		slice = -1
		if m.tr != nil && f.Now()%(4*p.epoch) == 0 {
			backlog = max(backlog, lanesBacklog(f))
		}
		return err
	}
	refused := 0
	for f.Now() < p.warm {
		if err := run(); err != nil {
			return err
		}
	}
	for k := 0; f.Now() < p.warm+p.submit; {
		for s := 0; s < p.shards; s++ {
			for j := 0; j < p.perEpoch; j, k = j+1, k+1 {
				var payload int64
				for {
					rng = mix64(rng)
					payload = int64(rng >> 2)
					if _, dup := subs[payload]; payload != 0 && !dup {
						break
					}
				}
				subs[payload] = submission{f.Now(), time.Now()}
				order = append(order, payload)
				id := m.tr.begin("broadcast", -1)
				err := f.Broadcast(s, k%p.size, payload)
				m.tr.end(id)
				if err != nil {
					refused++
				}
			}
		}
		if err := run(); err != nil {
			return err
		}
	}
	for end := f.Now() + p.drainCap; len(decided) < len(order) && f.Now() < end; {
		if err := run(); err != nil {
			return err
		}
	}
	seq := f.GlobalSequence()
	o := ops{attempted: len(order), refused: refused}
	if n := len(order) - refused - len(seq); n > 0 {
		o.undelivered = n
	}
	if err := clock.finish(m, o); err != nil {
		return err
	}

	// Check: the global sequence holds each submission exactly once, and
	// every member's log is a prefix of it.
	seen := map[int64]bool{}
	var lat []float64
	for _, e := range seq {
		s, ok := subs[e.Payload]
		switch {
		case !ok:
			m.problem("lanes seed %d: gseq %d carries payload %d that was never submitted", seed, e.GSeq, e.Payload)
		case seen[e.Payload]:
			m.problem("lanes seed %d: payload %d sequenced twice", seed, e.Payload)
		default:
			seen[e.Payload] = true
			d, ok := decided[e.GSeq]
			if !ok {
				m.problem("lanes seed %d: gseq %d committed without EventGlobalDecide", seed, e.GSeq)
				continue
			}
			lat = append(lat, ms(d.wall.Sub(s.wall)))
			m.sample("gseq_virtual_ms", ms(d.virt-s.virt))
		}
	}
	m.lat = append(m.lat, lat)
	if len(seq) != len(order) {
		m.problem("lanes seed %d: %d submitted, %d sequenced", seed, len(order), len(seq))
	}
	for s := 0; s < p.shards; s++ {
		for q := 0; q < p.size; q++ {
			log := f.GlobalLog(s, q)
			if len(log) > len(seq) {
				m.problem("lanes seed %d: member %d/%d logged %d entries, sequence has %d", seed, s, q, len(log), len(seq))
				continue
			}
			for j, e := range log {
				if e != seq[j] {
					m.problem("lanes seed %d: member %d/%d diverges at %d", seed, s, q, j)
					break
				}
			}
		}
	}

	rep := f.Report()
	fr := rep.Federation
	clusters := append([]*star.Cluster{f.Tier()}, shardsOf(f)...)
	var events, msgs uint64
	for _, c := range clusters {
		met := c.Metrics()
		events += met.Events
		msgs += met.Net.Sent
		m.add("sim.events", float64(met.Events))
		simNet(m, met.Net)
		coreCounters(m, met, c.Report())
		abcastCounters(m, c)
	}
	m.add("sim.run_wall_s", inRun.Seconds())
	m.max("abcast.backlog_max", backlog)
	m.add("fedlane.redeliveries", float64(fr.Redeliveries))
	m.add("fedlane.stale_submits", float64(fr.StaleSubmits))
	m.add("fedlane.dup_frames", float64(fr.DupLaneFrames))
	m.add("hier.handoffs", float64(fr.Handoffs))
	m.add("hier.rejected_frames", float64(fr.RejectedFrames))
	m.sample("stab_virtual_ms", ms(fr.TierStabilization))

	h := newDigest()
	for _, e := range seq {
		h.add(e.GSeq, uint64(e.Shard)<<32|uint64(e.Origin), uint64(e.Kind), uint64(e.Payload))
	}
	dig := newDigest()
	dig.add(seed, events, msgs, uint64(fr.TierStabilization), uint64(len(seq)), uint64(h))
	m.digests = append(m.digests, dig.String())
	m.logf("lanes seed=%d submitted=%d sequenced=%d tier_stab=%v gseq_hash=%s events=%d msgs=%d digest=%s wall=%.3fs",
		seed, len(order), len(seq), fr.TierStabilization, h, events, msgs, dig, m.wall[len(m.wall)-1])
	return nil
}

func shardsOf(f *star.Federation) []*star.Cluster {
	out := make([]*star.Cluster, f.Shards())
	for s := range out {
		out[s] = f.Shard(s)
	}
	return out
}

// lanesBacklog is the largest lane backlog of any live member of the tier
// or a shard.
func lanesBacklog(f *star.Federation) float64 {
	b := 0
	for _, c := range append([]*star.Cluster{f.Tier()}, shardsOf(f)...) {
		b = max(b, clusterBacklog(c))
	}
	return float64(b)
}

// abcastCounters records one cluster's consensus and broadcast effort:
// ballots started, and slots decided (the longest member log, counting the
// skipped duplicate slots as decided too).
func abcastCounters(m *measure, c *star.Cluster) {
	m.add("consensus.ballots", float64(c.Ballots()))
	longest := 0
	var slots int64
	for p := 0; p < c.N(); p++ {
		if log := c.Deliveries(p); len(log) > longest {
			longest = len(log)
			slots = log[len(log)-1].Slot + 1
		}
	}
	m.add("abcast.deliveries", float64(longest))
	m.add("consensus.decisions", float64(slots))
}
