package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/star"
)

// abcastParams sizes the wall-clock failover workloads; tests shrink them.
type abcastParams struct {
	n        int
	interval time.Duration // open-loop spacing of submissions
	count    int           // submissions per cluster lifetime
	drainCap time.Duration // wall time the drain may take at most
}

// abcastWorkload submits about 1,000 broadcasts per second for 3 s per
// cluster lifetime: the rate the TCP transport sustains with room to spare
// on 2 cores (latency climbs at 3,000/s and submissions are lost at
// 6,000/s), so the run measures a fault, not an overload.
var abcastWorkload = abcastParams{n: 5, interval: time.Millisecond, count: 3000, drainCap: 5 * time.Second}

func loopbackTCP(n int) star.Transport {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return star.Network(addrs)
}

func setupAbcastTCP(seed uint64) (time.Duration, error) {
	return abcastWorkload.setup(seed, loopbackTCP(abcastWorkload.n))
}

func setupAbcastLive(seed uint64) (time.Duration, error) {
	return abcastWorkload.setup(seed, star.Live())
}

func unitAbcastTCP(m *measure, seed uint64, i int) error {
	return abcastWorkload.unit(m, seed, i, loopbackTCP(abcastWorkload.n))
}

func unitAbcastLive(m *measure, seed uint64, i int) error {
	return abcastWorkload.unit(m, seed, i, star.Live())
}

// start builds a cluster and waits for its first agreement: set-up on a
// wall-clock transport ends when the cluster can serve.
func (p abcastParams) start(seed uint64, tr star.Transport, onDeliver func(int, star.Delivery)) (*star.Cluster, time.Duration, error) {
	t0 := time.Now()
	c, err := star.New(star.N(p.n), star.Seed(seed), tr, star.WithAtomicBroadcast(onDeliver))
	if err != nil {
		return nil, 0, err
	}
	for deadline := t0.Add(30 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if _, ok := c.Agreement(); ok {
			return c, time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			c.Close()
			return nil, 0, fmt.Errorf("no first agreement within 30s")
		}
	}
}

func (p abcastParams) setup(seed uint64, tr star.Transport) (time.Duration, error) {
	c, d, err := p.start(seed, tr, nil)
	if err != nil {
		return 0, err
	}
	return d, c.Close()
}

// deliveries records, per submission, when each member delivered it.
type deliveries struct {
	mu    sync.Mutex
	index map[int64]int // payload -> submission number
	at    [][]time.Time // [submission][member]
	alien int           // deliveries of payloads never submitted
}

func (d *deliveries) deliver(p int, del star.Delivery) {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.index[del.Payload]
	if !ok {
		d.alien++
		return
	}
	if d.at[i][p].IsZero() {
		d.at[i][p] = now
	}
}

// unit runs one cluster lifetime: set-up to first agreement, an open-loop
// stream of count submissions spread round-robin over the live members,
// one crash of the current leader at a seeded point mid-stream, and a
// drain until every survivor has delivered every accepted submission.
// One submission is one operation, timed from its due time to its
// delivery at the submitter (at the first survivor to deliver it when the
// submitter was the leader that crashed).
func (p abcastParams) unit(m *measure, runSeed uint64, i int, tr star.Transport) error {
	seed := mix64(runSeed<<16 | uint64(i))
	rng := seed
	payloads := make([]int64, p.count)
	d := &deliveries{index: make(map[int64]int, p.count), at: make([][]time.Time, p.count)}
	for k := range payloads {
		for {
			rng = mix64(rng)
			v := int64(rng >> 2)
			if _, dup := d.index[v]; !dup {
				payloads[k] = v
				d.index[v] = k
				break
			}
		}
		d.at[k] = make([]time.Time, p.n)
	}
	crashAt := p.count*2/5 + int(mix64(seed^0xC0FFEE)%uint64(p.count/5))

	c, setup, err := p.start(seed, tr, func(q int, del star.Delivery) {
		id := m.tr.begin("deliver_cb", -1)
		d.deliver(q, del)
		m.tr.end(id)
	})
	if err != nil {
		return err
	}
	defer c.Close()
	m.setup = append(m.setup, setup.Seconds())

	clock := startUnit()
	gen := newOpenLoop(time.Now(), p.interval)
	submitter := make([]int, p.count)
	victim := -1
	var crashTime time.Time
	var failover time.Duration
	backlog := 0
	next := 0
	refused := 0
	watch := func(now time.Time) {
		if victim >= 0 && failover == 0 {
			if l, ok := c.Agreement(); ok && l != victim {
				failover = now.Sub(crashTime)
				m.tr.add("failover", crashTime, now)
			}
		}
	}
	for k := 0; k < p.count; k++ {
		if w := time.Until(gen.due(k)); w > 0 {
			time.Sleep(w)
		}
		if k == crashAt {
			victim = currentLeader(c)
			crashTime = time.Now()
			id := m.tr.begin("crash", -1)
			if err := c.Crash(victim); err != nil {
				return err
			}
			m.tr.end(id)
		}
		for c.Crashed(next % p.n) {
			next++
		}
		submitter[k] = next % p.n
		next++
		now := time.Now()
		gen.submit(k, now)
		id := m.tr.begin("broadcast", -1)
		if err := c.Broadcast(submitter[k], payloads[k]); err != nil {
			refused++
			submitter[k] = -1
		}
		m.tr.end(id)
		watch(now)
		if m.tr != nil && k%10 == 0 {
			backlog = max(backlog, clusterBacklog(c))
		}
	}
	// Drain: wait until every survivor delivered every accepted submission.
	for end := time.Now().Add(p.drainCap); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		watch(time.Now())
		if failover != 0 && d.allDelivered(submitter, victim) {
			break
		}
	}
	o := ops{attempted: p.count, refused: refused}
	var lost []string
	d.mu.Lock()
	for k, s := range submitter {
		if s < 0 {
			continue
		}
		t := d.at[k][s]
		if s == victim || t.IsZero() {
			t = time.Time{}
			for q, at := range d.at[k] {
				if q != victim && !at.IsZero() && (t.IsZero() || at.Before(t)) {
					t = at
				}
			}
		}
		if t.IsZero() {
			o.undelivered++
			lost = append(lost, fmt.Sprintf("%d@p%d", k-crashAt, s))
			continue
		}
		gen.complete(k, t)
	}
	alien := d.alien
	d.mu.Unlock()
	if len(lost) > 0 {
		// Position relative to the crash, and the member it was submitted to.
		m.logf("abcast seed=%d victim=p%d undelivered: %s", seed, victim, strings.Join(lost, " "))
	}
	if err := clock.finish(m, o); err != nil {
		return err
	}
	lat := gen.latenciesMs()
	m.lat = append(m.lat, lat)
	m.sample("late_ms", gen.latenessMs()...)

	// Outage: from the crash to the first completion of a submission that
	// fell due after it.
	outage := time.Duration(-1)
	for k := crashAt; k < p.count; k++ {
		if gen.completed(k) {
			if o := gen.done[k].Sub(crashTime); outage < 0 || o < outage {
				outage = o
			}
		}
	}
	if failover == 0 {
		m.problem("abcast seed %d: no new leader after crashing %d", seed, victim)
	} else {
		m.sample("failover_ms", ms(failover))
	}
	if outage >= 0 {
		m.sample("outage_ms", ms(outage))
	}

	// Check: every survivor's log is a prefix of the longest, with no
	// duplicates and nothing that was never submitted.
	if alien > 0 {
		m.problem("abcast seed %d: %d deliveries of payloads never submitted", seed, alien)
	}
	var longest []star.Delivery
	logs := make([][]star.Delivery, p.n)
	for q := 0; q < p.n; q++ {
		if q != victim {
			logs[q] = c.Deliveries(q)
			if len(logs[q]) > len(longest) {
				longest = logs[q]
			}
		}
	}
	seen := map[int64]bool{}
	for _, e := range longest {
		if seen[e.Payload] {
			m.problem("abcast seed %d: payload %d delivered twice", seed, e.Payload)
		}
		seen[e.Payload] = true
	}
	for q, log := range logs {
		for j, e := range log {
			if e != longest[j] {
				m.problem("abcast seed %d: member %d diverges at %d", seed, q, j)
				break
			}
		}
	}

	rep := c.Report()
	met := c.Metrics()
	m.add("ops.completed", float64(o.completed()))
	abcastCounters(m, c)
	m.max("abcast.backlog_max", float64(backlog))
	coreCounters(m, met, rep)
	net := met.Net
	if c.Transport() == "net" {
		m.add("netwire.frames", float64(net.Sent))
		m.add("netwire.bytes", float64(net.Bytes))
		m.add("tcpnet.sent", float64(net.Sent))
		m.add("tcpnet.dropped", float64(net.Dropped))
		m.add("tcpnet.breaker_opens", float64(net.BreakerOpens))
	} else {
		m.add("runtime.sent", float64(net.Sent))
	}
	p50, _, _ := percentile(lat, 0.50)
	p99, _, _ := percentile(lat, 0.99)
	m.logf("abcast seed=%d crashed=%d at=%d failover=%.2fms outage=%.2fms delivered=%d/%d refused=%d p50=%.2fms p99=%.2fms cpu/kop=%.1fms wall=%.3fs",
		seed, victim, crashAt, ms(failover), ms(outage), o.completed(), o.attempted, refused, p50, p99, m.perKop[len(m.perKop)-1], m.wall[len(m.wall)-1])
	return nil
}

// allDelivered reports whether every survivor delivered every accepted
// submission.
func (d *deliveries) allDelivered(submitter []int, victim int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, s := range submitter {
		if s < 0 {
			continue
		}
		for q, at := range d.at[k] {
			if q != victim && at.IsZero() {
				return false
			}
		}
	}
	return true
}

// currentLeader is the agreed leader, or member 0's estimate while the
// members disagree.
func currentLeader(c *star.Cluster) int {
	if l, ok := c.Agreement(); ok {
		return l
	}
	return max(c.Leader(0), 0)
}

// clusterBacklog is the largest lane backlog of any live member.
func clusterBacklog(c *star.Cluster) int {
	b := 0
	for q := 0; q < c.N(); q++ {
		if !c.Crashed(q) {
			b = max(b, c.LaneBacklog(q))
		}
	}
	return b
}
