package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// layerPackages maps each layer to the package whose leaf CPU samples are
// its self time.
var layerPackages = []struct{ layer, pkg string }{
	{"sim", "repro/internal/sim"},
	{"netsim", "repro/internal/netsim"},
	{"scenario", "repro/internal/scenario"},
	{"core", "repro/internal/core"},
	{"rounds", "repro/internal/rounds"},
	{"bitset", "repro/internal/bitset"},
	{"consensus", "repro/internal/consensus"},
	{"abcast", "repro/internal/abcast"},
	{"fedlane", "repro/internal/fedlane"},
	{"hier", "repro/internal/hier"},
	{"star", "repro/star"},
	{"netwire", "repro/internal/netwire"},
	{"tcpnet", "repro/internal/tcpnet"},
	{"runtime", "repro/internal/runtime"},
}

// perLayer names the per-layer metrics in output order. Every traced run
// reports all of them; a layer the workload never runs reads 0.
var perLayer = []struct{ name, unit, better string }{
	{"sim.events", "count", "lower"},
	{"sim.vevents_per_s", "1/s", "higher"},
	{"sim.self_share", "share", "lower"},
	{"netsim.sent", "count", "lower"},
	{"netsim.delivered_ratio", "ratio", "higher"},
	{"netsim.bytes", "bytes", "lower"},
	{"netsim.self_share", "share", "lower"},
	{"scenario.gate_held_winning", "count", "lower"},
	{"scenario.gate_held_lose", "count", "lower"},
	{"scenario.self_share", "share", "lower"},
	{"core.rounds_done", "count", "higher"},
	{"core.susp_increments", "count", "lower"},
	{"core.max_susp_level", "count", "lower"},
	{"core.late_alive_ratio", "ratio", "lower"},
	{"core.leader_changes", "count", "lower"},
	{"core.stab_virtual_ms", "ms", "lower"},
	{"core.failover_p50_ms", "ms", "lower"},
	{"core.self_share", "share", "lower"},
	{"rounds.window_evictions", "count", "lower"},
	{"rounds.window_overflow", "count", "lower"},
	{"rounds.self_share", "share", "lower"},
	{"bitset.self_share", "share", "lower"},
	{"consensus.ballots", "count", "lower"},
	{"consensus.ballots_per_decision", "ratio", "lower"},
	{"consensus.self_share", "share", "lower"},
	{"abcast.deliveries", "count", "higher"},
	{"abcast.backlog_max", "count", "lower"},
	{"abcast.outage_p50_ms", "ms", "lower"},
	{"abcast.self_share", "share", "lower"},
	{"fedlane.redeliveries", "count", "lower"},
	{"fedlane.stale_submits", "count", "lower"},
	{"fedlane.dup_frames", "count", "lower"},
	{"fedlane.gseq_p50_virtual_ms", "ms", "lower"},
	{"fedlane.gseq_p99_virtual_ms", "ms", "lower"},
	{"fedlane.self_share", "share", "lower"},
	{"hier.handoffs", "count", "lower"},
	{"hier.rejected_frames", "count", "lower"},
	{"hier.self_share", "share", "lower"},
	{"star.run_slice_ms", "ms", "lower"},
	{"star.submit_us", "us", "lower"},
	{"star.self_share", "share", "lower"},
	{"netwire.frames_per_op", "count", "lower"},
	{"netwire.bytes_per_op", "bytes", "lower"},
	{"netwire.self_share", "share", "lower"},
	{"tcpnet.dropped_ratio", "ratio", "lower"},
	{"tcpnet.breaker_opens", "count", "lower"},
	{"tcpnet.self_share", "share", "lower"},
	{"runtime.sent", "count", "lower"},
	{"runtime.self_share", "share", "lower"},
	{"go.gc_share", "share", "lower"},
	{"go.syscall_share", "share", "lower"},
	{"go.sched_share", "share", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"overhead.setup_s", "s", "lower"},
	{"overhead.run_wall_s", "s", "lower"},
	{"overhead.cpu_ms_per_kop", "ms", "lower"},
	{"overhead.alloc_mb", "MB", "lower"},
	{"overhead.op_p50_ms", "ms", "lower"},
	{"overhead.op_p99_ms", "ms", "lower"},
}

// runTraced runs the traced half: spans on, CPU profile around the whole
// half. It returns the half, its per-layer metrics (without the overhead
// entries, which need the untraced half), a report of the trace, and the
// raw profile.
func runTraced(w workload, seed uint64, budget time.Duration) (*measure, map[string]float64, string, []byte, error) {
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, "", nil, fmt.Errorf("cpu profile: %w", err)
	}
	m, err := runHalf(w, seed, budget, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, "", nil, err
	}
	stacks, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, nil, "", nil, err
	}
	attr := attribute(stacks)
	spans := tr.summary()
	var sb strings.Builder
	sb.WriteString(attr.table())
	sb.WriteString(formatSpans(spans))
	names := make([]string, 0, len(m.counters))
	for k := range m.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "counters (sum over %d units)\n", m.units)
	for _, k := range names {
		fmt.Fprintf(&sb, "  %-32s %14.6g\n", k, m.counters[k])
	}
	return m, layerMetrics(m, attr, spans), sb.String(), prof.Bytes(), nil
}

// layerMetrics reduces the traced half: counts per unit, ratios of sums,
// shares of the CPU profile, span medians and domain-sample percentiles.
func layerMetrics(m *measure, a attribution, spans []spanStats) map[string]float64 {
	c := m.counters
	units := float64(max(m.units, 1))
	ratio := func(num, den string) float64 {
		if c[den] == 0 {
			return 0
		}
		return c[num] / c[den]
	}
	pct := func(name string, q float64) float64 {
		v, _, ok := percentile(m.samples[name], q)
		if !ok {
			return 0
		}
		return v
	}
	out := map[string]float64{
		"sim.vevents_per_s":              ratio("sim.events", "sim.run_wall_s"),
		"netsim.delivered_ratio":         ratio("netsim.delivered", "netsim.sent"),
		"core.late_alive_ratio":          ratio("core.late_alive", "core.alive_msgs"),
		"core.max_susp_level":            c["core.max_susp_level"],
		"core.stab_virtual_ms":           median(m.samples["stab_virtual_ms"]),
		"core.failover_p50_ms":           median(m.samples["failover_ms"]),
		"consensus.ballots_per_decision": ratio("consensus.ballots", "consensus.decisions"),
		"abcast.backlog_max":             c["abcast.backlog_max"],
		"abcast.outage_p50_ms":           median(m.samples["outage_ms"]),
		"fedlane.gseq_p50_virtual_ms":    pct("gseq_virtual_ms", 0.50),
		"fedlane.gseq_p99_virtual_ms":    pct("gseq_virtual_ms", 0.99),
		"star.run_slice_ms":              spanP50(spans, "run_slice"),
		"star.submit_us":                 1000 * spanP50(spans, "broadcast"),
		"netwire.frames_per_op":          ratio("netwire.frames", "ops.completed"),
		"netwire.bytes_per_op":           ratio("netwire.bytes", "ops.completed"),
		"tcpnet.dropped_ratio":           ratio("tcpnet.dropped", "tcpnet.sent"),
		"go.gc_share":                    a.share(a.gc),
		"go.syscall_share":               a.share(a.syscall),
		"go.sched_share":                 a.share(a.sched),
		"gen.late_p99_ms":                pct("late_ms", 0.99),
	}
	for _, k := range []string{"sim.events", "netsim.sent", "netsim.bytes",
		"scenario.gate_held_winning", "scenario.gate_held_lose", "core.rounds_done",
		"core.susp_increments", "core.leader_changes", "rounds.window_evictions",
		"rounds.window_overflow", "consensus.ballots", "abcast.deliveries",
		"fedlane.redeliveries", "fedlane.stale_submits", "fedlane.dup_frames",
		"hier.handoffs", "hier.rejected_frames", "tcpnet.breaker_opens", "runtime.sent"} {
		out[k] = c[k] / units
	}
	for _, l := range layerPackages {
		out[l.layer+".self_share"] = a.share(a.self[l.pkg])
	}
	return out
}
