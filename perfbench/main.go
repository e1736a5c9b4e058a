// Command perfbench is the repository's benchmark: it drives one workload
// through the public repro/star façade for a fixed wall-clock budget,
// checks the workload's outputs, and prints every metric by name and unit.
// The last line of standard output is the result as one JSON object.
//
//	perfbench --workload elect-intermittent-n51 --seed 1 --seconds 30 --trace 0
//	perfbench --compare OLD NEW
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 the budget is split: the first half runs untraced, the
// second half runs with spans around the façade calls and a CPU profile,
// and the run reports the per-layer metrics plus the tracing overhead
// (traced minus untraced) on every end-to-end metric. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark input: a way to build the system once (timed
// as set-up) and a unit of work that the run repeats until its budget is
// spent.
type workload struct {
	name string
	// setup builds and tears down the system once and returns the time
	// the build took.
	setup func(seed uint64) (time.Duration, error)
	// unit runs unit number i of the run and records it into m.
	unit func(m *measure, seed uint64, i int) error
}

var workloads = []workload{
	{"elect-intermittent-n51", setupElect, unitElect},
	{"lanes-fed-4x8", setupLanes, unitLanes},
	{"abcast-failover-tcp", setupAbcastTCP, unitAbcastTCP},
	{"abcast-failover-live", setupAbcastLive, unitAbcastLive},
}

// setupsPerUnit is how many extra set-ups are timed before every unit, on
// top of the one inside it. A set-up takes about a millisecond, so a batch
// of them samples the host's speed at one instant, and the host slows down
// in bursts; spread over the run, their median follows the run instead.
// The setupWarm before the first unit are not timed: the first set-ups of a
// process also pay for growing its heap.
const (
	setupWarm     = 3
	setupsPerUnit = 5
)

// measure accumulates one measured half of a run.
type measure struct {
	tr       *tracer // nil when untraced
	units    int
	ops      ops
	setup    []float64   // s
	wall     []float64   // s per unit
	perKop   []float64   // CPU ms per 1000 completed operations, per unit
	allocMB  []float64   // MB allocated per unit
	lat      [][]float64 // operation latencies in ms, per unit
	counters map[string]float64
	samples  map[string][]float64 // per-unit (or per-event) domain values
	digests  []string             // per unit, sim workloads only
	problems []string             // failed correctness checks
	lines    []string             // per-unit report lines
}

func newMeasure(tr *tracer) *measure {
	return &measure{tr: tr, counters: map[string]float64{}, samples: map[string][]float64{}}
}

func (m *measure) add(name string, v float64) { m.counters[name] += v }

func (m *measure) max(name string, v float64) {
	if v > m.counters[name] {
		m.counters[name] = v
	}
}

func (m *measure) sample(name string, v ...float64) { m.samples[name] = append(m.samples[name], v...) }

func (m *measure) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

func (m *measure) logf(format string, args ...any) {
	m.lines = append(m.lines, fmt.Sprintf(format, args...))
}

// unitClock brackets one unit of work: wall time, process CPU time and
// bytes allocated.
type unitClock struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func startUnit() unitClock {
	runtime.GC() // start every unit from the same heap state
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return unitClock{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc}
}

// finish records the unit's costs against its operations.
func (c unitClock) finish(m *measure, o ops) error {
	wall := time.Since(c.wall)
	cpu := processCPU() - c.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	kop, err := perKop(float64(cpu)/float64(time.Millisecond), o)
	if err != nil {
		return err
	}
	m.units++
	m.ops.attempted += o.attempted
	m.ops.refused += o.refused
	m.ops.undelivered += o.undelivered
	m.wall = append(m.wall, wall.Seconds())
	m.perKop = append(m.perKop, kop)
	m.allocMB = append(m.allocMB, float64(ms.TotalAlloc-c.alloc)/1e6)
	return nil
}

// processCPU is the process's user plus system time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd names the end-to-end metrics in output order, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_wall_s", "s"},
	{"cpu_ms_per_kop", "ms"},
	{"alloc_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
}

// endToEndMetrics reduces a measured half to the end-to-end metrics. The
// latency percentiles are taken per unit and their median reported: the
// host's bursts of slowness then move one unit's tail, not the run's.
func (m *measure) endToEndMetrics() (map[string]float64, error) {
	var p50s, p99s []float64
	for i, lat := range m.lat {
		p50, _, _ := percentile(lat, 0.50)
		p99, _, ok := percentile(lat, 0.99)
		if !ok {
			return nil, fmt.Errorf("unit %d has %d operation latencies: p99 needs at least %d samples beyond it", i, len(lat), minBeyond)
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	return map[string]float64{
		"setup_s":        median(m.setup),
		"run_wall_s":     median(m.wall),
		"cpu_ms_per_kop": median(m.perKop),
		"alloc_mb":       median(m.allocMB),
		"op_p50_ms":      median(p50s),
		"op_p99_ms":      median(p99s),
	}, nil
}

// latencies counts the half's operation latencies over all units.
func (m *measure) latencies() int {
	n := 0
	for _, l := range m.lat {
		n += len(l)
	}
	return n
}

// runHalf runs units, each after setupsPerUnit timed set-ups, while the
// next one is expected to end less than half a unit past the budget
// (always at least one), so a run takes about the same time on every seed
// and an election run holds a full group of electRepeats units.
func runHalf(w workload, seed uint64, budget time.Duration, tr *tracer) (*measure, error) {
	m := newMeasure(tr)
	setups := 0
	setup := func(timed bool) error {
		setups++
		// Every set-up starts from a collected heap that has handed its
		// free pages back to the OS, as in a fresh process; otherwise its
		// cost depends on how much memory the last unit left mapped.
		debug.FreeOSMemory()
		d, err := w.setup(mix64(seed ^ uint64(setups)<<40))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if timed {
			m.setup = append(m.setup, d.Seconds())
		}
		return nil
	}
	for r := 0; r < setupWarm; r++ {
		if err := setup(false); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		for r := 0; r < setupsPerUnit; r++ {
			if err := setup(true); err != nil {
				return nil, err
			}
		}
		if err := w.unit(m, seed, i); err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*(i+1)) > budget {
			return m, nil
		}
	}
}

type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metricV `json:"metrics"`
}

type metricV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what a run archives under --out: the result plus its
// provenance and everything the run printed about the workload.
type record struct {
	Schema   int                `json:"schema"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Started  string             `json:"started"`
	Host     host               `json:"host"`
	Digests  []string           `json:"digests,omitempty"`
	Result   result             `json:"result"`
	Extra    map[string]float64 `json:"extra"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "wall-clock budget of the run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		out     = flag.String("out", "", "directory to archive result files and profiles in")
		compare = flag.Bool("compare", false, "compare two result files or directories given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("--compare needs OLD and NEW"))
		}
		os.Exit(compareResults(flag.Arg(0), flag.Arg(1)))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	rec := record{
		Schema: 1, Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Started: time.Now().UTC().Format(time.RFC3339), Host: probeHost("."),
		Extra: map[string]float64{},
	}
	hj, _ := json.Marshal(rec.Host)
	fmt.Printf("host %s\n", hj)

	budget := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		budget /= 2
	}
	plain, err := runHalf(*w, *seed, budget, nil)
	if err != nil {
		fail(err)
	}
	e2e, err := plain.endToEndMetrics()
	if err != nil {
		fail(err)
	}
	halves := []*measure{plain}
	metrics := map[string]metricV{}
	for _, e := range endToEnd {
		metrics[e.name] = metricV{e2e[e.name], e.unit}
	}
	printHalf("untraced", plain, e2e)

	if *trace == 1 {
		traced, layer, report, prof, err := runTraced(*w, *seed, budget)
		if err != nil {
			fail(err)
		}
		halves = append(halves, traced)
		te2e, err := traced.endToEndMetrics()
		if err != nil {
			fail(err)
		}
		printHalf("traced", traced, te2e)
		fmt.Print(report)
		for _, e := range endToEnd {
			layer["overhead."+e.name] = te2e[e.name] - e2e[e.name]
			fmt.Printf("overhead %-16s %+.6g %s (traced %.6g, untraced %.6g)\n",
				e.name, te2e[e.name]-e2e[e.name], e.unit, te2e[e.name], e2e[e.name])
		}
		metrics = map[string]metricV{}
		for _, l := range perLayer {
			metrics[l.name] = metricV{layer[l.name], l.unit}
		}
		fmt.Println("per-layer metrics (traced half)")
		for _, l := range perLayer {
			fmt.Printf("  %-30s %14.6g %s\n", l.name, layer[l.name], l.unit)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err == nil {
				base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-cpu.pprof", w.name, *seed))
				if err := os.WriteFile(base, prof, 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: writing profile:", err)
				}
			}
		}
	}

	res := result{Correct: true, Metrics: metrics}
	for _, h := range halves {
		res.Attempted += h.ops.attempted
		res.Failed += h.ops.failed()
		for i, d := range h.digests {
			// Both halves run the same units, and the simulator replays.
			if i < len(plain.digests) && d != plain.digests[i] {
				h.problem("unit %d digest %s differs from the untraced half's %s", i, d, plain.digests[i])
			}
		}
		for _, p := range h.problems {
			res.Correct = false
			fmt.Println("CHECK FAILED:", p)
		}
	}
	if len(plain.digests) > 0 {
		// Unit i of a given --seed has the same digest on every build that
		// leaves behaviour alone; unit 0 runs in every run.
		rec.Digests = plain.digests
		fmt.Printf("digest %s (unit 0 of %d)\n", plain.digests[0], len(plain.digests))
	}
	fmt.Printf("failed_frac %.6g (%d of %d operations)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	rec.Result = res
	for k, v := range e2e {
		rec.Extra["untraced."+k] = v
	}
	for k, v := range summarizeSamples(plain) {
		rec.Extra[k] = v
	}
	if *out != "" {
		if err := archive(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHalf prints one half's end-to-end metrics with their sample counts
// and the workload's own lines.
func printHalf(label string, m *measure, e2e map[string]float64) {
	fmt.Printf("== %s: %d units, %d operations (%d refused, %d undelivered)\n",
		label, m.units, m.ops.attempted, m.ops.refused, m.ops.undelivered)
	for _, l := range m.lines {
		fmt.Println("  " + l)
	}
	counts := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups, %.3g to %.3g", len(m.setup), slices.Min(m.setup), slices.Max(m.setup)),
		"run_wall_s":     fmt.Sprintf("median of %d units", len(m.wall)),
		"cpu_ms_per_kop": fmt.Sprintf("median of %d units", len(m.perKop)),
		"alloc_mb":       fmt.Sprintf("median of %d units", len(m.allocMB)),
		"op_p50_ms":      fmt.Sprintf("median over %d units, n=%d", len(m.lat), m.latencies()),
		"op_p99_ms":      fmt.Sprintf("median over %d units, n=%d", len(m.lat), m.latencies()),
	}
	for _, e := range endToEnd {
		fmt.Printf("  %-16s %14.6g %-3s (%s)\n", e.name, e2e[e.name], e.unit, counts[e.name])
	}
	summary := summarizeSamples(m)
	names := make([]string, 0, len(summary))
	for k := range summary {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g\n", k, summary[k])
	}
}

// summarizeSamples reduces the domain samples to medians and, where the
// sample supports it, p99.
func summarizeSamples(m *measure) map[string]float64 {
	out := map[string]float64{}
	for k, xs := range m.samples {
		out[k+".p50"] = median(xs)
		if v, _, ok := percentile(xs, 0.99); ok {
			out[k+".p99"] = v
		}
	}
	return out
}

func archive(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
