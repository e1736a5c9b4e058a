package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{999, 0.99, 990, 9, false},
		{1000, 0.99, 990, 10, true},
		{19, 0.50, 10, 9, false},
		{20, 0.50, 10, 10, true},
		{2000, 0.50, 1000, 1000, true},
	} {
		v, beyond, ok := percentile(seq(c.n), c.q)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %d beyond, ok=%v; want %v, %d, %v",
				c.n, c.q, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

// A burst that slows one repeat's slice does not reach the folded series.
func TestMedianEach(t *testing.T) {
	got := medianEach([][]float64{{1, 50, 3}, {2, 1, 9}, {3, 2, 4, 7}})
	if len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("medianEach = %v, want [2 2 4]", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// An open-loop operation is timed from when it was due, so a stalled
// generator charges the stall to the operation; the stall itself is
// reported separately as lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	g := newOpenLoop(t0, 10*time.Millisecond)
	g.submit(0, t0)                          // on time
	g.submit(1, t0.Add(30*time.Millisecond)) // due at +10ms, 20ms late
	g.submit(2, t0.Add(31*time.Millisecond)) // due at +20ms, never completes
	g.complete(0, t0.Add(5*time.Millisecond))
	g.complete(1, t0.Add(35*time.Millisecond))
	g.complete(1, t0.Add(90*time.Millisecond)) // a later copy does not count
	lat := g.latenciesMs()
	if len(lat) != 2 || lat[0] != 5 || lat[1] != 25 {
		t.Fatalf("latencies = %v, want [5 25] (from due time, not submission)", lat)
	}
	late := g.latenessMs()
	if len(late) != 3 || late[0] != 0 || late[1] != 20 || late[2] != 11 {
		t.Fatalf("lateness = %v, want [0 20 11]", late)
	}
	if g.completed(2) {
		t.Fatal("operation 2 reported completed")
	}
}

func TestFailedFracAndPerKopDenominators(t *testing.T) {
	o := ops{attempted: 1000, refused: 10, undelivered: 90}
	if o.failed() != 100 || o.completed() != 900 {
		t.Fatalf("failed %d completed %d, want 100 and 900", o.failed(), o.completed())
	}
	if f := o.failedFrac(); f != 0.1 {
		t.Fatalf("failedFrac = %v, want 0.1 (failed over attempted)", f)
	}
	// Cost is charged to completed operations only: 1800 ms over 900
	// completed is 2000 ms per thousand, not 1800.
	if k, err := perKop(1800, o); err != nil || math.Abs(k-2000) > 1e-9 {
		t.Fatalf("perKop = %v, %v; want 2000", k, err)
	}
	if _, err := perKop(1, ops{attempted: 5, refused: 5}); err == nil {
		t.Fatal("perKop with nothing completed did not fail")
	}
	if f := (ops{}).failedFrac(); f != 0 {
		t.Fatalf("failedFrac of nothing = %v", f)
	}
}

func TestDigestOrderSensitive(t *testing.T) {
	a, b := newDigest(), newDigest()
	a.add(1, 2)
	b.add(2, 1)
	if a == b {
		t.Fatal("digest ignores order")
	}
}

func TestSameMachine(t *testing.T) {
	h := host{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPUModel: "x", NumCPU: 2, GOMAXPROCS: 2, Commit: "a"}
	other := h
	other.Commit = "b" // a different commit on the same machine compares
	if _, ok := sameMachine(h, other); !ok {
		t.Fatal("different commits refused")
	}
	other.NumCPU = 4
	if diff, ok := sameMachine(h, other); ok || diff == "" {
		t.Fatal("different nproc accepted")
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = mix64(x)
		}
	}
	return x
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(stacks)
	if a.totalNanos == 0 {
		t.Fatal("no samples")
	}
	pkg := funcPackage(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if s := a.share(a.cum[pkg]); s < 0.5 {
		t.Fatalf("spin loop's package holds %.2f of the profile, want most of it", s)
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark prints, with
// the same units, and every layer has its self-share metric.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) || len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d metrics/layers/workloads, the benchmark %d/%d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(spec.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, e := range endToEnd {
		if spec.EndToEnd[i].Name != e.name || spec.EndToEnd[i].Unit != e.unit {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, spec.EndToEnd[i], e)
		}
	}
	for i, l := range perLayer {
		if s := spec.PerLayer[i]; s.Name != l.name || s.Unit != l.unit || s.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, s, l)
		}
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %q, benchmark runs %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, l := range layerPackages {
		found := false
		for _, m := range perLayer {
			found = found || m.name == l.layer+".self_share"
		}
		if !found {
			t.Errorf("layer %s has no self_share metric", l.layer)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/sim.(*Scheduler).step":     "repro/internal/sim",
		"repro/star.(*Cluster).Run.func1":          "repro/star",
		"runtime.mallocgc":                         "runtime",
		"repro/internal/par.ForEach[go.shape.int]": "repro/internal/par",
		"main.spin": "main",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}
