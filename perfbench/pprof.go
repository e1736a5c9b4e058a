package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped profile.proto
// message. Only the fields needed to name each sample's stack are decoded
// here, which keeps the benchmark on the standard library.

// profStack is one sample: its value in nanoseconds of CPU and its frames'
// function names, leaf first (inlined callees before their callers).
type profStack struct {
	nanos  int64
	frames []string
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(data []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					for _, u := range appendVarints(nil, wt, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := profStack{nanos: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7F) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of the package a profiled function
// belongs to: "repro/internal/sim.(*Scheduler).step" -> "repro/internal/sim".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Go runtime work that is not any layer's own: frames that mark garbage
// collection, scheduling and system calls anywhere in a stack.
var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain",
		"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.goschedImpl", "runtime.goexit0", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.ready", "runtime.newproc1"}
	syscallLeaves = []string{"runtime.futex", "runtime.epollwait", "runtime.usleep",
		"runtime.nanosleep", "runtime.osyield", "runtime.write1", "runtime.read"}
)

// attribution is a CPU profile summed per package and per Go-runtime
// activity, as shares of all sampled CPU time.
type attribution struct {
	totalNanos int64
	self, cum  map[string]int64 // by package import path
	gc, sched  int64
	syscall    int64
}

func attribute(stacks []profStack) attribution {
	a := attribution{self: map[string]int64{}, cum: map[string]int64{}}
	for _, s := range stacks {
		if len(s.frames) == 0 {
			continue
		}
		a.totalNanos += s.nanos
		a.self[funcPackage(s.frames[0])] += s.nanos
		seen := map[string]bool{}
		var gc, sched, sys bool
		for _, f := range s.frames {
			pkg := funcPackage(f)
			if !seen[pkg] {
				seen[pkg] = true
				a.cum[pkg] += s.nanos
			}
			gc = gc || hasAnyPrefix(f, gcFrames)
			sched = sched || slices.Contains(schedFrames, f)
			sys = sys || pkg == "syscall" || pkg == "internal/runtime/syscall"
		}
		sys = sys || slices.Contains(syscallLeaves, s.frames[0])
		if gc {
			a.gc += s.nanos
		}
		if sched {
			a.sched += s.nanos
		}
		if sys {
			a.syscall += s.nanos
		}
	}
	return a
}

// hasAnyPrefix matches function names and their variants and closures
// ("runtime.gcDrain" matches "runtime.gcDrainN" too, by design).
func hasAnyPrefix(f string, names []string) bool {
	for _, n := range names {
		if strings.HasPrefix(f, n) {
			return true
		}
	}
	return false
}

func (a attribution) share(n int64) float64 {
	if a.totalNanos == 0 {
		return 0
	}
	return float64(n) / float64(a.totalNanos)
}

// table renders the per-package attribution, largest self share first.
func (a attribution) table() string {
	pkgs := make([]string, 0, len(a.cum))
	for p := range a.cum {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if a.self[pkgs[i]] != a.self[pkgs[j]] {
			return a.self[pkgs[i]] > a.self[pkgs[j]]
		}
		return pkgs[i] < pkgs[j]
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "cpu-profile %.3fs sampled\n", float64(a.totalNanos)/1e9)
	fmt.Fprintf(&sb, "%-32s %8s %8s\n", "package", "self", "cum")
	for _, p := range pkgs {
		fmt.Fprintf(&sb, "%-32s %7.2f%% %7.2f%%\n", p, 100*a.share(a.self[p]), 100*a.share(a.cum[p]))
	}
	fmt.Fprintf(&sb, "%-32s %7.2f%%\n%-32s %7.2f%%\n%-32s %7.2f%%\n",
		"go: garbage collection", 100*a.share(a.gc),
		"go: scheduler", 100*a.share(a.sched),
		"go: system calls", 100*a.share(a.syscall))
	return sb.String()
}
