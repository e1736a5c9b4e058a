package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadRecords reads one archived result file, or every *.json file in a
// directory.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return out, nil
}

// compareResults prints, per workload and metric, the median of OLD's runs
// against the median of NEW's. It refuses (exit 2) when any two runs were
// measured on different machines, and exits 1 on a failed run.
func compareResults(oldPath, newPath string) int {
	olds, err := loadRecords(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	news, err := loadRecords(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := append(append([]record(nil), olds...), news...)
	for _, r := range all[1:] {
		if diff, ok := sameMachine(all[0].Host, r.Host); !ok {
			fmt.Fprintf(os.Stderr, "perfbench: refusing to compare runs from different hosts: %s\n", diff)
			return 2
		}
	}
	type key struct {
		workload string
		trace    int
		metric   string
	}
	collect := func(rs []record) (map[key][]float64, bool) {
		vals := map[key][]float64{}
		ok := true
		for _, r := range rs {
			ok = ok && r.Result.Correct
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				vals[k] = append(vals[k], v.Value)
			}
		}
		return vals, ok
	}
	oldVals, oldOK := collect(olds)
	newVals, newOK := collect(news)
	var keys []key
	for k := range newVals {
		if _, ok := oldVals[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	fmt.Printf("%-24s %-32s %14s %14s %9s\n", "workload", "metric", "old median", "new median", "change")
	for _, k := range keys {
		o, n := median(oldVals[k]), median(newVals[k])
		change := "n/a"
		if o != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
		}
		fmt.Printf("%-24s %-32s %14.6g %14.6g %9s  (runs %d/%d)\n",
			k.workload, k.metric, o, n, change, len(oldVals[k]), len(newVals[k]))
	}
	if !oldOK || !newOK {
		fmt.Fprintf(os.Stderr, "perfbench: some runs failed their correctness check (old ok=%v, new ok=%v)\n", oldOK, newOK)
		return 1
	}
	return 0
}
