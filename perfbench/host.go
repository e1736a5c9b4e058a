package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host records where and on what a result was measured. Results are only
// comparable when every field but Commit and Source agrees.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the git revision the binary was built from ("unknown" when
	// built outside a git work tree); Source is a SHA-256 over the
	// module's Go sources and build files, which identifies the code even
	// then.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func probeHost(root string) host {
	h := host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// sameMachine reports the first provenance field on which a and b differ.
func sameMachine(a, b host) (string, bool) {
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"go_version", a.GoVersion, b.GoVersion},
		{"goos", a.GOOS, b.GOOS},
		{"goarch", a.GOARCH, b.GOARCH},
		{"cpu_model", a.CPUModel, b.CPUModel},
		{"nproc", a.NumCPU, b.NumCPU},
		{"gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS},
	} {
		if f.x != f.y {
			return fmt.Sprintf("%s %v vs %v", f.name, f.x, f.y), false
		}
	}
	return "", true
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, in path
// order, skipping hidden directories and the build directory.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		sum.Write(data)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}
