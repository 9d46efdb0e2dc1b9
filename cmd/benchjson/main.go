// Command benchjson runs every substrate micro-benchmark of the
// internal/benchutil registry (the hot paths that dominate every figure,
// table, service and stream run) with memory statistics and writes a
// machine-readable BENCH_<date>.json snapshot with one result per
// registry entry, so the per-PR performance trajectory can be tracked
// and archived by CI. Each snapshot names its host (num_cpu, and
// cpu_model on linux), since numbers from different machines do not
// compare.
//
// Usage:
//
//	benchjson            # writes BENCH_<yyyy-mm-dd>.json in the cwd; fails
//	                     # up front if that file exists (a same-day
//	                     # snapshot is never overwritten — name it with -o)
//	benchjson -o out.json
//
// An entry with MinIters (the paper-resolution trackers) is timed over
// at least that many ops; iterations records how many. A benchmark that
// fails exits with status 1 and writes no snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/benchutil"
)

// Result is one benchmark measurement.
type Result struct {
	Name string `json:"name"`
	// Iterations is the number of timed ops the per-op figures average.
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	MsPerOp     float64 `json:"ms_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra carries benchmark-reported metrics (b.ReportMetric), e.g. the
	// L-factor fill of the paper-resolution analysis tracker.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the emitted file layout.
type Snapshot struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// CPUModel is the processor model name (the "model name" line of
	// /proc/cpuinfo on linux, empty elsewhere), so snapshots from
	// different hosts are not compared as if they were one machine.
	CPUModel   string   `json:"cpu_model"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output path (default BENCH_<yyyy-mm-dd>.json)")
	flag.Parse()
	path, err := run(*out, benchutil.Benches)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(path)
}

// run measures benches and writes the snapshot to out (or to the
// per-day default name), returning the path written. The file is
// created only once every benchmark has succeeded, so a failed run
// leaves nothing behind.
func run(out string, benches []benchutil.Bench) (string, error) {
	// Outside go test the testing flags are unregistered, and a failing
	// body's b.Fatal dereferences them.
	testing.Init()

	date := time.Now().Format("2006-01-02")
	path, flags := out, os.O_WRONLY|os.O_CREATE|os.O_TRUNC
	if path == "" {
		// The default name is per day: refuse to clobber an earlier
		// snapshot of the same day, and say so before the long run.
		path, flags = fmt.Sprintf("BENCH_%s.json", date), os.O_WRONLY|os.O_CREATE|os.O_EXCL
		if _, err := os.Stat(path); err == nil {
			return "", fmt.Errorf("%s already exists; choose another name with -o", path)
		}
	}

	snap := Snapshot{
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
	}
	for _, e := range benches {
		fmt.Fprintf(os.Stderr, "benchjson: running %s...\n", e.Name)
		r := benchAtLeast(e.MinIters, func() testing.BenchmarkResult { return testing.Benchmark(e.Run) })
		if r.N == 0 {
			return "", fmt.Errorf("benchmark %s failed; go test -run xxx -bench 'Substrate/^%s$' . shows its log", e.Name, e.Name)
		}
		snap.Benchmarks = append(snap.Benchmarks, Result{
			Name:        e.Name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			MsPerOp:     float64(r.NsPerOp()) / 1e6,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Extra:       r.Extra,
		})
		fmt.Fprintf(os.Stderr, "benchjson: %s %d ops, %.3f ms/op, %d B/op, %d allocs/op\n",
			e.Name, r.N, float64(r.NsPerOp())/1e6, r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	buf = append(buf, '\n')
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return "", err
	}
	_, err = f.Write(buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// benchAtLeast calls run (one testing.Benchmark of a body) until the runs
// have timed at least minIter ops in total, and sums their ops, time and
// allocations into one result; the reported metrics are the last run's.
// A failed run (0 ops) fails the whole measurement: the zero result.
func benchAtLeast(minIter int, run func() testing.BenchmarkResult) testing.BenchmarkResult {
	var sum testing.BenchmarkResult
	for {
		r := run()
		if r.N == 0 {
			return testing.BenchmarkResult{}
		}
		sum.N += r.N
		sum.T += r.T
		sum.MemAllocs += r.MemAllocs
		sum.MemBytes += r.MemBytes
		sum.Extra = r.Extra
		if sum.N >= minIter {
			return sum
		}
	}
}

// cpuModel returns the host's processor model name: read from
// /proc/cpuinfo on linux, "" elsewhere or when it cannot be read.
func cpuModel() string {
	if runtime.GOOS != "linux" {
		return ""
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	return modelName(string(b))
}

// modelName extracts the value of the first "model name" line of a
// /proc/cpuinfo listing ("" when there is none).
func modelName(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
