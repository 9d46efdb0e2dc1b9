// Command benchjson runs the substrate micro-benchmarks (the thermal hot
// paths that dominate every figure and table run) with memory statistics
// and writes a machine-readable BENCH_<date>.json snapshot, so the
// per-PR performance trajectory can be tracked and archived by CI. Each
// snapshot names its host (num_cpu, and cpu_model on linux), since
// numbers from different machines do not compare.
//
// Usage:
//
//	benchjson            # writes BENCH_<yyyy-mm-dd>.json in the cwd; fails
//	                     # up front if that file exists (a same-day
//	                     # snapshot is never overwritten — name it with -o)
//	benchjson -o out.json
//	benchjson -paper     # adds the paper-resolution factor/fill trackers
//	                     # (symbolic analysis + first factorization at
//	                     # 115×100, with the L fill, supernode count and
//	                     # mean panel width reported, plus the
//	                     # refactorize+solve and lone-solve bodies) — the
//	                     # opt-in nightly CI job's configuration; each is
//	                     # timed over at least 3 ops (minPaperIters)
//
// The benchmark bodies are the ones bench_test.go runs (shared through
// internal/benchutil): ThermalStepCoarse, ThermalStepPaperResolution,
// SteadyState, SimTick and SessionStep — per-tick loops
// with varying power, the regime real runs are in, with model
// construction and the first factorizing tick as setup so op times
// measure the steady cached-factor path — plus the RunManyCold/
// RunManyWarm pair, which tracks the end-to-end setup amortization of
// the shared platform layer (cold = per-run artifact builds, warm = a
// primed coolsim.PlatformCache), RunManySharedFactor (the co-scheduled
// gang path batching platform-sharing runs through one SolveBatch sweep
// per tick), the SolveBatch8/SolveSequential8 pair tracking the blocked
// multi-RHS kernel's per-RHS win at paper resolution, and CampaignExpand
// — the server-side sweep-to-scenarios expansion every campaign
// submission pays before its members reach the queue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/stepper"
)

// minPaperIters is the fewest timed ops a paper-resolution tracker is
// measured over: its analysis and factorization take over a second per
// op, so one testing.Benchmark run of the default benchtime stops after
// a single sample.
const minPaperIters = 3

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
	paper := flag.Bool("paper", false,
		"add the paper-resolution (115x100) factor/fill trackers (nightly CI configuration)")
	flag.Parse()
	path, err := run(*out, *paper)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println(path)
}

// run measures the benchmarks and writes the snapshot to out (or to the
// per-day default name), returning the path written.
func run(out string, paper bool) (path string, err error) {
	type bench struct {
		name    string
		fn      func(b *testing.B)
		minIter int // fewest timed ops (0: one testing.Benchmark run)
	}
	benches := []bench{
		{name: "ThermalStepCoarse", fn: benchutil.ThermalStep(23, 20)},
		{name: "ThermalStepPaperResolution", fn: benchutil.ThermalStep(115, 100)},
		{name: "SteadyState", fn: benchutil.SteadyState},
		{name: "SimTick", fn: benchutil.SimTick},
		{name: "SessionStep", fn: benchutil.SessionStep},
		{name: "QuietPhaseFixed", fn: benchutil.QuietPhase(stepper.Fixed, 23, 20)},
		{name: "QuietPhaseAdaptive", fn: benchutil.QuietPhase(stepper.Adaptive, 23, 20)},
		{name: "RunManyCold", fn: benchutil.RunManyCold},
		{name: "RunManyWarm", fn: benchutil.RunManyWarm},
		{name: "RunManySharedFactor", fn: benchutil.RunManySharedFactor},
		{name: "SolveBatch8", fn: benchutil.SolveBatch8},
		{name: "SolveSequential8", fn: benchutil.SolveSequential8},
		{name: "CampaignExpand", fn: benchutil.CampaignExpand},
		{name: "SampleEncode", fn: benchutil.SampleEncode},
		{name: "StreamFanout1", fn: benchutil.StreamFanout(1)},
		{name: "StreamFanout64", fn: benchutil.StreamFanout(64)},
		{name: "StreamFanout1024", fn: benchutil.StreamFanout(1024)},
	}
	if paper {
		benches = append(benches,
			bench{"AnalyzePaperResolution", benchutil.AnalyzePaper, minPaperIters},
			bench{"FactorizePaperResolution", benchutil.FactorizePaper, minPaperIters},
			bench{"SolvePaperResolution", benchutil.SolvePaper, minPaperIters},
		)
	}

	date := time.Now().Format("2006-01-02")
	path = out
	var f *os.File
	if path == "" {
		// The default name is per day: refuse to clobber an earlier
		// snapshot of the same day, and say so before the long run.
		path = fmt.Sprintf("BENCH_%s.json", date)
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			return "", fmt.Errorf("%s already exists; choose another name with -o", path)
		}
	} else {
		f, err = os.Create(path)
	}
	if err != nil {
		return "", err
	}
	// Until the snapshot is written the file is only a reservation: drop
	// it on any failure, a panicking benchmark included.
	written := false
	defer func() {
		if !written {
			f.Close()
			os.Remove(path)
		}
	}()

	snap := Snapshot{
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
	}
	for _, bench := range benches {
		fmt.Fprintf(os.Stderr, "benchjson: running %s...\n", bench.name)
		r := benchAtLeast(bench.minIter, func() testing.BenchmarkResult { return testing.Benchmark(bench.fn) })
		res := Result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			MsPerOp:     float64(r.NsPerOp()) / 1e6,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = map[string]float64{}
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		snap.Benchmarks = append(snap.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "benchjson: %s %d ops, %.3f ms/op, %d B/op, %d allocs/op\n",
			bench.name, r.N, float64(r.NsPerOp())/1e6, r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	buf = append(buf, '\n')
	if _, err := f.Write(buf); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	written = true
	return path, nil
}

// benchAtLeast calls run (one testing.Benchmark of a body) until the runs
// have timed at least minIter ops in total, and sums their ops, time and
// allocations into one result; the reported metrics are the last run's.
// A failed run (0 ops) ends the loop.
func benchAtLeast(minIter int, run func() testing.BenchmarkResult) testing.BenchmarkResult {
	var sum testing.BenchmarkResult
	for {
		r := run()
		sum.N += r.N
		sum.T += r.T
		sum.MemAllocs += r.MemAllocs
		sum.MemBytes += r.MemBytes
		sum.Extra = r.Extra
		if r.N == 0 || sum.N >= minIter {
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
