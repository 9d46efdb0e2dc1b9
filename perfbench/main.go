// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the public layers of the simulator, checks every
// operation's output against a recorded reference, and prints the
// metrics as one JSON object on the last line of standard output.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-res --seed 1 --seconds 40 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	paper-res  Session.Step of a 2-layer Max-flow run at the paper's 115×100 grid
//	sweep      coolsim.RunMany batches over the paper's evaluation matrix at 23×20
//
// With --trace 1 the run alternates traced and untraced operations and
// probes the platform, sim, rcnet and mat layers on the workload's own
// platform; the sweep's traced run also drives a coolserved daemon for
// the service and campaign layers. It writes the spans to .bench_build/
// and prints the per-layer metrics instead.
//
// -record FILE runs every scenario a workload or the service probe can
// draw and writes the reference the output check compares against.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/coolsim"
)

var bg = context.Background()

// options carries the command line into a workload.
type options struct {
	seed       int64
	seconds    float64
	tracer     *tracer // nil unless --trace 1
	coolserved string
	workdir    string
	ref        reference
}

// traced reports whether operation op records spans: with tracing on,
// odd operations are traced and even ones are not, so the same run
// measures the tracing overhead.
func (o *options) traced(op int64) bool { return o.tracer != nil && op%2 == 1 }

// opTracer returns the tracer operation op records into, nil if none.
func (o *options) opTracer(op int64) *tracer {
	if o.traced(op) {
		return o.tracer
	}
	return nil
}

const (
	// workers bounds the load: the host under test has nproc = 2, and
	// every workload drives at most this many threads or connections.
	workers = 2
	// minOps is the fewest timed operations a run makes, so at least 20
	// samples lie beyond the p90 latency.
	minOps = 220
)

// outcome is what a workload measured.
type outcome struct {
	setupS  []float64 // seconds, one per set-up
	setupMB []float64 // live heap after each set-up
	lat     []float64 // ms per untraced timed operation
	latT    []float64 // ms per traced timed operation
	timedS  float64   // host seconds of the timed phase
	ticks   int64     // simulated base ticks completed while timed
	// attempted and failed count operations; a failed one errored or
	// failed the output check.
	attempted, failed int64
	// allocBytes and gcCycles are this process's allocation and GC
	// counts over the timed phase.
	allocBytes, gcCycles uint64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
}

func (out *outcome) addLat(d time.Duration, traced bool) {
	ms := float64(d) / 1e6
	if traced {
		out.latT = append(out.latT, ms)
	} else {
		out.lat = append(out.lat, ms)
	}
}

// fail counts n failed operations and reports why on standard error
// (the first few reasons only).
func (out *outcome) fail(n int64, err error) {
	if out.failed < 5 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	out.failed += n
}

// window measures one stretch of a timed phase: its host time, this
// process's allocations and GC cycles, and the platform cache's lookups
// and builds (a build there means set-up leaked into the timed phase).
type window struct {
	start time.Time
	ms    runtime.MemStats
	pc    *coolsim.PlatformCache
	cache coolsim.PlatformCacheStats
}

func startWindow(pc *coolsim.PlatformCache) *window {
	w := &window{pc: pc, cache: pc.Stats()}
	runtime.ReadMemStats(&w.ms)
	w.start = time.Now()
	return w
}

// stop adds the stretch to out.
func (w *window) stop(out *outcome) {
	out.timedS += time.Since(w.start).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.allocBytes += ms.TotalAlloc - w.ms.TotalAlloc
	out.gcCycles += uint64(ms.NumGC - w.ms.NumGC)
	c := w.pc.Stats()
	m := out.layer
	m["platform.cache_hits"] += float64(c.Hits - w.cache.Hits)
	m["platform.cache_misses"] += float64(c.Misses - w.cache.Misses)
	m["platform.lut_builds"] += float64(c.LUTBuilds - w.cache.LUTBuilds)
	m["platform.weight_builds"] += float64(c.WeightBuilds - w.cache.WeightBuilds)
}

// liveHeapMB returns the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

type workloadFunc func(ctx context.Context, o *options) (*outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"paper-res": runPaperRes,
	"sweep":     runSweep,
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload   = flag.String("workload", "", "paper-res or sweep")
		seed       = flag.Int64("seed", 1, "seed of the workload's draws")
		seconds    = flag.Float64("seconds", 15, "length of the timed phase")
		trace      = flag.Int("trace", 0, "1 runs the layer-traced variant")
		coolserved = flag.String("coolserved", "", "coolserved binary (the sweep's traced run)")
		workdir    = flag.String("workdir", ".bench_build", "directory for daemon state and traces")
		record     = flag.String("record", "", "write the output-check reference to this file and exit")
	)
	flag.Parse()
	if *record != "" {
		if err := writeReference(*record); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloadFuncs[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want paper-res or sweep)", *workload))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds %g must be positive", *seconds))
	}
	ref, err := loadReference()
	if err != nil {
		fatal(err)
	}
	o := &options{seed: *seed, seconds: *seconds, coolserved: *coolserved, workdir: *workdir, ref: ref}
	if *trace == 1 {
		o.tracer = newTracer()
	}
	printHost(*workload, *seed, *trace)

	out, err := run(bg, o)
	if err != nil {
		fatal(err)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if res.Attempted < 1 {
		fatal(fmt.Errorf("no operation was attempted"))
	}
	e2e, err := endToEnd(out)
	if err != nil {
		fatal(err)
	}
	printMetrics("end-to-end", e2e)
	fmt.Printf("# error_rate %.6g (%d of %d operations failed)\n",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	res.Metrics = e2e
	if o.tracer != nil {
		layer, err := perLayer(out)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.ndjson", *workload, *seed))
		if err := o.tracer.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("# spans written to %s\n", path)
		printSpans(o.tracer.snapshot())
		printMetrics("per-layer", layer)
		res.Metrics = layer
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEnd computes the end-to-end metrics of a run from its untraced
// operations.
func endToEnd(out *outcome) (map[string]metric, error) {
	p50, err := percentile(out.lat, 0.5)
	if err != nil {
		return nil, fmt.Errorf("lat_p50_ms: %w", err)
	}
	p90, err := percentile(out.lat, 0.9)
	if err != nil {
		return nil, fmt.Errorf("lat_p90_ms: %w", err)
	}
	vals := map[string]float64{
		"setup_s":     median(out.setupS),
		"setup_mb":    median(out.setupMB),
		"ticks_per_s": float64(out.ticks) / out.timedS,
		"lat_p50_ms":  p50,
		"lat_p90_ms":  p90,
	}
	m := make(map[string]metric, len(endToEndMetrics))
	for _, d := range endToEndMetrics {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("end-to-end metric %s not computed", d.name)
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
	fmt.Printf("# %d untraced operations over %.3f s timed; setup_s samples %v\n",
		len(out.lat), out.timedS, out.setupS)
	return m, nil
}

// perLayer assembles the per-layer metrics of a traced run: every
// declared metric, 0 for the layers this workload bypasses.
func perLayer(out *outcome) (map[string]metric, error) {
	vals := out.layer
	ticks := float64(out.ticks)
	if ticks > 0 {
		vals["runtime.alloc_mb_per_ktick"] = float64(out.allocBytes) / 1e6 / (ticks / 1000)
	}
	vals["runtime.gc_cycles"] = float64(out.gcCycles)
	traced, err := percentile(out.latT, 0.5)
	if err != nil {
		return nil, fmt.Errorf("traced p50: %w", err)
	}
	untraced, err := percentile(out.lat, 0.5)
	if err != nil {
		return nil, fmt.Errorf("untraced p50: %w", err)
	}
	vals["trace.overhead_ms"] = traced - untraced
	vals["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	m := make(map[string]metric, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		delete(vals, d.name)
	}
	for name := range vals {
		return nil, fmt.Errorf("per-layer metric %s is not declared", name)
	}
	return m, nil
}

// printMetrics prints m in declaration order, which groups the
// per-layer metrics by layer.
func printMetrics(kind string, m map[string]metric) {
	decl := endToEndMetrics
	if kind == "per-layer" {
		decl = perLayerMetrics
	}
	for _, d := range decl {
		if v, ok := m[d.name]; ok {
			fmt.Printf("# %s %-28s %14.6g %s\n", kind, d.name, v.Value, v.Unit)
		}
	}
}

// printHost prints the header: what ran, and on which host.
func printHost(workload string, seed int64, trace int) {
	fmt.Printf("# perfbench workload=%s seed=%d trace=%d\n", workload, seed, trace)
	fmt.Printf("# host cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// cpuModel returns the CPU model name from /proc/cpuinfo, "unknown" if
// it cannot be read.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
