// Command coolsim runs one or more (system, cooling, policy, workload)
// simulations and prints their thermal, energy and performance reports.
//
// Usage:
//
//	coolsim -layers 2 -cooling var -policy talb -workload Web-high -duration 60
//	coolsim -workload Web-high,Web-med,gzip -workers 4   # parallel batch
//
// A comma-separated -workload list runs one simulation per benchmark on a
// worker pool (-workers, default NumCPU); reports print in list order and
// are identical to running each workload on its own.
//
// Ctrl-C (SIGINT) or SIGTERM cancels the run context: every in-flight
// simulation aborts within one simulated tick and coolsim exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/coolsim"
)

func main() {
	sc := coolsim.DefaultScenario()
	flag.IntVar(&sc.Layers, "layers", sc.Layers, "stack layers (2 or 4)")
	flag.StringVar(&sc.Cooling, "cooling", sc.Cooling, "cooling mode: air|max|var")
	flag.StringVar(&sc.Policy, "policy", sc.Policy, "scheduling policy: lb|mig|talb")
	flag.StringVar(&sc.Workload, "workload", sc.Workload,
		"Table II benchmark (comma-separated for a parallel batch): "+strings.Join(coolsim.Workloads(), "|"))
	flag.Float64Var(&sc.Duration, "duration", sc.Duration, "measured simulation seconds")
	flag.Float64Var(&sc.Warmup, "warmup", sc.Warmup, "warm-up seconds (excluded from metrics)")
	flag.Int64Var(&sc.Seed, "seed", sc.Seed, "workload trace seed")
	flag.BoolVar(&sc.DPM, "dpm", sc.DPM, "enable fixed-timeout dynamic power management")
	flag.IntVar(&sc.GridNX, "nx", 23, "thermal grid cells in x")
	flag.IntVar(&sc.GridNY, "ny", 20, "thermal grid cells in y")
	flag.StringVar(&sc.Stepping.Mode, "stepper", "fixed",
		"time-advance engine: fixed (paper's 100 ms lock-step)|adaptive (thermal macro-steps through quiet phases)")
	flag.Float64Var(&sc.Stepping.ToleranceC, "step-tol", 0,
		"adaptive stepping: per-macro-step temperature error bound in C (0 = default 0.05)")
	flag.Float64Var(&sc.Stepping.MaxStepS, "step-max", 0,
		"adaptive stepping: longest thermal macro-step in seconds (0 = default 1.6)")
	flag.IntVar(&sc.ControlEvery, "control-every", 0,
		"flow-controller decision period in base ticks (0 = default 1: a decision every tick)")
	trace := flag.String("trace", "", "write a per-tick CSV trace to this file (single workload only)")
	workers := flag.Int("workers", 0, "worker goroutines for a multi-workload batch (0 = NumCPU)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "coolsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "coolsim:", err)
		os.Exit(1)
	}

	var names []string
	for _, name := range strings.Split(sc.Workload, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 1 {
		sc.Workload = names[0]
	}
	if len(names) > 1 {
		if *trace != "" {
			fmt.Fprintln(os.Stderr, "coolsim: -trace requires a single -workload")
			os.Exit(1)
		}
		scs := make([]coolsim.Scenario, len(names))
		for i, name := range names {
			scs[i] = sc
			scs[i].Workload = name
		}
		reports, err := coolsim.RunMany(ctx, scs, coolsim.WithWorkers(*workers))
		if err != nil {
			fail(err)
		}
		for _, r := range reports {
			r.WriteSummary(os.Stdout)
		}
		return
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		report, err := coolsim.RunTraced(ctx, sc, f)
		if err != nil {
			fail(err)
		}
		report.WriteSummary(os.Stdout)
		return
	}
	report, err := coolsim.Run(ctx, sc)
	if err != nil {
		fail(err)
	}
	report.WriteSummary(os.Stdout)
}
