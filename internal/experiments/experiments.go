// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I–III, Figures 3 and 5–8). Each experiment computes
// a structured result that its text renderer and CSV emitter both render.
// Every simulation cell of a figure matrix or sweep goes through one
// sim.RunAll call, which gangs cells when they outnumber the workers.
//
// Absolute numbers come from this repository's simulator, not the authors'
// testbed; EXPERIMENTS.md records the shape comparison against the paper.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/platform"
	"repro/internal/rcnet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stepper"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options tunes experiment fidelity. The zero value is invalid; use
// DefaultOptions or QuickOptions.
type Options struct {
	// GridNX, GridNY set the thermal grid resolution.
	GridNX, GridNY int
	// Duration and Warmup per simulation run.
	Duration, Warmup units.Second
	// Seed for the workload generators.
	Seed int64
	// Workloads restricts the benchmark set (nil = all of Table II).
	Workloads []string
	// Workers is the slot count of each matrix's sim.RunAll call; ≤ 0
	// selects runtime.NumCPU(). Cells beyond the slots run in lock-step
	// gangs. Every scenario owns its model and RNG (seeded from Seed, not
	// from the worker), a ganged run is bit-identical to its solo run,
	// and results are collected in input order, so tables, figures and
	// CSV output are byte-identical for every worker count.
	Workers int
	// Stepping selects the time-advance engine for every simulation run
	// of the experiment. The zero value is the fixed base-tick loop;
	// stepper.Adaptive trades ≤ tolerance temperature error for long
	// thermal macro-steps through quiet stretches.
	Stepping stepper.Config
	// Cache shares built platform artifacts (grid, solver analysis, LUT,
	// weight tables) across experiment calls — cmd/repro sets one cache
	// for its whole figure sweep. Nil gives every experiment call a
	// private cache, which still deduplicates within the call.
	Cache *platform.Cache
}

// DefaultOptions reproduces the figures at full fidelity (minutes of CPU).
func DefaultOptions() Options {
	return Options{GridNX: 23, GridNY: 20, Duration: 60, Warmup: 5, Seed: 1}
}

// QuickOptions is a reduced-fidelity configuration for tests and smoke
// runs.
func QuickOptions() Options {
	return Options{
		GridNX: 12, GridNY: 10, Duration: 15, Warmup: 3, Seed: 1,
		Workloads: []string{"Web-high", "Web-med", "gzip"},
	}
}

func (o Options) benchmarks() ([]workload.Benchmark, error) {
	if o.Workloads == nil {
		return workload.TableII, nil
	}
	var out []workload.Benchmark
	for _, name := range o.Workloads {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// cacheOrNew returns the platform cache every model, LUT and weight
// analysis of one experiment call goes through: the shared one when the
// caller set Options.Cache, otherwise a private per-call cache. Either
// way each (layers, cooling class, grid, solver) platform — and each of
// its artifacts — is built at most once and read concurrently by the
// scenario workers.
func (o Options) cacheOrNew() *platform.Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return platform.NewCache(0)
}

// spec is the platform key of one experiment configuration.
func (o Options) spec(layers int, liquid bool) platform.Spec {
	return platform.Spec{
		Layers: layers, Liquid: liquid,
		GridNX: o.GridNX, GridNY: o.GridNY,
		RC: rcnet.DefaultConfig(),
	}
}

// Combo names one policy/cooling configuration as the paper labels them.
type Combo struct {
	Label   string
	Cooling sim.CoolingMode
	Policy  sched.Policy
}

// Fig6Combos lists the seven configurations of Figs. 6 and 7, in the
// paper's bar order. (*) marks the paper's novel policy.
func Fig6Combos() []Combo {
	return []Combo{
		{"LB (Air)", sim.Air, sched.LB},
		{"Mig. (Air)", sim.Air, sched.Migration},
		{"TALB (Air)", sim.Air, sched.TALB},
		{"LB (Max)", sim.LiquidMax, sched.LB},
		{"Mig. (Max)", sim.LiquidMax, sched.Migration},
		{"TALB (Max)", sim.LiquidMax, sched.TALB},
		{"TALB (Var)*", sim.LiquidVar, sched.TALB},
	}
}

// Fig8Combos lists the five configurations of Fig. 8, each a row of
// Fig6Combos; Fig8 selects them from Fig. 6's result.
func Fig8Combos() []Combo {
	return []Combo{
		{"LB (Air)", sim.Air, sched.LB},
		{"Mig. (Air)", sim.Air, sched.Migration},
		{"TALB (Air)", sim.Air, sched.TALB},
		{"LB (Max)", sim.LiquidMax, sched.LB},
		{"TALB (Var)*", sim.LiquidVar, sched.TALB},
	}
}

// config builds one cell of an experiment matrix: combo on bench, run on
// the shared platform p (whose spec fixes the stack and its thermal
// boundary config).
func (o Options) config(p *platform.Platform, combo Combo, bench workload.Benchmark, dpmOn bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cooling = combo.Cooling
	cfg.Policy = combo.Policy
	cfg.Bench = bench
	cfg.Seed = o.Seed
	cfg.Duration = o.Duration
	cfg.Warmup = o.Warmup
	cfg.DPMEnabled = dpmOn
	cfg.Stepper = o.Stepping
	cfg.Platform = p
	return cfg
}

// writeTable renders rows of equal length under a header.
func writeTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	fmt.Fprintln(w)
}
