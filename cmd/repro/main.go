// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro                      # everything at full fidelity
//	repro -exp fig6            # one experiment
//	repro -quick               # reduced fidelity (seconds instead of minutes)
//	repro -exp tab1,tab2,fig3  # a comma-separated subset
//
// Experiments: tab1 tab2 tab3 fig3 fig5 fig6 fig7 fig8.
//
// Ctrl-C (SIGINT) or SIGTERM cancels the experiment context: in-flight
// scenario runs abort within one simulated tick and repro exits cleanly
// instead of being killed mid-sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/rcnet"
	"repro/internal/stepper"
)

func main() {
	var (
		exp = flag.String("exp", "all",
			"experiments to run (comma-separated): tab1,tab2,tab3,fig3,fig5,fig6,fig7,fig8 or all; extensions: fig6x4, inlet")
		quick   = flag.Bool("quick", false, "reduced fidelity (coarser grid, shorter runs, 3 workloads)")
		csvDir  = flag.String("csv", "", "also write machine-readable CSV files into this directory")
		workers = flag.Int("workers", 0,
			"scenario-level worker goroutines (0 = NumCPU); output is byte-identical for any value")
		solver = flag.String("solver", "auto",
			"thermal linear solver: auto (cached LDLT direct, CG fallback)|direct|cg")
		stepperMode = flag.String("stepper", "fixed",
			"time-advance engine for every simulation run: fixed (paper-exact)|adaptive (thermal macro-steps, <=0.05C tolerance)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	opt.Workers = *workers
	// One platform cache for the whole invocation: figures 5–8 share the
	// same stacks, so the LUT/weight/symbolic analyses build once total
	// instead of once per figure.
	opt.Cache = platform.NewCache(0)
	sk, err := rcnet.ParseSolver(*solver)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	opt.Solver = sk
	kind, err := stepper.ParseKind(*stepperMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	opt.Stepping.Kind = kind

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	fail := func(name string, err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "repro: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "repro: %s: %v\n", name, err)
		os.Exit(1)
	}
	run := func(name string, f func() error) {
		if !all && !want[name] {
			return
		}
		if err := f(); err != nil {
			fail(name, err)
		}
	}
	csvOut := func(name string, f func(w *os.File) error) {
		if *csvDir == "" || (!all && !want[name]) {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(name, err)
		}
		file, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			fail(name, err)
		}
		defer file.Close()
		if err := f(file); err != nil {
			fail(name, err)
		}
	}

	out := os.Stdout
	run("tab1", func() error { experiments.WriteTableI(out); return nil })
	run("tab2", func() error { experiments.WriteTableII(out); return nil })
	run("tab3", func() error { experiments.WriteTableIII(out); return nil })
	run("fig3", func() error { return experiments.WriteFig3(out) })
	csvOut("fig3", func(w *os.File) error { return experiments.Fig3CSV(w) })
	run("fig5", func() error { return experiments.WriteFig5(ctx, out, opt) })
	csvOut("fig5", func(w *os.File) error { return experiments.Fig5CSV(ctx, w, opt) })
	run("fig6", func() error { return experiments.WriteFig6(ctx, out, opt) })
	csvOut("fig6", func(w *os.File) error { return experiments.Fig6CSV(ctx, w, opt) })
	run("fig7", func() error { return experiments.WriteFig7(ctx, out, opt) })
	csvOut("fig7", func(w *os.File) error { return experiments.Fig7CSV(ctx, w, opt) })
	run("fig8", func() error { return experiments.WriteFig8(ctx, out, opt) })
	csvOut("fig8", func(w *os.File) error { return experiments.Fig8CSV(ctx, w, opt) })
	// Extension: the 4-layer variant of Fig. 6 (not in the paper's
	// figures, but its systems section evaluates both stacks).
	if want["fig6x4"] {
		if err := experiments.WriteFig6Layers(ctx, out, opt, 4); err != nil {
			fail("fig6x4", err)
		}
	}
	// Extension: sensitivity of the headline savings to the coolant
	// inlet temperature (the calibration decision in EXPERIMENTS.md).
	if want["inlet"] {
		if err := experiments.WriteInletSweep(ctx, out, opt, "Web-med",
			[]float64{50, 60, 65, 70, 72}); err != nil {
			fail("inlet", err)
		}
	}
}
