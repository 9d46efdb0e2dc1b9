// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro                      # everything at full fidelity
//	repro -exp fig6            # one experiment
//	repro -quick               # reduced fidelity (seconds instead of minutes)
//	repro -exp tab1,tab2,fig3  # a comma-separated subset
//
// Experiments: tab1 tab2 tab3 fig3 fig5 fig6 fig7 fig8 (all); extensions
// fig6x4 inlet. Each figure's text and CSV render one computed result.
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
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/stepper"
)

// known lists every -exp name in output order: the paper's eight, which
// "all" selects, then the extensions, which run only when named.
var known = []string{"tab1", "tab2", "tab3", "fig3", "fig5", "fig6", "fig7", "fig8", "fig6x4", "inlet"}

// parseExps turns the -exp list into the set of experiments to run.
// Names are trimmed; an unknown name is an error.
func parseExps(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		switch e = strings.TrimSpace(e); {
		case e == "all":
			for _, k := range known[:8] {
				want[k] = true
			}
		case slices.Contains(known, e):
			want[e] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q (known: all %s)", e, strings.Join(known, " "))
		}
	}
	return want, nil
}

var csvDir = flag.String("csv", "", "also write machine-readable CSV files into this directory")

func fail(name string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "repro: interrupted")
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "repro: %s: %v\n", name, err)
	os.Exit(1)
}

// show prints a computed figure and, with -csv, writes its CSV file (csv
// may be nil): text and CSV render the same result.
func show[T any](name string, res T, err error, text func(io.Writer, T), csv func(io.Writer, T) error) {
	if err != nil {
		fail(name, err)
	}
	text(os.Stdout, res)
	if *csvDir == "" || csv == nil {
		return
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		fail(name, err)
	}
	file, err := os.Create(filepath.Join(*csvDir, name+".csv"))
	if err == nil {
		err = csv(file, res)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(name, err)
	}
}

func main() {
	var (
		exp = flag.String("exp", "all",
			"experiments to run (comma-separated): tab1,tab2,tab3,fig3,fig5,fig6,fig7,fig8 or all; extensions: fig6x4, inlet")
		quick   = flag.Bool("quick", false, "reduced fidelity (coarser grid, shorter runs, 3 workloads)")
		workers = flag.Int("workers", 0,
			"scenario-level worker goroutines (0 = NumCPU); output is byte-identical for any value")
		stepperMode = flag.String("stepper", "fixed",
			"time-advance engine for every simulation run: fixed (paper-exact)|adaptive (thermal macro-steps, <=0.05C tolerance)")
	)
	flag.Parse()

	want, err := parseExps(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}

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
	kind, err := stepper.ParseKind(*stepperMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	opt.Stepping.Kind = kind

	if want["tab1"] {
		experiments.WriteTableI(os.Stdout)
	}
	if want["tab2"] {
		experiments.WriteTableII(os.Stdout)
	}
	if want["tab3"] {
		experiments.WriteTableIII(os.Stdout)
	}
	if want["fig3"] {
		res, err := experiments.Fig3()
		show("fig3", res, err, experiments.WriteFig3, experiments.Fig3CSV)
	}
	if want["fig5"] {
		res, err := experiments.Fig5(ctx, opt)
		show("fig5", res, err, experiments.WriteFig5, experiments.Fig5CSV)
	}
	// Fig. 8 is five rows of Fig. 6's matrix: one run serves both.
	var fig6 []experiments.ComboResult
	if want["fig6"] || want["fig8"] {
		if fig6, err = experiments.Fig6(ctx, opt); err != nil {
			fail("fig6", err)
		}
	}
	if want["fig6"] {
		show("fig6", fig6, nil, experiments.WriteFig6, experiments.ComboCSV)
	}
	if want["fig7"] {
		res, err := experiments.Fig7(ctx, opt)
		show("fig7", res, err, experiments.WriteFig7, experiments.ComboCSV)
	}
	if want["fig8"] {
		res, err := experiments.Fig8(fig6)
		show("fig8", res, err, experiments.WriteFig8, experiments.ComboCSV)
	}
	// Extension: the 4-layer variant of Fig. 6 (not in the paper's
	// figures, but its systems section evaluates both stacks).
	if want["fig6x4"] {
		res, err := experiments.Fig6Layers(ctx, opt, 4)
		show("fig6x4", res, err, func(w io.Writer, r []experiments.ComboResult) {
			experiments.WriteFig6Layers(w, 4, r)
		}, nil)
	}
	// Extension: sensitivity of the headline savings to the coolant
	// inlet temperature (the calibration decision in EXPERIMENTS.md).
	if want["inlet"] {
		const bench = "Web-med"
		rows, err := experiments.InletSweep(ctx, opt, bench, []float64{50, 60, 65, 70, 72})
		show("inlet", rows, err, func(w io.Writer, r []experiments.InletSweepRow) {
			experiments.WriteInletSweep(w, bench, r)
		}, nil)
	}
}
