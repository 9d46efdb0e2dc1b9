package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyOptions is the smallest configuration that still exercises every
// cooling mode and policy of the Fig. 6 matrix.
func tinyOptions(workers int) Options {
	return Options{
		GridNX: 10, GridNY: 8, Duration: 4, Warmup: 1, Seed: 1,
		Workloads: []string{"gzip"},
		Workers:   workers,
	}
}

// TestParallelMatrixDeterminism is the engine's core guarantee: the CSV
// bytes of a figure matrix are identical for workers=1 and workers=N, so
// parallelism can never change a published number. Run with -race this
// also shakes out unsynchronized sharing across scenario workers.
func TestParallelMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	csvAt := func(workers int) []byte {
		res, err := Fig6(context.Background(), tinyOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ComboCSV(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := csvAt(1), csvAt(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("CSV output differs between workers=1 and workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("empty CSV output")
	}
}

// TestParallelSweepDeterminism covers the inlet sweep the same way.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	run := func(workers int) []InletSweepRow {
		o := tinyOptions(workers)
		rows, err := InletSweep(context.Background(), o, "gzip", []float64{60, 70})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	parallel := run(3)
	if len(serial) != len(parallel) {
		t.Fatalf("row count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs: serial %+v parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestMatrixMatchesSoloRuns checks what a worker-count comparison cannot:
// with one worker slot every matrix and sweep oversubscribes, so its
// cells run in gangs at any worker count that test would compare. Each
// ganged cell must equal an independent sim.Run of the same config on a
// freshly built platform, batching counter aside.
func TestMatrixMatchesSoloRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	ctx := context.Background()
	o := tinyOptions(1)
	bench, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	batched := false
	check := func(name string, got *sim.Result, spec platform.Spec, combo Combo, dpmOn bool) {
		t.Helper()
		p, err := platform.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Cooling, cfg.Policy = combo.Cooling, combo.Policy
		cfg.Bench = bench
		cfg.Seed = o.Seed
		cfg.Duration, cfg.Warmup = o.Duration, o.Warmup
		cfg.DPMEnabled = dpmOn
		cfg.Platform = p
		want, err := sim.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.BatchedSolves > 0 {
			batched = true
		}
		g := *got
		g.BatchedSolves = 0
		if !reflect.DeepEqual(&g, want) {
			t.Errorf("%s: matrix cell differs from its solo run\n got: %+v\nwant: %+v", name, g, *want)
		}
	}
	for _, dpmOn := range []bool{false, true} {
		fig := Fig6
		if dpmOn {
			fig = Fig7
		}
		res, err := fig(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		for ci, combo := range Fig6Combos() {
			if res[ci].Combo != combo || len(res[ci].PerWorkload) != 1 {
				t.Fatalf("dpm=%v row %d: %+v", dpmOn, ci, res[ci].Combo)
			}
			check(combo.Label, res[ci].PerWorkload[0], o.spec(2, combo.Cooling != sim.Air), combo, dpmOn)
		}
	}
	inlets := []float64{60, 70}
	_, runs, err := o.inletRuns(ctx, bench, inlets)
	if err != nil {
		t.Fatal(err)
	}
	for ii, inlet := range inlets {
		spec := o.spec(2, true)
		spec.RC.CoolantInlet = units.Celsius(inlet).ToKelvin()
		for k, cooling := range []sim.CoolingMode{sim.LiquidVar, sim.LiquidMax} {
			check(cooling.String(), runs[2*ii+k], spec, Combo{Cooling: cooling, Policy: sched.TALB}, false)
		}
	}
	if !batched {
		t.Error("no cell served a batched solve: the oversubscribed matrix never ganged")
	}
}

// TestMatrixErrorsNameTheCell: a failed cell's error names its combo and
// workload, or its inlet and flow mode in the inlet sweep.
func TestMatrixErrorsNameTheCell(t *testing.T) {
	o := tinyOptions(2)
	o.Duration = 0 // every run fails at construction
	_, err := Fig6(context.Background(), o)
	if err == nil || !strings.Contains(err.Error(), "experiments: LB (Air) on gzip: sim: non-positive duration") {
		t.Errorf("Fig6 error = %v", err)
	}
	_, err = InletSweep(context.Background(), o, "gzip", []float64{60, 70})
	if err == nil || !strings.Contains(err.Error(), "experiments: inlet 60 var: sim: non-positive duration") {
		t.Errorf("InletSweep error = %v", err)
	}
}
