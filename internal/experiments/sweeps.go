package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// InletSweepRow captures the behaviour of the variable-flow controller at
// one coolant inlet temperature.
type InletSweepRow struct {
	InletC float64
	// FullLoadFeasible reports whether maximum flow can hold the target
	// at full load.
	FullLoadFeasible bool
	// MeanSetting is the controller's time-averaged setting on the
	// sweep workload.
	MeanSetting float64
	// CoolingSavedPct and TotalSavedPct vs the max-flow baseline.
	CoolingSavedPct, TotalSavedPct float64
	// MaxTemp observed under variable flow (°C).
	MaxTemp float64
}

// InletSweep quantifies the sensitivity of the headline results to the
// coolant inlet temperature — the calibration decision EXPERIMENTS.md
// documents. Colder inlets make every pump setting sufficient (the
// controller pins to minimum and the savings saturate); warmer inlets
// squeeze the thermal budget until even maximum flow cannot hold the
// target at full load.
func InletSweep(ctx context.Context, o Options, bench string, inletsC []float64) ([]InletSweepRow, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	plats, runs, err := o.inletRuns(ctx, b, inletsC)
	if err != nil {
		return nil, err
	}
	out := make([]InletSweepRow, len(inletsC))
	for ii, p := range plats {
		// The var run built the platform's LUT; feasibility reads its
		// steady-state sweep at full load and maximum flow.
		lut, err := p.LUT(ctx)
		if err != nil {
			return nil, err
		}
		fullIdx := 0
		for k, l := range lut.Ladder {
			if l <= 1.0 {
				fullIdx = k
			}
		}
		vr, mx := runs[2*ii], runs[2*ii+1]
		row := InletSweepRow{
			InletC:           inletsC[ii],
			FullLoadFeasible: lut.TmaxAt[len(lut.TmaxAt)-1][fullIdx] <= lut.Target,
			MeanSetting:      vr.MeanSetting,
			MaxTemp:          vr.MaxTemp,
		}
		if mx.PumpEnergy > 0 {
			row.CoolingSavedPct = 100 * (1 - float64(vr.PumpEnergy)/float64(mx.PumpEnergy))
		}
		if tot := float64(mx.TotalEnergy); tot > 0 {
			row.TotalSavedPct = 100 * (1 - float64(vr.TotalEnergy)/tot)
		}
		out[ii] = row
	}
	return out, nil
}

// inletRuns simulates the sweep's cells: per inlet, TALB under variable
// and maximum flow on that inlet's platform, returned (var, max) per
// inlet alongside the platforms.
func (o Options) inletRuns(ctx context.Context, b workload.Benchmark, inletsC []float64) ([]*platform.Platform, []*sim.Result, error) {
	// Each inlet temperature is a distinct platform spec (its own RC
	// config), whose LUT, weights and factors serve that inlet's pair of
	// runs; all pairs go to one RunAll call.
	cache := o.cacheOrNew()
	plats := make([]*platform.Platform, len(inletsC))
	cfgs := make([]sim.Config, 0, 2*len(inletsC))
	for ii, inlet := range inletsC {
		spec := o.spec(2, true)
		spec.RC.CoolantInlet = units.Celsius(inlet).ToKelvin()
		p, err := cache.Get(spec)
		if err != nil {
			return nil, nil, err
		}
		plats[ii] = p
		for _, cooling := range []sim.CoolingMode{sim.LiquidVar, sim.LiquidMax} {
			cfgs = append(cfgs, o.config(p, Combo{Cooling: cooling, Policy: sched.TALB}, b, false))
		}
	}
	runs, err := sim.RunAll(ctx, cfgs, o.Workers)
	if err != nil {
		return nil, nil, cellError(ctx, err, runs, func(i int) string {
			return fmt.Sprintf("inlet %v %s", inletsC[i/2], [2]string{"var", "max"}[i%2])
		})
	}
	return plats, runs, nil
}

// WriteInletSweep renders the rows InletSweep computed for bench.
func WriteInletSweep(w io.Writer, bench string, rows []InletSweepRow) {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		feas := "yes"
		if !r.FullLoadFeasible {
			feas = "no"
		}
		out = append(out, []string{
			fmt.Sprintf("%.0f", r.InletC),
			feas,
			fmt.Sprintf("%.2f", r.MeanSetting),
			fmt.Sprintf("%.1f", r.CoolingSavedPct),
			fmt.Sprintf("%.1f", r.TotalSavedPct),
			fmt.Sprintf("%.2f", r.MaxTemp),
		})
	}
	writeTable(w, fmt.Sprintf("INLET SWEEP (%s): controller behaviour vs coolant inlet temperature", bench),
		[]string{"Inlet (°C)", "Full load feasible", "Mean setting", "Cooling saved (%)", "Total saved (%)", "Tmax (°C)"},
		out)
}
