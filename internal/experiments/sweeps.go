package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/par"
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
	// Each inlet temperature is a self-contained study: a distinct
	// platform spec (its own RC config), whose LUT/weights/model are
	// built once and shared by the inlet's pair of runs. The sweep fans
	// out one job per inlet; rows land in per-index slots to keep the
	// output order fixed.
	out := make([]InletSweepRow, len(inletsC))
	cache := o.cacheOrNew()
	err = par.ForEach(ctx, o.Workers, len(inletsC), func(ii int) error {
		inlet := inletsC[ii]
		spec := o.spec(2, true)
		spec.RC.CoolantInlet = units.Celsius(inlet).ToKelvin()
		p, err := cache.Get(spec)
		if err != nil {
			return err
		}
		// Feasibility + LUT from the steady-state sweep.
		lut, err := p.LUT(ctx)
		if err != nil {
			return err
		}
		fullIdx := 0
		for k, l := range lut.Ladder {
			if l <= 1.0 {
				fullIdx = k
			}
		}
		row := InletSweepRow{
			InletC:           inlet,
			FullLoadFeasible: lut.TmaxAt[len(lut.TmaxAt)-1][fullIdx] <= lut.Target,
		}

		run := func(cooling sim.CoolingMode) (*sim.Result, error) {
			cfg := sim.DefaultConfig()
			cfg.Bench = b
			cfg.Cooling = cooling
			cfg.Policy = sched.TALB
			cfg.Seed = o.Seed
			cfg.Duration = o.Duration
			cfg.Warmup = o.Warmup
			cfg.GridNX, cfg.GridNY = o.GridNX, o.GridNY
			cfg.RC = &spec.RC
			cfg.Platform = p
			return sim.Run(ctx, cfg)
		}
		vr, err := run(sim.LiquidVar)
		if err != nil {
			return fmt.Errorf("experiments: inlet %v var: %w", inlet, err)
		}
		mx, err := run(sim.LiquidMax)
		if err != nil {
			return fmt.Errorf("experiments: inlet %v max: %w", inlet, err)
		}
		row.MeanSetting = vr.MeanSetting
		row.MaxTemp = vr.MaxTemp
		if mx.PumpEnergy > 0 {
			row.CoolingSavedPct = 100 * (1 - float64(vr.PumpEnergy)/float64(mx.PumpEnergy))
		}
		if tot := float64(mx.TotalEnergy); tot > 0 {
			row.TotalSavedPct = 100 * (1 - float64(vr.TotalEnergy)/tot)
		}
		out[ii] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WriteInletSweep renders the sweep.
func WriteInletSweep(ctx context.Context, w io.Writer, o Options, bench string, inletsC []float64) error {
	rows, err := InletSweep(ctx, o, bench, inletsC)
	if err != nil {
		return err
	}
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
	return nil
}
