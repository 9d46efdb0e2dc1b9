package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/controller"
	"repro/internal/par"
	"repro/internal/platform"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/sim"
	"repro/internal/units"
)

// Fig5Row is one point of Fig. 5: the flow required to cool a system
// observed at TmaxObserved back below the target temperature.
type Fig5Row struct {
	// PowerScale is the underlying load (fraction of full load).
	PowerScale float64
	// TmaxObserved is the steady maximum temperature at the lowest pump
	// setting — what the system would heat up to if the controller did
	// not react (the figure's x-axis).
	TmaxObserved units.Celsius
	// RequiredFlowML is the minimum continuous per-cavity flow (ml/min)
	// holding the target, found by bisection; NaN when even the maximum
	// deliverable flow cannot.
	RequiredFlowML float64
	// RequiredSetting is the minimum discrete pump setting (the dashed
	// staircase in the figure).
	RequiredSetting pump.Setting
	// SettingFlowML is that setting's delivered per-cavity flow.
	SettingFlowML float64
}

// Fig5Result holds one stack's required-flow curve.
type Fig5Result struct {
	Layers int
	Rows   []Fig5Row
}

// Fig5 regenerates the flow-requirement analysis for the 2- and 4-layer
// systems. The two stacks are independent bisection studies on scratch
// models — steady-state solves, not simulation runs, so they have nothing
// to gang and fan out through par.ForEach rather than sim.RunAll, one
// job per stack with per-index result slots.
func Fig5(ctx context.Context, o Options) ([]Fig5Result, error) {
	stacks := []int{2, 4}
	out := make([]Fig5Result, len(stacks))
	cache := o.cacheOrNew()
	err := par.ForEach(ctx, o.Workers, len(stacks), func(si int) error {
		p, err := cache.Get(o.spec(stacks[si], true))
		if err != nil {
			return err
		}
		// The bisection sweeps mutate model state, so this study gets its
		// own model — with private factors: its steady-state key is set-up
		// scratch, not a run model's. Every flow the bisection probes
		// gives the same steady matrix, so the study factorizes once.
		m, err := p.NewScratchModel(ctx)
		if err != nil {
			return err
		}
		out[si], err = fig5Stack(ctx, p, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fig5Stack runs one stack's bisection study on m, a model of p; the LUT
// and full-load map come warm from the platform.
func fig5Stack(ctx context.Context, p *platform.Platform, m *rcnet.Model) (Fig5Result, error) {
	layers := p.Spec().Layers
	res := Fig5Result{Layers: layers}
	pm := p.Pump()
	lut, err := p.LUT(ctx)
	if err != nil {
		return res, err
	}
	full, err := p.FullLoadPowers(ctx)
	if err != nil {
		return res, err
	}
	maxFlow := float64(pm.PerCavityFlow(pump.MaxSetting()))
	for k, lambda := range lut.Ladder {
		if lambda == 0 {
			continue
		}
		scaled := make([][]float64, len(full))
		for li := range full {
			scaled[li] = make([]float64, len(full[li]))
			for bi := range full[li] {
				scaled[li][bi] = full[li][bi] * lambda
			}
			if err := m.SetLayerPower(li, scaled[li]); err != nil {
				return res, err
			}
		}
		tmaxAt := func(flowLPM float64) (units.Celsius, error) {
			if err := m.SetFlow(units.LitersPerMinute(flowLPM)); err != nil {
				return 0, err
			}
			if err := m.SteadyState(); err != nil {
				return 0, fmt.Errorf("fig5: %d-layer load %.2f flow %.4f l/min: %w",
					layers, lambda, flowLPM, err)
			}
			return m.MaxDieTemp().ToCelsius(), nil
		}
		required, err := bisectFlow(tmaxAt, lut.Target, 0.005, maxFlow)
		if err != nil {
			return res, err
		}
		row := Fig5Row{
			PowerScale:      lambda,
			TmaxObserved:    lut.TmaxAt[0][k],
			RequiredSetting: lut.Required[k],
			SettingFlowML:   pm.PerCavityFlow(lut.Required[k]).MilliLitersPerMinute(),
		}
		if math.IsNaN(required) {
			row.RequiredFlowML = math.NaN()
		} else {
			row.RequiredFlowML = units.LitersPerMinute(required).MilliLitersPerMinute()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// bisectFlow finds the minimum flow (l/min) with tmaxAt(flow) ≤ target.
// Returns lo if already sufficient, NaN if hi is insufficient.
func bisectFlow(tmaxAt func(float64) (units.Celsius, error), target units.Celsius, lo, hi float64) (float64, error) {
	tLo, err := tmaxAt(lo)
	if err != nil {
		return 0, err
	}
	if tLo <= target {
		return lo, nil
	}
	tHi, err := tmaxAt(hi)
	if err != nil {
		return 0, err
	}
	if tHi > target {
		return math.NaN(), nil
	}
	for i := 0; i < 24 && hi-lo > 1e-4; i++ {
		mid := 0.5 * (lo + hi)
		tm, err := tmaxAt(mid)
		if err != nil {
			return 0, err
		}
		if tm <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// WriteFig5 renders the required-flow analysis Fig5 computed.
func WriteFig5(w io.Writer, results []Fig5Result) {
	for _, res := range results {
		rows := make([][]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			req := "—(needs > max)"
			if !math.IsNaN(r.RequiredFlowML) {
				req = fmt.Sprintf("%.0f", r.RequiredFlowML)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.1f", r.PowerScale),
				celsius(r.TmaxObserved),
				req,
				fmt.Sprintf("%d", r.RequiredSetting),
				fmt.Sprintf("%.0f", r.SettingFlowML),
			})
		}
		writeTable(w, fmt.Sprintf("FIG 5. Flow required to cool Tmax below %.0f °C (%d-layer)",
			float64(controller.TargetTemp), res.Layers),
			[]string{"Load", "Tmax@min-flow (°C)", "Min flow (ml/min)", "Setting", "Setting flow (ml/min)"},
			rows)
	}
}

// ComboResult aggregates one policy/cooling configuration across the
// workload set.
type ComboResult struct {
	Combo Combo
	// Per-workload reports in benchmark order.
	PerWorkload []*sim.Result
	// AvgHotPct and MaxHotPct across workloads (Fig. 6's bars).
	AvgHotPct, MaxHotPct float64
	// AvgGradPct / MaxGradPct and AvgCyclePct / MaxCyclePct (Fig. 7).
	AvgGradPct, MaxGradPct   float64
	AvgCyclePct, MaxCyclePct float64
	// ChipEnergy and PumpEnergy summed over workloads (J).
	ChipEnergy, PumpEnergy float64
	// Throughput summed over workloads (threads/s).
	Throughput float64
	// MeanResponse averaged over workloads (s): thread sojourn time,
	// the latency view of the migration penalty.
	MeanResponse float64
	// NormChip, NormPump, NormPerf are normalized to the first combo
	// (LB (Air)); pump energy is normalized to the same chip base, as in
	// Fig. 6's shared right axis.
	NormChip, NormPump, NormPerf float64
}

// runMatrix executes a combo × workload matrix and aggregates. Every
// (combo, workload) cell is one config of a single sim.RunAll call, which
// gangs cells sharing a platform when they outnumber the worker slots;
// results land in per-index slots, so aggregation order — and hence
// every rendered table and CSV byte — is identical for any worker count.
func (o Options) runMatrix(ctx context.Context, layers int, combos []Combo, dpmOn bool) ([]ComboResult, error) {
	benches, err := o.benchmarks()
	if err != nil {
		return nil, err
	}
	cache := o.cacheOrNew()
	cfgs := make([]sim.Config, 0, len(combos)*len(benches))
	for _, combo := range combos {
		p, err := cache.Get(o.spec(layers, combo.Cooling != sim.Air))
		if err != nil {
			return nil, err
		}
		for _, b := range benches {
			cfgs = append(cfgs, o.config(p, combo, b, dpmOn))
		}
	}
	nb := len(benches)
	runs, err := sim.RunAll(ctx, cfgs, o.Workers)
	if err != nil {
		return nil, cellError(ctx, err, runs, func(i int) string {
			return fmt.Sprintf("%s on %s", combos[i/nb].Label, benches[i%nb].Name)
		})
	}
	out := make([]ComboResult, 0, len(combos))
	for ci, combo := range combos {
		cr := ComboResult{Combo: combo, MaxHotPct: 0}
		for bi := range benches {
			r := runs[ci*nb+bi]
			cr.PerWorkload = append(cr.PerWorkload, r)
			cr.AvgHotPct += r.HotSpotPct
			cr.MaxHotPct = math.Max(cr.MaxHotPct, r.HotSpotPct)
			cr.AvgGradPct += r.GradientPct
			cr.MaxGradPct = math.Max(cr.MaxGradPct, r.GradientPct)
			cr.AvgCyclePct += r.CyclePct
			cr.MaxCyclePct = math.Max(cr.MaxCyclePct, r.CyclePct)
			cr.ChipEnergy += float64(r.ChipEnergy)
			cr.PumpEnergy += float64(r.PumpEnergy)
			cr.Throughput += r.Throughput
			cr.MeanResponse += float64(r.MeanResponse)
		}
		n := float64(len(benches))
		cr.AvgHotPct /= n
		cr.AvgGradPct /= n
		cr.AvgCyclePct /= n
		cr.MeanResponse /= n
		out = append(out, cr)
	}
	base := out[0]
	for i := range out {
		out[i].NormChip = out[i].ChipEnergy / base.ChipEnergy
		out[i].NormPump = out[i].PumpEnergy / base.ChipEnergy
		out[i].NormPerf = out[i].Throughput / base.Throughput
	}
	return out, nil
}

// cellError names the failed cell of a sim.RunAll batch. RunAll fills
// the result of every cell that succeeded, so the lowest empty slot is
// the first failed cell. RunAll returns that cell's error as long as each
// gang holds consecutive cells, as it does when the cells are laid out
// platform by platform, like every batch here. A canceled run is
// returned as is.
func cellError(ctx context.Context, err error, runs []*sim.Result, name func(i int) string) error {
	if ctx.Err() != nil {
		return err
	}
	for i, r := range runs {
		if r == nil {
			return fmt.Errorf("experiments: %s: %w", name(i), err)
		}
	}
	return err
}

// Fig6 regenerates the hot-spot and energy comparison (2-layer system, no
// DPM, all policies).
func Fig6(ctx context.Context, o Options) ([]ComboResult, error) {
	return o.runMatrix(ctx, 2, Fig6Combos(), false)
}

// Fig6Layers is the layer-count-parameterized extension of Fig. 6 (the
// paper evaluates 2- and 4-layer systems; its figures show the 2-layer).
func Fig6Layers(ctx context.Context, o Options, layers int) ([]ComboResult, error) {
	return o.runMatrix(ctx, layers, Fig6Combos(), false)
}

// writeHotEnergy renders the hot-spot and energy table of Fig. 6 and its
// layer extension.
func writeHotEnergy(w io.Writer, title string, res []ComboResult) {
	rows := make([][]string, 0, len(res))
	for _, r := range res {
		rows = append(rows, []string{
			r.Combo.Label,
			fmt.Sprintf("%.1f", r.AvgHotPct),
			fmt.Sprintf("%.1f", r.MaxHotPct),
			fmt.Sprintf("%.3f", r.NormChip),
			fmt.Sprintf("%.3f", r.NormPump),
			fmt.Sprintf("%.3f", r.NormChip+r.NormPump),
		})
	}
	writeTable(w, title,
		[]string{"Policy", "HotSpots avg (%>85C)", "HotSpots max (%)", "Energy chip", "Energy pump", "Energy total"},
		rows)
}

// WriteFig6 renders Fig. 6 from Fig6's result.
func WriteFig6(w io.Writer, res []ComboResult) {
	writeHotEnergy(w, "FIG 6. Hot spots and energy, 2-layer system (energy normalized to LB (Air) chip energy)", res)
	// Headline deltas vs the worst-case flow baseline.
	var lbMax, talbVar *ComboResult
	for i := range res {
		switch res[i].Combo.Label {
		case "LB (Max)":
			lbMax = &res[i]
		case "TALB (Var)*":
			talbVar = &res[i]
		}
	}
	if lbMax != nil && talbVar != nil && lbMax.PumpEnergy > 0 {
		coolSave := 100 * (1 - talbVar.PumpEnergy/lbMax.PumpEnergy)
		totSave := 100 * (1 - (talbVar.ChipEnergy+talbVar.PumpEnergy)/(lbMax.ChipEnergy+lbMax.PumpEnergy))
		fmt.Fprintf(w, "TALB (Var) vs LB (Max): cooling energy -%.1f%%, total energy -%.1f%%\n\n", coolSave, totSave)
	}
}

// WriteFig6Layers renders the layer-parameterized Fig. 6 extension from
// Fig6Layers' result.
func WriteFig6Layers(w io.Writer, layers int, res []ComboResult) {
	writeHotEnergy(w, fmt.Sprintf("FIG 6 extension: hot spots and energy, %d-layer system", layers), res)
}

// Fig7 regenerates the thermal-variation comparison (with DPM).
func Fig7(ctx context.Context, o Options) ([]ComboResult, error) {
	return o.runMatrix(ctx, 2, Fig6Combos(), true)
}

// WriteFig7 renders Fig. 7 from Fig7's result.
func WriteFig7(w io.Writer, res []ComboResult) {
	rows := make([][]string, 0, len(res))
	for _, r := range res {
		rows = append(rows, []string{
			r.Combo.Label,
			fmt.Sprintf("%.1f", r.AvgGradPct),
			fmt.Sprintf("%.1f", r.MaxGradPct),
			fmt.Sprintf("%.2f", r.AvgCyclePct),
			fmt.Sprintf("%.2f", r.MaxCyclePct),
		})
	}
	writeTable(w, "FIG 7. Thermal variations with DPM, 2-layer system",
		[]string{"Policy", "Grad>15C avg (%)", "Grad>15C max (%)", "Cycles>20C avg (%)", "Cycles>20C max (%)"},
		rows)
}

// Fig8 regenerates the performance and energy comparison. Its matrix is
// five rows of Fig. 6's (the same 2-layer, no-DPM runs, normalized to the
// same LB (Air) base), so Fig8 selects the Fig8Combos rows from fig6, a
// Fig6 result, instead of simulating them again.
func Fig8(fig6 []ComboResult) ([]ComboResult, error) {
	out := make([]ComboResult, 0, len(Fig8Combos()))
	for _, c := range Fig8Combos() {
		i := slices.IndexFunc(fig6, func(r ComboResult) bool { return r.Combo == c })
		if i < 0 {
			return nil, fmt.Errorf("experiments: fig8: %s missing from the fig6 result", c.Label)
		}
		out = append(out, fig6[i])
	}
	return out, nil
}

// WriteFig8 renders Fig. 8 from Fig8's result.
func WriteFig8(w io.Writer, res []ComboResult) {
	rows := make([][]string, 0, len(res))
	for _, r := range res {
		rows = append(rows, []string{
			r.Combo.Label,
			fmt.Sprintf("%.3f", r.NormChip),
			fmt.Sprintf("%.3f", r.NormPump),
			fmt.Sprintf("%.3f", r.NormPerf),
			fmt.Sprintf("%.1f", r.MeanResponse*1000),
		})
	}
	writeTable(w, "FIG 8. Performance and energy (normalized to LB (Air))",
		[]string{"Policy", "Chip energy", "Pump energy", "Performance", "Mean response (ms)"},
		rows)
}
