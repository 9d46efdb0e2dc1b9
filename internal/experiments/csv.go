package experiments

import (
	"encoding/csv"
	"io"
	"math"
	"strconv"
)

// CSV emitters for the figure data series, for plotting outside Go. Each
// writes one table with a header row; floats use enough precision to
// round-trip.

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// Fig3CSV writes Fig3's pump operating points.
func Fig3CSV(w io.Writer, rows []Fig3Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"setting", "pump_flow_lph", "per_cavity_2layer_mlmin", "per_cavity_4layer_mlmin", "power_w"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			strconv.Itoa(int(r.Setting)), fstr(r.PumpFlowLPH),
			fstr(r.PerCavity2LayerML), fstr(r.PerCavity4LayerML), fstr(r.PowerW),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fig5CSV writes Fig5's required-flow curves for both stacks.
func Fig5CSV(w io.Writer, results []Fig5Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"layers", "power_scale", "tmax_observed_c", "required_flow_mlmin", "required_setting", "setting_flow_mlmin"}); err != nil {
		return err
	}
	for _, res := range results {
		for _, r := range res.Rows {
			req := ""
			if !math.IsNaN(r.RequiredFlowML) {
				req = fstr(r.RequiredFlowML)
			}
			if err := cw.Write([]string{
				strconv.Itoa(res.Layers), fstr(r.PowerScale),
				fstr(float64(r.TmaxObserved)), req,
				strconv.Itoa(int(r.RequiredSetting)), fstr(r.SettingFlowML),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ComboCSV writes a policy-comparison result: Figs. 6–8 and the Fig. 6
// layer extension share the schema.
func ComboCSV(w io.Writer, res []ComboResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"policy", "hot_avg_pct", "hot_max_pct", "grad_avg_pct", "grad_max_pct",
		"cycle_avg_pct", "cycle_max_pct", "chip_energy_j", "pump_energy_j",
		"norm_chip", "norm_pump", "norm_perf", "mean_response_s",
	}); err != nil {
		return err
	}
	for _, r := range res {
		if err := cw.Write([]string{
			r.Combo.Label,
			fstr(r.AvgHotPct), fstr(r.MaxHotPct),
			fstr(r.AvgGradPct), fstr(r.MaxGradPct),
			fstr(r.AvgCyclePct), fstr(r.MaxCyclePct),
			fstr(r.ChipEnergy), fstr(r.PumpEnergy),
			fstr(r.NormChip), fstr(r.NormPump), fstr(r.NormPerf),
			fstr(r.MeanResponse),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
