package experiments

import (
	"fmt"
	"io"

	"repro/internal/floorplan"
	"repro/internal/microchannel"
	"repro/internal/pump"
	"repro/internal/rcnet"
	"repro/internal/units"
	"repro/internal/workload"
)

// TableIRow is one parameter of the microchannel model.
type TableIRow struct {
	Parameter, Definition, Value string
}

// TableI returns the parameters of Eqn. 1's computation as implemented
// (Table I of the paper).
func TableI() []TableIRow {
	return []TableIRow{
		{"Rth-BEOL", "Thermal resistance of wiring levels",
			fmt.Sprintf("%.3f (K·mm²)/W", microchannel.RthBEOL*1e6)},
		{"tB", "BEOL thickness", fmt.Sprintf("%.0f µm", microchannel.BEOLThickness*1e6)},
		{"kBEOL", "Conductivity of wiring levels",
			fmt.Sprintf("%.2f W/(m·K)", microchannel.BEOLConductivity)},
		{"cp", "Coolant heat capacity",
			fmt.Sprintf("%.0f J/(kg·K)", microchannel.CoolantHeatCapacity)},
		{"rho", "Coolant density", fmt.Sprintf("%.0f kg/m³", microchannel.CoolantDensity)},
		{"Vdot", "Volumetric flow rate per cavity",
			fmt.Sprintf("%.1f-%.1f l/min", microchannel.MinCavityFlowLPM, microchannel.MaxCavityFlowLPM)},
		{"h", "Heat transfer coefficient",
			fmt.Sprintf("%.0f W/(m²·K)", microchannel.HeatTransferCoeff)},
		{"wc", "Channel width", fmt.Sprintf("%.0f µm", microchannel.ChannelWidth*1e6)},
		{"tc", "Channel height", fmt.Sprintf("%.0f µm", microchannel.ChannelHeight*1e6)},
		{"ts", "Wall thickness", fmt.Sprintf("%.0f µm", microchannel.WallThickness*1e6)},
		{"p", "Channel pitch", fmt.Sprintf("%.0f µm", microchannel.ChannelPitch*1e6)},
	}
}

// WriteTableI renders Table I.
func WriteTableI(w io.Writer) {
	rows := make([][]string, 0, 12)
	for _, r := range TableI() {
		rows = append(rows, []string{r.Parameter, r.Definition, r.Value})
	}
	writeTable(w, "TABLE I. Parameters for computing Eqn. 1",
		[]string{"Parameter", "Definition", "Value"}, rows)
}

// WriteTableII renders the workload characteristics (Table II).
func WriteTableII(w io.Writer) {
	rows := make([][]string, 0, len(workload.TableII))
	for _, b := range workload.TableII {
		rows = append(rows, []string{
			fmt.Sprintf("%d", b.ID), b.Name,
			fmt.Sprintf("%.2f", b.AvgUtil),
			fmt.Sprintf("%.1f", b.L2IMiss),
			fmt.Sprintf("%.1f", b.L2DMiss),
			fmt.Sprintf("%.1f", b.FPInstr),
			fmt.Sprintf("%.3f", b.MemActivity()),
		})
	}
	writeTable(w, "TABLE II. Workload characteristics (misses and FP per 100K instructions)",
		[]string{"#", "Benchmark", "Avg Util (%)", "L2 I-Miss", "L2 D-Miss", "FP instr", "MemAct"}, rows)
}

// TableIIIRow is one thermal model / floorplan parameter.
type TableIIIRow struct {
	Parameter, Value string
}

// TableIII returns the thermal model and floorplan parameters as
// implemented (Table III of the paper).
func TableIII() []TableIIIRow {
	cfg := rcnet.DefaultConfig()
	return []TableIIIRow{
		{"Die thickness (one stack)", fmt.Sprintf("%.2f mm", floorplan.DieThicknessMM)},
		{"Area per core", fmt.Sprintf("%.0f mm²", floorplan.CoreAreaMM2)},
		{"Area per L2 cache", fmt.Sprintf("%.0f mm²", floorplan.L2AreaMM2)},
		{"Total area of each layer", fmt.Sprintf("%.0f mm²", floorplan.StackWidthMM*floorplan.StackHeightMM)},
		{"Convection capacitance", fmt.Sprintf("%.0f J/K", cfg.SinkCapacitance)},
		{"Convection resistance", fmt.Sprintf("%.1f K/W", cfg.SinkConvectionR)},
		{"Interlayer material thickness", "0.02 mm"},
		{"Interlayer material thickness (with channels)", "0.4 mm"},
		{"Interlayer material resistivity (without TSVs)",
			fmt.Sprintf("%.2f mK/W", 1/microchannel.InterfaceConductivity)},
		{"Microchannels per cavity", fmt.Sprintf("%d", floorplan.ChannelsPerCavity)},
		{"Coolant inlet temperature (see EXPERIMENTS.md)",
			fmt.Sprintf("%.0f °C", float64(cfg.CoolantInlet.ToCelsius()))},
		{"Air ambient temperature", fmt.Sprintf("%.0f °C", float64(cfg.AmbientAir.ToCelsius()))},
	}
}

// WriteTableIII renders Table III.
func WriteTableIII(w io.Writer) {
	rows := make([][]string, 0, 12)
	for _, r := range TableIII() {
		rows = append(rows, []string{r.Parameter, r.Value})
	}
	writeTable(w, "TABLE III. Thermal model and floorplan parameters",
		[]string{"Parameter", "Value"}, rows)
}

// Fig3Row is one pump operating point.
type Fig3Row struct {
	Setting           pump.Setting
	PumpFlowLPH       float64 // pump output, l/h (Fig. 3 x-axis)
	PerCavity2LayerML float64 // ml/min after 50 % derating, 3 cavities
	PerCavity4LayerML float64 // ml/min after 50 % derating, 5 cavities
	PowerW            float64
}

// Fig3 computes the pump operating points (Fig. 3).
func Fig3() ([]Fig3Row, error) {
	p2, err := pump.New(3)
	if err != nil {
		return nil, err
	}
	p4, err := pump.New(5)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig3Row, 0, pump.NumSettings)
	for s := pump.Setting(0); s < pump.NumSettings; s++ {
		rows = append(rows, Fig3Row{
			Setting:           s,
			PumpFlowLPH:       float64(pump.OutputFlow(s)),
			PerCavity2LayerML: p2.PerCavityFlow(s).MilliLitersPerMinute(),
			PerCavity4LayerML: p4.PerCavityFlow(s).MilliLitersPerMinute(),
			PowerW:            float64(pump.Power(s)),
		})
	}
	return rows, nil
}

// WriteFig3 renders Fig. 3's data series Fig3 computed.
func WriteFig3(w io.Writer, rows []Fig3Row) {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Setting),
			fmt.Sprintf("%.0f", r.PumpFlowLPH),
			fmt.Sprintf("%.0f", r.PerCavity2LayerML),
			fmt.Sprintf("%.0f", r.PerCavity4LayerML),
			fmt.Sprintf("%.1f", r.PowerW),
		})
	}
	writeTable(w, "FIG 3. Pump power and per-cavity flow rates (50% delivery efficiency)",
		[]string{"Setting", "Pump flow (l/h)", "FR/cavity 2-layer (ml/min)", "FR/cavity 4-layer (ml/min)", "Power (W)"},
		out)
}

// celsius formats a temperature.
func celsius(t units.Celsius) string { return fmt.Sprintf("%.2f", float64(t)) }
