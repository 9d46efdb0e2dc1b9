package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/pump"
)

func TestTableIValues(t *testing.T) {
	rows := TableI()
	if len(rows) != 11 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	byName := map[string]string{}
	for _, r := range rows {
		byName[r.Parameter] = r.Value
	}
	checks := map[string]string{
		"Rth-BEOL": "5.333 (K·mm²)/W",
		"cp":       "4183 J/(kg·K)",
		"rho":      "998 kg/m³",
		"h":        "37132 W/(m²·K)",
		"wc":       "50 µm",
		"tc":       "100 µm",
		"p":        "100 µm",
	}
	for k, want := range checks {
		if byName[k] != want {
			t.Errorf("Table I %s = %q, want %q", k, byName[k], want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	WriteTableI(&buf)
	WriteTableII(&buf)
	WriteTableIII(&buf)
	fig3, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	WriteFig3(&buf, fig3)
	out := buf.String()
	for _, want := range []string{"TABLE I.", "TABLE II.", "TABLE III.", "FIG 3.",
		"Web-high", "92.87", "0.15 mm", "37132"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rows, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != pump.NumSettings {
		t.Fatalf("Fig 3 has %d rows", len(rows))
	}
	for i, r := range rows {
		// 4-layer per-cavity flow must be 3/5 of the 2-layer value.
		want := r.PerCavity2LayerML * 3 / 5
		if math.Abs(r.PerCavity4LayerML-want) > 0.5 {
			t.Errorf("row %d: 4-layer flow %v, want %v", i, r.PerCavity4LayerML, want)
		}
		if i > 0 && r.PowerW <= rows[i-1].PowerW {
			t.Errorf("row %d: power not increasing", i)
		}
	}
	// Fig. 3 extremes.
	if rows[0].PumpFlowLPH != 75 || rows[4].PumpFlowLPH != 375 {
		t.Errorf("pump flow axis wrong: %v..%v", rows[0].PumpFlowLPH, rows[4].PumpFlowLPH)
	}
}

// TestFig5FactorizesOnce: every flow Fig5's bisection probes gives the
// same steady-state system matrix, so one stack's whole study — a
// bisection per ladder point — factorizes it exactly once.
func TestFig5FactorizesOnce(t *testing.T) {
	ctx := context.Background()
	o := QuickOptions()
	p, err := o.cacheOrNew().Get(o.spec(2, true))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.NewScratchModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fig5Stack(ctx, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 5 {
		t.Fatalf("only %d rows", len(res.Rows))
	}
	if got := m.Factorizations(); got != 1 {
		t.Errorf("Fig5 bisection performed %d factorizations, want 1", got)
	}
}

func TestFig5Shape(t *testing.T) {
	o := QuickOptions()
	res, err := Fig5(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Layers != 2 || res[1].Layers != 4 {
		t.Fatalf("Fig 5 stacks wrong: %+v", res)
	}
	for _, r := range res {
		if len(r.Rows) < 5 {
			t.Fatalf("%d-layer: only %d rows", r.Layers, len(r.Rows))
		}
		for i := 1; i < len(r.Rows); i++ {
			prev, cur := r.Rows[i-1], r.Rows[i]
			if cur.TmaxObserved < prev.TmaxObserved-0.05 {
				t.Errorf("%d-layer: Tmax not increasing with load at row %d", r.Layers, i)
			}
			if cur.RequiredSetting < prev.RequiredSetting {
				t.Errorf("%d-layer: required setting decreases at row %d", r.Layers, i)
			}
			// The continuous required flow is monotone where defined.
			if !math.IsNaN(prev.RequiredFlowML) && !math.IsNaN(cur.RequiredFlowML) &&
				cur.RequiredFlowML < prev.RequiredFlowML-1 {
				t.Errorf("%d-layer: required flow decreases at row %d (%v -> %v)",
					r.Layers, i, prev.RequiredFlowML, cur.RequiredFlowML)
			}
		}
	}
}

func TestFig6QuickShape(t *testing.T) {
	res, err := Fig6(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 7 {
		t.Fatalf("Fig 6 has %d combos", len(res))
	}
	byLabel := map[string]*ComboResult{}
	for i := range res {
		byLabel[res[i].Combo.Label] = &res[i]
	}
	// Liquid cooling eliminates the hot spots air cooling shows.
	if byLabel["LB (Air)"].AvgHotPct <= byLabel["LB (Max)"].AvgHotPct {
		t.Errorf("air hot spots (%v) should exceed liquid (%v)",
			byLabel["LB (Air)"].AvgHotPct, byLabel["LB (Max)"].AvgHotPct)
	}
	// Variable flow cuts pump energy vs the worst-case flow.
	if byLabel["TALB (Var)*"].PumpEnergy >= byLabel["TALB (Max)"].PumpEnergy {
		t.Errorf("Var pump energy (%v) should be below Max (%v)",
			byLabel["TALB (Var)*"].PumpEnergy, byLabel["TALB (Max)"].PumpEnergy)
	}
	// ...without reintroducing hot spots.
	if byLabel["TALB (Var)*"].AvgHotPct > 0.5 {
		t.Errorf("Var hot spots %v%%, want ~0", byLabel["TALB (Var)*"].AvgHotPct)
	}
	// Normalization base.
	if math.Abs(res[0].NormChip-1) > 1e-9 || math.Abs(res[0].NormPerf-1) > 1e-9 {
		t.Errorf("base combo not normalized to 1: %+v", res[0])
	}
}

func TestFig7QuickShape(t *testing.T) {
	res, err := Fig7(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]*ComboResult{}
	for i := range res {
		byLabel[res[i].Combo.Label] = &res[i]
	}
	// Liquid cooling at max flow shows fewer large gradients than air.
	if byLabel["LB (Max)"].AvgGradPct >= byLabel["LB (Air)"].AvgGradPct {
		t.Errorf("liquid gradients (%v) should be below air (%v)",
			byLabel["LB (Max)"].AvgGradPct, byLabel["LB (Air)"].AvgGradPct)
	}
	// The paper's policy minimizes variations overall.
	if byLabel["TALB (Var)*"].AvgGradPct > byLabel["LB (Air)"].AvgGradPct {
		t.Errorf("TALB (Var) gradients (%v) should not exceed LB (Air) (%v)",
			byLabel["TALB (Var)*"].AvgGradPct, byLabel["LB (Air)"].AvgGradPct)
	}
	if byLabel["TALB (Var)*"].AvgCyclePct > byLabel["LB (Air)"].AvgCyclePct {
		t.Errorf("TALB (Var) cycles (%v) should not exceed LB (Air) (%v)",
			byLabel["TALB (Var)*"].AvgCyclePct, byLabel["LB (Air)"].AvgCyclePct)
	}
}

func TestFig8QuickShape(t *testing.T) {
	fig6, err := Fig6(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig8(fig6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("Fig 8 has %d combos", len(res))
	}
	byLabel := map[string]*ComboResult{}
	for i := range res {
		byLabel[res[i].Combo.Label] = &res[i]
	}
	// Liquid-cooled TALB (Var) matches performance (no migrations, no
	// hot-spot throttling) while saving energy vs LB (Max).
	if byLabel["TALB (Var)*"].NormPerf < 0.97 {
		t.Errorf("TALB (Var) performance %v, want ≈1", byLabel["TALB (Var)*"].NormPerf)
	}
	totVar := byLabel["TALB (Var)*"].ChipEnergy + byLabel["TALB (Var)*"].PumpEnergy
	totMax := byLabel["LB (Max)"].ChipEnergy + byLabel["LB (Max)"].PumpEnergy
	if totVar >= totMax {
		t.Errorf("TALB (Var) total energy %v not below LB (Max) %v", totVar, totMax)
	}
}

func TestWriteFigures(t *testing.T) {
	o := QuickOptions()
	o.Workloads = []string{"gzip"}
	o.Duration = 8
	fig6, err := Fig6(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := Fig8(fig6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteFig6(&buf, fig6)
	WriteFig8(&buf, fig8)
	out := buf.String()
	for _, want := range []string{"FIG 6.", "FIG 8.", "TALB (Var)*", "cooling energy"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figures missing %q", want)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	o := QuickOptions()
	o.Workloads = []string{"bogus"}
	if _, err := Fig6(context.Background(), o); err == nil {
		t.Error("expected error for unknown workload")
	}
	if _, err := o.cacheOrNew().Get(o.spec(3, true)); err == nil {
		t.Error("expected error for 3 layers")
	}
}

func TestFig6PerWorkloadVarPumpNeverExceedsMax(t *testing.T) {
	// Per workload (not just on average), the controller's pump energy
	// is bounded by the worst-case baseline, and its thermal profile
	// stays hot-spot free wherever the baseline's is.
	res, err := Fig6(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	var talbMax, talbVar *ComboResult
	for i := range res {
		switch res[i].Combo.Label {
		case "TALB (Max)":
			talbMax = &res[i]
		case "TALB (Var)*":
			talbVar = &res[i]
		}
	}
	if talbMax == nil || talbVar == nil {
		t.Fatal("combos missing")
	}
	for i := range talbVar.PerWorkload {
		v, m := talbVar.PerWorkload[i], talbMax.PerWorkload[i]
		if v.PumpEnergy > m.PumpEnergy {
			t.Errorf("workload %d: Var pump %v above Max %v", i, v.PumpEnergy, m.PumpEnergy)
		}
		if m.HotSpotPct == 0 && v.HotSpotPct > 0.5 {
			t.Errorf("workload %d: Var hot spots %v where Max has none", i, v.HotSpotPct)
		}
	}
}
