package microchannel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestRthBEOLMatchesTableI(t *testing.T) {
	// Table I: Rth-BEOL = 5.333 K·mm²/W = 5.333e-6 K·m²/W.
	if units.RelativeError(RthBEOL, 5.333e-6) > 1e-3 {
		t.Errorf("RthBEOL = %v K·m²/W, want 5.333e-6", RthBEOL)
	}
}

func TestEffectiveHeatTransferCoeff(t *testing.T) {
	// 2(wc+tc)/p = 2(50+100)/100 = 3, so h_eff = 3h.
	want := 3 * HeatTransferCoeff
	if got := EffectiveHeatTransferCoeff(); units.RelativeError(got, want) > 1e-12 {
		t.Errorf("h_eff = %v, want %v", got, want)
	}
}

func TestNusseltPlausible(t *testing.T) {
	// Developed laminar rectangular-duct Nu is ~3-6; the paper's h and
	// geometry must land inside that physical band.
	nu := nusselt()
	if nu < 3 || nu > 6 {
		t.Errorf("implied Nusselt %v outside laminar band", nu)
	}
}

func TestDeltaTCondKnown(t *testing.T) {
	// 200 W/cm² (the paper's headline interlayer heat flux) through the
	// BEOL: ΔTcond = 5.333e-6 · 2e6 ≈ 10.7 K.
	got := DeltaTCond(units.WattPerSquareCentimeter(200).ToSI())
	if units.RelativeError(got, 10.67) > 1e-2 {
		t.Errorf("ΔTcond(200 W/cm²) = %v K, want ≈10.67", got)
	}
}

func TestDeltaTConvKnown(t *testing.T) {
	// 400 W/cm² combined flux: ΔTconv = 4e6 / (3·37132) ≈ 35.9 K.
	got := DeltaTConv(4e6)
	if units.RelativeError(got, 35.9) > 1e-2 {
		t.Errorf("ΔTconv(400 W/cm²) = %v K, want ≈35.9", got)
	}
}

func TestRthHeatMatchesEqn5(t *testing.T) {
	// A 1 cm² heater at 0.5 l/min: R = A/(cp·ρ·V̇).
	a := 1e-4
	v := units.LitersPerMinute(0.5).ToSI()
	want := a / (4183.0 * 998.0 * float64(v))
	if got := RthHeat(a, v); units.RelativeError(got, want) > 1e-12 {
		t.Errorf("RthHeat = %v, want %v", got, want)
	}
}

func TestRthHeatZeroFlowInfinite(t *testing.T) {
	if got := RthHeat(1e-8, 0); !math.IsInf(got, 1) {
		t.Errorf("RthHeat at zero flow = %v, want +Inf", got)
	}
}

func TestDeltaTHeatScalesInverselyWithFlow(t *testing.T) {
	a := 1e-8 // one 100 µm cell
	q := 4e5
	v1 := units.LitersPerMinute(0.2).ToSI()
	v2 := units.LitersPerMinute(0.4).ToSI()
	d1 := DeltaTHeat(q, a, v1)
	d2 := DeltaTHeat(q, a, v2)
	if units.RelativeError(d1, 2*d2) > 1e-12 {
		t.Errorf("doubling flow should halve ΔTheat: %v vs %v", d1, d2)
	}
}

func TestJunctionRiseComposition(t *testing.T) {
	q1, q2 := 3e5, 2e5
	a := 1e-6
	v := units.LitersPerMinute(0.3).ToSI()
	want := DeltaTCond(q1) + DeltaTHeat(q1+q2, a, v) + DeltaTConv(q1+q2)
	if got := JunctionRise(q1, q2, a, v); units.RelativeError(got, want) > 1e-12 {
		t.Errorf("JunctionRise = %v, want %v", got, want)
	}
}

func TestJunctionRiseBrunschwilerRegime(t *testing.T) {
	// Sanity against the cited interlayer-cooling result: ~200 W/cm² per
	// tier at full per-channel flow should give a junction-to-inlet rise
	// in the tens of kelvin (the paper cites ΔTjmax-in = 60 K).
	q := units.WattPerSquareCentimeter(200).ToSI()
	// One channel serving a 1 cm long, 100 µm pitch strip from both
	// sides, at ~3 ml/min per channel.
	vChan := units.CubicMeterPerSecond(3e-6 / 60)
	heater := 1e-2 * ChannelPitch // strip footprint, one side
	rise := JunctionRise(q, q, 2*heater, vChan)
	if rise < 20 || rise > 100 {
		t.Errorf("junction rise at 200 W/cm² = %v K, expected tens of kelvin", rise)
	}
}

func TestCoolantMarchAccumulates(t *testing.T) {
	v := units.CubicMeterPerSecond(1e-7)
	absorbed := []float64{1, 2, 3} // watts
	p := CoolantMarch(units.Celsius(60).ToKelvin(), absorbed, v)
	if len(p) != 4 {
		t.Fatalf("profile length = %d, want 4", len(p))
	}
	cap := CoolantHeatCapacity * CoolantDensity * float64(v)
	wantOutlet := float64(units.Celsius(60).ToKelvin()) + 6/cap
	if units.RelativeError(float64(p[3]), wantOutlet) > 1e-12 {
		t.Errorf("outlet = %v, want %v", p[3], wantOutlet)
	}
	// Monotone non-decreasing for non-negative heat.
	for i := 1; i < len(p); i++ {
		if p[i] < p[i-1] {
			t.Errorf("profile decreases at %d: %v < %v", i, p[i], p[i-1])
		}
	}
}

func TestCoolantMarchZeroFlow(t *testing.T) {
	p := CoolantMarch(300, []float64{1, 1}, 0)
	for i, v := range p {
		if v != 300 {
			t.Errorf("zero-flow profile[%d] = %v, want 300", i, v)
		}
	}
}

func TestCoolantMarchEnergyConservation(t *testing.T) {
	// Total enthalpy rise must equal total absorbed power / (ρ·cp·V̇).
	f := func(seed int64) bool {
		absorbed := []float64{0.5, 1.5, 0.25, 2}
		v := units.CubicMeterPerSecond(5e-8)
		p := CoolantMarch(350, absorbed, v)
		total := 0.0
		for _, q := range absorbed {
			total += q
		}
		cap := CoolantHeatCapacity * CoolantDensity * float64(v)
		return units.RelativeError(float64(p[len(p)-1]-p[0]), total/cap) < 1e-9
	}
	if !f(0) {
		t.Error("energy conservation violated")
	}
}

func TestCellFractionsValidate(t *testing.T) {
	if err := (CellFractions{Channel: 0.3, TSV: 0.1}).Validate(); err != nil {
		t.Errorf("valid fractions rejected: %v", err)
	}
	bad := []CellFractions{
		{Channel: -0.1},
		{TSV: -0.1},
		{Channel: 0.7, TSV: 0.4},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("invalid fractions %+v accepted", f)
		}
	}
}

func TestVerticalConductivityBounds(t *testing.T) {
	// Pure interface.
	if got := (CellFractions{}).VerticalConductivity(); got != InterfaceConductivity {
		t.Errorf("pure interface k = %v", got)
	}
	// Pure copper.
	if got := (CellFractions{TSV: 1}).VerticalConductivity(); got != CopperConductivity {
		t.Errorf("pure copper k = %v", got)
	}
	// TSVs must increase conductivity (paper: Cu TSVs reduce temperature).
	base := (CellFractions{Channel: 0.3}).VerticalConductivity()
	withTSV := (CellFractions{Channel: 0.3, TSV: 0.1}).VerticalConductivity()
	if withTSV <= base {
		t.Errorf("TSVs should raise conductivity: %v vs %v", withTSV, base)
	}
}

func TestVolumetricHeatCapacityWaterRaises(t *testing.T) {
	dry := (CellFractions{}).VolumetricHeatCapacity()
	wet := (CellFractions{Channel: 0.5}).VolumetricHeatCapacity()
	if wet <= dry {
		t.Errorf("water should raise heat capacity: %v vs %v", wet, dry)
	}
}

func TestJointResistivity(t *testing.T) {
	// Zero TSV density recovers Table III's 0.25 m·K/W.
	r, err := JointResistivity(0)
	if err != nil {
		t.Fatal(err)
	}
	if units.RelativeError(float64(r), 0.25) > 1e-12 {
		t.Errorf("TSV-free resistivity = %v, want 0.25", r)
	}
	// More TSVs, lower resistivity.
	r1, _ := JointResistivity(0.01)
	r2, _ := JointResistivity(0.05)
	if !(r2 < r1 && r1 < r) {
		t.Errorf("resistivity should fall with TSV density: %v, %v, %v", r, r1, r2)
	}
	if _, err := JointResistivity(-1); err == nil {
		t.Error("expected error for negative density")
	}
}

func TestPerChannelFlow(t *testing.T) {
	v, err := PerChannelFlow(0.65, 65)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(units.LitersPerMinute(0.01).ToSI())
	if units.RelativeError(float64(v), want) > 1e-12 {
		t.Errorf("per-channel flow = %v, want %v", v, want)
	}
	if _, err := PerChannelFlow(0.5, 0); err == nil {
		t.Error("expected error for zero channels")
	}
}

func TestQuickJunctionRiseMonotoneInFlux(t *testing.T) {
	v := units.LitersPerMinute(0.5).ToSI()
	f := func(a, b float64) bool {
		qa := math.Abs(math.Mod(a, 1e6))
		qb := qa + math.Abs(math.Mod(b, 1e6))
		return JunctionRise(qb, qb, 1e-6, v) >= JunctionRise(qa, qa, 1e-6, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickJunctionRiseMonotoneInFlow(t *testing.T) {
	f := func(a, b float64) bool {
		va := 0.1 + math.Abs(math.Mod(a, 0.9))
		vb := va + math.Abs(math.Mod(b, 0.9))
		lo := JunctionRise(3e5, 3e5, 1e-6, units.LitersPerMinute(va).ToSI())
		hi := JunctionRise(3e5, 3e5, 1e-6, units.LitersPerMinute(vb).ToSI())
		return hi <= lo+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
