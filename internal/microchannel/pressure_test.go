package microchannel

import (
	"testing"

	"repro/internal/units"
)

// perChannelAt returns the per-channel flow for a 2-layer cavity at a
// given per-cavity rate in ml/min.
func perChannelAt(mlMin float64) units.CubicMeterPerSecond {
	v, _ := PerChannelFlow(units.LitersPerMinute(mlMin/1000), 65)
	return v
}

func TestHydraulicDiameter(t *testing.T) {
	// Dh = 2·50·100/(50+100) µm = 66.7 µm.
	if units.RelativeError(hydraulicDiameter(), 66.67e-6) > 1e-3 {
		t.Errorf("Dh = %v", hydraulicDiameter())
	}
}

func TestReynoldsMonotoneAndLaminarAtMinSetting(t *testing.T) {
	// At the lowest delivered flow the channels are laminar, validating
	// the paper's developed-boundary-layer (constant h) assumption
	// there; upper settings are transitional with the 65-channel
	// geometry.
	prev := 0.0
	for _, ml := range []float64{100, 208, 625, 1042} {
		re := ChannelReynolds(perChannelAt(ml))
		if re <= prev {
			t.Errorf("Re not monotone at %v ml/min: %v after %v", ml, re, prev)
		}
		prev = re
	}
	if re := ChannelReynolds(perChannelAt(208)); re > 2300 {
		t.Errorf("lowest setting Re = %v, want laminar", re)
	}
}

func TestChannelVelocityBand(t *testing.T) {
	// The paper's flows over 65 channels imply ~10-55 m/s; documenting
	// the consequence of its geometry assumptions.
	lo := ChannelVelocity(perChannelAt(208))
	hi := ChannelVelocity(perChannelAt(1042))
	if lo < 5 || lo > 20 {
		t.Errorf("min-setting velocity %v m/s outside expected band", lo)
	}
	if hi < 40 || hi > 70 {
		t.Errorf("max-setting velocity %v m/s outside expected band", hi)
	}
}

func TestPressureDropExceedsPumpHead(t *testing.T) {
	// The channel-array drop exceeds the pump's 300-600 mbar head at
	// every delivered setting — the quantitative basis for the paper's
	// 50 % delivery derating (see PressureDrop doc comment).
	l := units.Millimeter(11.5)
	lo := PressureDropMbar(perChannelAt(208), l)
	hi := PressureDropMbar(perChannelAt(1042), l)
	if lo < 600 {
		t.Errorf("min-setting drop %v mbar unexpectedly below pump head", lo)
	}
	if hi <= lo {
		t.Errorf("drop must rise with flow: %v vs %v", hi, lo)
	}
}

func TestPressureDropLaminarLinearInFlow(t *testing.T) {
	// Within the laminar branch ΔP ∝ v.
	l := units.Millimeter(11.5)
	p1 := PressureDrop(perChannelAt(100), l)
	p2 := PressureDrop(perChannelAt(200), l)
	if units.RelativeError(p2, 2*p1) > 1e-6 {
		t.Errorf("laminar drop not linear: %v vs 2·%v", p2, p1)
	}
}

func TestPressureDropContinuousAtTransition(t *testing.T) {
	// The laminar/Blasius switch should not produce a wild jump (the
	// friction factors differ by <2.5× at Re=2300 for this duct).
	l := units.Millimeter(11.5)
	var reLo, reHi units.CubicMeterPerSecond
	// Find flows bracketing Re = 2300 by scaling.
	base := perChannelAt(208)
	reBase := ChannelReynolds(base)
	scale := 2300 / reBase
	reLo = units.CubicMeterPerSecond(float64(base) * scale * 0.999)
	reHi = units.CubicMeterPerSecond(float64(base) * scale * 1.001)
	pLo := PressureDrop(reLo, l)
	pHi := PressureDrop(reHi, l)
	if pHi < pLo*0.4 || pHi > pLo*2.5 {
		t.Errorf("discontinuity at transition: %v vs %v", pLo, pHi)
	}
}

func TestPressureDropZeroFlow(t *testing.T) {
	if PressureDrop(0, units.Millimeter(10)) != 0 {
		t.Error("zero flow should have zero drop")
	}
}

func TestLaminarFReBounds(t *testing.T) {
	// fRe spans 56.9 (square) to 96 (parallel plates).
	if got := laminarFRe(1); got < 56 || got > 58 {
		t.Errorf("square duct fRe = %v, want ≈56.9", got)
	}
	if got := laminarFRe(0); units.RelativeError(got, 96) > 1e-9 {
		t.Errorf("parallel-plate fRe = %v, want 96", got)
	}
	// Symmetric in aspect ratio inversion.
	if units.RelativeError(laminarFRe(0.5), laminarFRe(2)) > 1e-12 {
		t.Error("fRe not symmetric under aspect inversion")
	}
}

func TestPumpingPowerScale(t *testing.T) {
	// Hydraulic power through the full array at max delivered flow:
	// with multi-bar drops this lands at tens of watts — above the
	// pump's 20.8 W electrical draw, again flagging that the real
	// delivered flow must be lower than nominal (the 50 % derating).
	l := units.Millimeter(11.5)
	dp := PressureDrop(perChannelAt(1042), l)
	total := units.LitersPerMinute(3 * 1.042).ToSI()
	p := PumpingPower(dp, total)
	if p <= 0 || p > 500 {
		t.Errorf("hydraulic power %v implausible", p)
	}
}
