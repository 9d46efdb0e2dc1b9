// Package microchannel implements the liquid-cooling physics of Section III
// of the paper: the decomposition of the junction temperature rise into
// conduction, sensible-heat and convection components
//
//	ΔTj = ΔTcond + ΔTheat + ΔTconv            (Eqn. 1)
//
// with the constants of Table I, plus the material model used to derive
// heterogeneous per-cell properties of the interlayer cavities (channel,
// TSV copper, interface polymer fractions).
package microchannel

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Constants from Table I of the paper.
const (
	// BEOLThickness is tB, the wiring-stack thickness (12 µm).
	BEOLThickness = 12e-6
	// BEOLConductivity is kBEOL (2.25 W/(m·K)).
	BEOLConductivity = 2.25
	// RthBEOL is the areal BEOL resistance tB/kBEOL (Eqn. 3), in
	// K·m²/W. Table I quotes it as 5.333 K·mm²/W.
	RthBEOL = BEOLThickness / BEOLConductivity
	// CoolantHeatCapacity is cp for water (4183 J/(kg·K)).
	CoolantHeatCapacity = 4183.0
	// CoolantDensity is ρ for water (998 kg/m³).
	CoolantDensity = 998.0
	// HeatTransferCoeff is h (37132 W/(m²·K)), valid for developed
	// boundary layers; the paper computes it once and holds it constant.
	HeatTransferCoeff = 37132.0
	// ChannelWidth is wc (50 µm).
	ChannelWidth = 50e-6
	// ChannelHeight is tc (100 µm).
	ChannelHeight = 100e-6
	// WallThickness is ts (50 µm).
	WallThickness = 50e-6
	// ChannelPitch is p (100 µm).
	ChannelPitch = 100e-6
	// MinCavityFlowLPM and MaxCavityFlowLPM bound the per-cavity
	// volumetric flow rate V̇ (Table I: 0.1–1 l/min per cavity).
	MinCavityFlowLPM = 0.1
	MaxCavityFlowLPM = 1.0
)

// Material conductivities used for the heterogeneous interlayer model
// (Section III.A). The interface polymer value matches Table III's
// resistivity of 0.25 m·K/W.
const (
	// InterfaceConductivity is the TSV-free interlayer material
	// (1/0.25 = 4 W/(m·K), Table III).
	InterfaceConductivity = 4.0
	// CopperConductivity is used for the TSVs (Section III: "TSVs reduce
	// the temperature due to the low thermal resistivity of Cu").
	CopperConductivity = 400.0
	// WaterConductivity models stagnant coolant conduction inside the
	// channel volume; convection is handled separately.
	WaterConductivity = 0.6
	// SiliconConductivity is the die bulk value.
	SiliconConductivity = 150.0
	// SiliconVolumetricHeatCapacity is for the dies, J/(m³·K).
	SiliconVolumetricHeatCapacity = 1.75e6
	// InterfaceVolumetricHeatCapacity approximates the bonding polymer.
	InterfaceVolumetricHeatCapacity = 2.0e6
	// WaterVolumetricHeatCapacity = ρ·cp.
	WaterVolumetricHeatCapacity = CoolantDensity * CoolantHeatCapacity
)

// EffectiveHeatTransferCoeff returns h_eff = h · 2(wc+tc)/p (Eqn. 7), the
// per-unit-footprint heat-transfer coefficient that folds the wetted
// perimeter of the channel array into a flat-plate equivalent. With Table I
// values this is 3·h. Units: W/(m²·K) of footprint.
func EffectiveHeatTransferCoeff() float64 {
	return HeatTransferCoeff * 2 * (ChannelWidth + ChannelHeight) / ChannelPitch
}

// nusselt is the geometry-fixed Nusselt number implied by the paper's
// water h: Nu = h·Dh/k_water ≈ 4.1, consistent with developed laminar
// flow in a rectangular duct.
func nusselt() float64 {
	return HeatTransferCoeff * hydraulicDiameter() / WaterConductivity
}

// DeltaTCond returns the conduction temperature rise across the BEOL for a
// heat flux q1 in W/m² (Eqn. 2): ΔTcond = Rth-BEOL · q̇1. It does not
// depend on the flow rate.
func DeltaTCond(q1 float64) float64 { return RthBEOL * q1 }

// DeltaTConv returns the convective temperature rise for combined flux
// q1+q2 in W/m² (Eqn. 6): ΔTconv = (q̇1+q̇2)/h_eff. Independent of flow
// rate once boundary layers are developed.
func DeltaTConv(q1plusq2 float64) float64 {
	return q1plusq2 / EffectiveHeatTransferCoeff()
}

// RthHeat returns the sensible-heat thermal resistance (Eqn. 5) for a
// heater of area aHeater (m²) served by volumetric flow vdot (m³/s):
// Rth-heat = A_heater/(cp·ρ·V̇). Units K·m²/W per unit flux — multiplied by
// (q1+q2) it yields the coolant temperature rise attributable to that
// heater.
func RthHeat(aHeater float64, vdot units.CubicMeterPerSecond) float64 {
	if vdot <= 0 {
		return math.Inf(1)
	}
	return aHeater / (CoolantHeatCapacity * CoolantDensity * float64(vdot))
}

// DeltaTHeat returns the sensible-heat rise for combined flux q1+q2 (W/m²)
// over a heater of area aHeater with per-channel-group flow vdot (Eqn. 4).
func DeltaTHeat(q1plusq2, aHeater float64, vdot units.CubicMeterPerSecond) float64 {
	return q1plusq2 * RthHeat(aHeater, vdot)
}

// JunctionRise composes Eqn. 1 for uniform flux: the junction rise above
// the coolant inlet for fluxes q1 (through BEOL) and q2 (from the opposing
// tier), with sensible heat accumulated over heater area aHeater at flow
// vdot.
func JunctionRise(q1, q2, aHeater float64, vdot units.CubicMeterPerSecond) float64 {
	return DeltaTCond(q1) + DeltaTHeat(q1+q2, aHeater, vdot) + DeltaTConv(q1+q2)
}

// CoolantMarch computes the coolant temperature profile along a channel
// (the paper's iterative generalization of Eqn. 4:
// ΔTheat(n+1) = Σ_{i≤n} ΔTheat(i)). absorbed[i] is the heat in watts
// absorbed by the coolant in segment i; vdot is the volumetric flow through
// the marched channel group; inlet is the inlet temperature. The returned
// slice has len(absorbed)+1 entries: profile[i] is the fluid temperature
// entering segment i, profile[len] the outlet temperature.
func CoolantMarch(inlet units.Kelvin, absorbed []float64, vdot units.CubicMeterPerSecond) []units.Kelvin {
	profile := make([]units.Kelvin, len(absorbed)+1)
	profile[0] = inlet
	if vdot <= 0 {
		for i := range absorbed {
			profile[i+1] = profile[i]
		}
		return profile
	}
	cap := CoolantHeatCapacity * CoolantDensity * float64(vdot)
	for i, q := range absorbed {
		profile[i+1] = profile[i] + units.Kelvin(q/cap)
	}
	return profile
}

// CellFractions describes the composition of one homogenized interlayer
// cell.
type CellFractions struct {
	Channel float64 // coolant volume fraction of footprint
	TSV     float64 // copper fraction
}

// Validate checks the fractions are physical.
func (f CellFractions) Validate() error {
	if f.Channel < 0 || f.TSV < 0 || f.Channel+f.TSV > 1 {
		return fmt.Errorf("microchannel: invalid fractions channel=%g tsv=%g", f.Channel, f.TSV)
	}
	return nil
}

// VerticalConductivity returns the effective vertical (stacking-direction)
// conductivity of a homogenized interlayer cell: an area-weighted parallel
// combination of TSV copper, interface polymer and (stagnant) coolant.
// Convective transport to the moving coolant is modelled separately via
// EffectiveHeatTransferCoeff; this term carries only conduction, which is
// what remains when the flow stops.
func (f CellFractions) VerticalConductivity() float64 {
	solid := 1 - f.Channel - f.TSV
	return f.TSV*CopperConductivity + solid*InterfaceConductivity + f.Channel*WaterConductivity
}

// BondLayerThickness is the adhesive bonding layer on each face of a
// microchannel cavity (matches Table III's channel-free interlayer
// thickness of 0.02 mm).
const BondLayerThickness = 20e-6

// CavityConductivity returns the effective conductivity of a microchannel
// cavity cell of the given total thickness. Interlayer microchannels are
// etched into silicon (Brunschwiler et al. [4]): the cavity cross-section
// is bond polymer / silicon wall / channel band / silicon wall / bond
// polymer. Vertically these act in series; the channel band is a parallel
// mix of silicon walls, coolant and (under the crossbar) TSV copper.
// Treating the homogenized channel fraction as the coolant share of the
// band, the effective conductivity is thickness / Σ(tᵢ/kᵢ).
func (f CellFractions) CavityConductivity(thickness float64) float64 {
	if thickness <= 2*BondLayerThickness {
		return f.VerticalConductivity()
	}
	band := thickness - 2*BondLayerThickness
	kBand := f.Channel*WaterConductivity + f.TSV*CopperConductivity +
		(1-f.Channel-f.TSV)*SiliconConductivity
	rArea := 2*BondLayerThickness/InterfaceConductivity + band/kBand
	return thickness / rArea
}

// CavityVolumetricHeatCapacity returns the effective heat capacity per
// unit volume of a silicon-walled cavity cell.
func (f CellFractions) CavityVolumetricHeatCapacity() float64 {
	return f.Channel*WaterVolumetricHeatCapacity +
		(1-f.Channel)*SiliconVolumetricHeatCapacity
}

// LateralConductivity returns the effective in-plane conductivity of the
// homogenized cell. Channels interrupt lateral conduction, so the channel
// fraction contributes only water conduction; a series/parallel Wiener
// bound average is overkill at the paper's granularity, so we use the same
// area weighting as the vertical direction.
func (f CellFractions) LateralConductivity() float64 {
	return f.VerticalConductivity()
}

// VolumetricHeatCapacity returns the effective heat capacity per unit
// volume of the homogenized cell. The paper neglects the TSV contribution
// to interface heat capacity (Section III.A); we include the channel water,
// which is not negligible.
func (f CellFractions) VolumetricHeatCapacity() float64 {
	solid := 1 - f.Channel
	return solid*InterfaceVolumetricHeatCapacity + f.Channel*WaterVolumetricHeatCapacity
}

// JointResistivity returns the effective thermal resistivity (m·K/W) of
// interface material with a given TSV density, the paper's block-level TSV
// model: "based on the TSV density of the crossbar, we compute the joint
// resistivity of that area combining the resistivity values of interlayer
// material and Cu."
func JointResistivity(tsvFrac float64) (units.MeterKelvinPerWatt, error) {
	f := CellFractions{TSV: tsvFrac}
	if err := f.Validate(); err != nil {
		return 0, err
	}
	return units.MeterKelvinPerWatt(1 / f.VerticalConductivity()), nil
}

// PerChannelFlow divides a per-cavity volumetric flow equally among n
// channels (Section III.B: "the total flow rate of the pump is equally
// distributed among the cavities, and among the microchannels").
func PerChannelFlow(perCavity units.LitersPerMinute, n int) (units.CubicMeterPerSecond, error) {
	if n <= 0 {
		return 0, fmt.Errorf("microchannel: channel count %d", n)
	}
	return units.CubicMeterPerSecond(float64(perCavity.ToSI()) / float64(n)), nil
}
