package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/coolsim"
)

// relTol bounds the relative difference of temperatures and energies
// against the reference.
const relTol = 1e-6

// checked is the part of a report the output check compares: integer
// statistics exactly, temperatures and energies within relTol.
type checked struct {
	Samples       int     `json:"samples"`
	BaseTicks     int     `json:"base_ticks"`
	ThermalSolves int     `json:"thermal_solves"`
	Completed     int64   `json:"completed"`
	Migrations    int64   `json:"migrations"`
	Refits        int     `json:"refits"`
	MaxTempC      float64 `json:"max_temp_c"`
	MeanTempC     float64 `json:"mean_temp_c"`
	ChipEnergyJ   float64 `json:"chip_energy_j"`
	PumpEnergyJ   float64 `json:"pump_energy_j"`
	TotalEnergyJ  float64 `json:"total_energy_j"`
}

func checkedOf(r *coolsim.Report) checked {
	return checked{
		Samples:       r.Samples,
		BaseTicks:     r.BaseTicks,
		ThermalSolves: r.ThermalSolves,
		Completed:     r.Completed,
		Migrations:    r.Migrations,
		Refits:        r.Refits,
		MaxTempC:      r.MaxTempC,
		MeanTempC:     r.MeanTempC,
		ChipEnergyJ:   r.ChipEnergyJ,
		PumpEnergyJ:   r.PumpEnergyJ,
		TotalEnergyJ:  r.TotalEnergyJ,
	}
}

// diff describes how got departs from want, or returns "" when it
// matches.
func (want checked) diff(got checked) string {
	ints := []struct {
		name      string
		want, got int64
	}{
		{"samples", int64(want.Samples), int64(got.Samples)},
		{"base_ticks", int64(want.BaseTicks), int64(got.BaseTicks)},
		{"thermal_solves", int64(want.ThermalSolves), int64(got.ThermalSolves)},
		{"completed", want.Completed, got.Completed},
		{"migrations", want.Migrations, got.Migrations},
		{"refits", int64(want.Refits), int64(got.Refits)},
	}
	for _, f := range ints {
		if f.want != f.got {
			return fmt.Sprintf("%s %d, want %d", f.name, f.got, f.want)
		}
	}
	floats := []struct {
		name      string
		want, got float64
	}{
		{"max_temp_c", want.MaxTempC, got.MaxTempC},
		{"mean_temp_c", want.MeanTempC, got.MeanTempC},
		{"chip_energy_j", want.ChipEnergyJ, got.ChipEnergyJ},
		{"pump_energy_j", want.PumpEnergyJ, got.PumpEnergyJ},
		{"total_energy_j", want.TotalEnergyJ, got.TotalEnergyJ},
	}
	for _, f := range floats {
		if math.Abs(f.got-f.want) > relTol*math.Abs(f.want) {
			return fmt.Sprintf("%s %.9g, want %.9g", f.name, f.got, f.want)
		}
	}
	return ""
}

// scenarioKey is the canonical identity of a scenario in the reference
// file: its JSON wire form.
func scenarioKey(sc coolsim.Scenario) string {
	b, err := json.Marshal(sc)
	if err != nil {
		panic(err) // Scenario has no unmarshalable fields once UtilSchedule is nil
	}
	return string(b)
}

//go:embed reference.json
var referenceJSON []byte

// reference maps scenario keys to the report statistics recorded for
// them by `perfbench -record`.
type reference map[string]checked

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// check compares the report of one run of sc against the recorded
// reference of sc.
func (ref reference) check(sc coolsim.Scenario, r *coolsim.Report) error {
	key := scenarioKey(sc)
	want, ok := ref[key]
	if !ok {
		return fmt.Errorf("no reference for scenario %s", key)
	}
	if d := want.diff(checkedOf(r)); d != "" {
		return fmt.Errorf("scenario %s: %s", key, d)
	}
	return nil
}

// writeReference runs every scenario of referenceScenarios, one solo
// coolsim.Run each, and saves its report statistics to path.
func writeReference(path string) error {
	scs := referenceScenarios()
	pc := coolsim.NewPlatformCache(0)
	ref := make(reference, len(scs))
	for _, sc := range scs {
		r, err := coolsim.Run(bg, sc, coolsim.WithPlatformCache(pc))
		if err != nil {
			return fmt.Errorf("reference %s: %w", scenarioKey(sc), err)
		}
		ref[scenarioKey(sc)] = checkedOf(r)
	}
	if len(ref) != len(scs) {
		return fmt.Errorf("reference: %d distinct scenarios, want %d", len(ref), len(scs))
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
