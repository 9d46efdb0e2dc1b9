package coolsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestSweepExpandCartesian pins the member count and the deterministic
// row-major order (layers outermost, seeds innermost).
func TestSweepExpandCartesian(t *testing.T) {
	sw := Sweep{
		Base:     Scenario{Duration: 5, Warmup: 1},
		Layers:   []int{2, 4},
		Cooling:  []string{CoolingMax, CoolingAir},
		Workload: []string{"gzip", "Web-med", "Web-high"},
		Seeds:    []int64{1, 2},
	}
	if got, want := sw.Count(), 2*2*3*2; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(scs) != sw.Count() {
		t.Fatalf("expanded %d members, want %d", len(scs), sw.Count())
	}
	// First member: first value of every axis, base/defaults elsewhere.
	first := scs[0]
	if first.Layers != 2 || first.Cooling != CoolingMax || first.Workload != "gzip" || first.Seed != 1 {
		t.Fatalf("first member = %+v", first)
	}
	if first.Policy != "talb" || first.Duration != 5 || first.Warmup != 1 {
		t.Fatalf("defaults not materialized: %+v", first)
	}
	// Seeds are the innermost axis: member 1 differs from member 0 only
	// in the seed.
	if scs[1].Seed != 2 || scs[1].Workload != "gzip" || scs[1].Layers != 2 {
		t.Fatalf("second member = %+v", scs[1])
	}
	// Layers are the outermost axis: the second half of the grid is the
	// 4-layer copy of the first half.
	half := len(scs) / 2
	for i := 0; i < half; i++ {
		want := scs[i]
		want.Layers = 4
		if !reflect.DeepEqual(scs[half+i], want) {
			t.Fatalf("member %d = %+v, want 4-layer copy of member %d", half+i, scs[half+i], i)
		}
	}
	// Determinism: a second expansion is deep-equal.
	again, err := sw.Expand()
	if err != nil {
		t.Fatalf("re-Expand: %v", err)
	}
	if !reflect.DeepEqual(scs, again) {
		t.Fatal("two expansions of one sweep differ")
	}
}

// TestSweepSkipFilters pins filter semantics: a member matching every
// set field of any filter is dropped, and survivors keep their order.
func TestSweepSkipFilters(t *testing.T) {
	dpmOn := true
	sw := Sweep{
		Base:    Scenario{Duration: 5, Warmup: 1},
		Cooling: []string{CoolingAir, CoolingVar},
		Policy:  []string{PolicyLB, PolicyTALB},
		DPM:     []bool{false, true},
		Skip: []SweepFilter{
			{Cooling: CoolingVar, Policy: PolicyLB}, // drop the var/lb corner
			{DPM: &dpmOn, Cooling: CoolingAir},      // and DPM-on air members
		},
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// Grid is 2*2*2 = 8; var/lb removes 2 (dpm off+on), air/dpm-on
	// removes 2 → 4 survive.
	if len(scs) != 4 {
		t.Fatalf("got %d members, want 4: %+v", len(scs), scs)
	}
	for i, sc := range scs {
		if sc.Cooling == CoolingVar && sc.Policy == PolicyLB {
			t.Errorf("member %d: filtered var/lb combo survived", i)
		}
		if sc.Cooling == CoolingAir && sc.DPM {
			t.Errorf("member %d: filtered air/dpm combo survived", i)
		}
	}
	// Survivor order is the enumeration order with holes.
	if scs[0].Cooling != CoolingAir || scs[0].Policy != PolicyLB || scs[0].DPM {
		t.Fatalf("first survivor = %+v", scs[0])
	}
}

// TestSweepTooLarge pins the typed oversize rejection and the
// MaxScenarios override.
func TestSweepTooLarge(t *testing.T) {
	seeds := make([]int64, 400)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	sw := Sweep{
		Layers:       []int{2, 4},
		Workload:     []string{"gzip", "Web-med"},
		Seeds:        seeds,
		MaxScenarios: 1000,
	}
	if _, err := sw.Expand(); !errors.Is(err, ErrSweepTooLarge) {
		t.Fatalf("Expand of %d members under limit 1000: err = %v, want ErrSweepTooLarge", sw.Count(), err)
	}
	sw.MaxScenarios = 1600
	if _, err := sw.Expand(); err != nil {
		t.Fatalf("Expand under raised limit: %v", err)
	}
	// The limit applies before any validation work.
	sw.MaxScenarios = 0
	sw.Seeds = make([]int64, DefaultSweepLimit+1)
	if _, err := sw.Expand(); !errors.Is(err, ErrSweepTooLarge) {
		t.Fatalf("default limit: err = %v, want ErrSweepTooLarge", err)
	}
	// Grids past the int range are too large too: not a negative count
	// (Expand panicked in makeslice) or an empty grid (Expand admitted
	// zero members), at the default and at the largest limit.
	for _, c := range []struct{ seeds, max, wantCount int }{
		{128, 0, DefaultSweepLimit + 1},
		{256, 0, DefaultSweepLimit + 1},
		{128, math.MaxInt, math.MaxInt},
		{256, math.MaxInt, math.MaxInt},
	} {
		sw := hugeSweep(c.seeds)
		sw.MaxScenarios = c.max
		if n := sw.Count(); n != c.wantCount {
			t.Errorf("%d seeds, limit %d: Count = %d, want %d", c.seeds, c.max, n, c.wantCount)
		}
		if scs, err := sw.Expand(); !errors.Is(err, ErrSweepTooLarge) {
			t.Errorf("%d seeds, limit %d: Expand = %d members, %v; want ErrSweepTooLarge", c.seeds, c.max, len(scs), err)
		}
	}
}

// hugeSweep is a grid whose axis product overflows int: six axes of
// 256 values, 256 dpm values and the given number of seeds. 128 seeds
// make 2⁶³ members, which a wrapping product counts as −2⁶³; 256 make
// 2⁶⁴, which it counts as 0. The zero values need not be valid: the
// limit check comes before any validation.
func hugeSweep(seeds int) Sweep {
	return Sweep{
		Layers: make([]int, 256), Cooling: make([]string, 256), Policy: make([]string, 256),
		Workload: make([]string, 256), DPM: make([]bool, 256), ControlEvery: make([]int, 256),
		Stepping: make([]Stepping, 256), Seeds: make([]int64, seeds),
	}
}

// TestSweepInvalidMember: an unfiltered invalid combination fails the
// expansion with the member's typed error; filtering it out succeeds.
func TestSweepInvalidMember(t *testing.T) {
	sw := Sweep{
		Layers:   []int{2, 3},
		Workload: []string{"gzip"},
	}
	if _, err := sw.Expand(); !errors.Is(err, ErrBadLayers) {
		t.Fatalf("err = %v, want ErrBadLayers", err)
	}
	sw.Skip = []SweepFilter{{Layers: 3}}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatalf("Expand with filtered invalid corner: %v", err)
	}
	if len(scs) != 1 || scs[0].Layers != 2 {
		t.Fatalf("got %+v, want the single 2-layer member", scs)
	}
}

// TestSweepCanonicalRoundTrip: every expanded member survives the
// canonical wire encoding (marshal → decode over defaults) unchanged —
// the property that makes a fleet-executed campaign member equal the
// in-process scenario struct, and hence the reports byte-identical.
func TestSweepCanonicalRoundTrip(t *testing.T) {
	sw := Sweep{
		Base:         Scenario{Duration: 7, GridNX: 12, GridNY: 10},
		Layers:       []int{2, 4},
		Cooling:      []string{CoolingAir, CoolingMax, CoolingVar},
		Policy:       []string{PolicyLB, PolicyTALB},
		DPM:          []bool{false, true},
		ControlEvery: []int{0, 5},
		Stepping:     []Stepping{{}, {Mode: "adaptive", ToleranceC: 0.05}},
		Seeds:        []int64{1, 7},
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	for i, sc := range scs {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("member %d: marshal: %v", i, err)
		}
		back := DefaultScenario()
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("member %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("member %d round-trip drift:\n  expanded: %+v\n  decoded:  %+v", i, sc, back)
		}
	}
}
