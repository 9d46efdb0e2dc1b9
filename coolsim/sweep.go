package coolsim

import (
	"fmt"
	"math"
)

// DefaultSweepLimit bounds Sweep.Expand when Sweep.MaxScenarios is
// unset: a cartesian grid larger than this is rejected with
// ErrSweepTooLarge instead of being materialized. The limit guards
// against accidentally huge grids (one more ten-value axis multiplies
// the member count by ten); deliberate large in-process sweeps raise
// MaxScenarios explicitly. It is also the ceiling of a campaign
// submitted to the daemon, which rejects a larger MaxScenarios before
// expanding anything.
const DefaultSweepLimit = 100000

// Sweep is a declarative cartesian scenario grid — the paper's
// exploration (layer counts × cooling classes × policies × workloads ×
// knobs) as one JSON value. It is the wire format of campaign
// submissions (POST /v1/campaigns on cmd/coolserved) and the
// programmatic entry to batch exploration: Expand materializes the grid
// into runnable Scenarios in a deterministic order, so two expansions of
// one spec — on different machines, or before and after a daemon
// restart — agree member for member.
//
// Each axis slice enumerates the values of one Scenario field; an empty
// axis keeps the Base value. Expansion order is row-major over the axes
// in the order the fields are declared: layers outermost, then cooling,
// policy, workload, dpm, control_every, stepping, and seeds innermost.
// Members matching a Skip filter are dropped after enumeration, so
// filters do not perturb the order of the surviving members.
type Sweep struct {
	// Base carries every knob the axes do not vary: duration, warmup,
	// grid resolution, faults, and the starting values of the
	// axis fields themselves. Unset Base fields inherit
	// DefaultScenario, and expansion materializes those defaults into
	// every member, so a member round-trips unchanged through the
	// canonical scenario encoding used by the fleet journal.
	Base Scenario `json:"base,omitzero"`

	// The axes. Values are validated exactly like a direct submission;
	// an axis value that fails Scenario.Validate fails the whole
	// expansion with the member index and the typed field error.
	Layers       []int      `json:"layers,omitempty"`
	Cooling      []string   `json:"cooling,omitempty"`
	Policy       []string   `json:"policy,omitempty"`
	Workload     []string   `json:"workload,omitempty"`
	DPM          []bool     `json:"dpm,omitempty"`
	ControlEvery []int      `json:"control_every,omitempty"`
	Stepping     []Stepping `json:"stepping,omitempty"`
	Seeds        []int64    `json:"seeds,omitempty"`

	// Skip drops members from the grid: a member matching every set
	// field of any one filter is excluded (e.g. skip the meaningless
	// air-cooled variable-flow corner of a cooling × policy grid).
	Skip []SweepFilter `json:"skip,omitempty"`

	// MaxScenarios overrides DefaultSweepLimit for this sweep (a
	// daemon campaign may only lower it). The limit applies to the
	// unfiltered cartesian count — the cost of the expansion itself —
	// not the post-filter member count.
	MaxScenarios int `json:"max_scenarios,omitempty"`
}

// SweepFilter matches a subset of a sweep's grid. Zero-valued fields are
// wildcards; the set fields must all match for the filter to apply.
type SweepFilter struct {
	Layers   int    `json:"layers,omitempty"`
	Cooling  string `json:"cooling,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Workload string `json:"workload,omitempty"`
	// DPM matches members with exactly this DPM setting; nil matches
	// both (JSON: omit the field, or set true/false).
	DPM *bool `json:"dpm,omitempty"`
}

// matches reports whether sc falls inside the filter.
func (f SweepFilter) matches(sc Scenario) bool {
	if f.Layers != 0 && sc.Layers != f.Layers {
		return false
	}
	if f.Cooling != "" && sc.Cooling != f.Cooling {
		return false
	}
	if f.Policy != "" && sc.Policy != f.Policy {
		return false
	}
	if f.Workload != "" && sc.Workload != f.Workload {
		return false
	}
	if f.DPM != nil && sc.DPM != *f.DPM {
		return false
	}
	return true
}

// materialized fills the unset base fields DefaultScenario defines, so
// every expanded member carries its full configuration explicitly and
// the canonical JSON encoding round-trips to an identical Scenario.
func (sc Scenario) materialized() Scenario {
	def := DefaultScenario()
	if sc.Layers == 0 {
		sc.Layers = def.Layers
	}
	if sc.Cooling == "" {
		sc.Cooling = def.Cooling
	}
	if sc.Policy == "" {
		sc.Policy = def.Policy
	}
	if sc.Workload == "" {
		sc.Workload = def.Workload
	}
	if sc.Duration == 0 {
		sc.Duration = def.Duration
	}
	if sc.Warmup == 0 {
		sc.Warmup = def.Warmup
	}
	if sc.Seed == 0 {
		sc.Seed = def.Seed
	}
	return sc
}

// Count returns the unfiltered cartesian size of the grid — the number
// Expand checks against the limit. Empty axes count one. A grid larger
// than the limit (MaxScenarios, default DefaultSweepLimit) counts one
// more than the limit, so huge axis products cannot overflow into a
// small or negative count.
func (s Sweep) Count() int {
	limit := s.limit()
	n := 1
	for _, l := range []int{
		len(s.Layers), len(s.Cooling), len(s.Policy), len(s.Workload),
		len(s.DPM), len(s.ControlEvery), len(s.Stepping), len(s.Seeds),
	} {
		if l > 0 {
			if n > limit/l { // n·l > limit
				return limit + 1
			}
			n *= l
		}
	}
	return n
}

// limit is the expansion limit: MaxScenarios, or DefaultSweepLimit when
// unset, capped below math.MaxInt so Count's limit+1 cannot overflow.
func (s Sweep) limit() int {
	if s.MaxScenarios <= 0 {
		return DefaultSweepLimit
	}
	return min(s.MaxScenarios, math.MaxInt-1)
}

// Expand materializes the grid into validated, fully-specified
// Scenarios in the sweep's deterministic order. It fails with
// ErrSweepTooLarge when the unfiltered grid exceeds MaxScenarios
// (default DefaultSweepLimit), and with the member's typed validation
// error when an axis combination is not runnable — filtered members are
// never validated, so Skip is also the escape hatch for invalid
// corners of an otherwise useful grid.
func (s Sweep) Expand() ([]Scenario, error) {
	limit, total := s.limit(), s.Count()
	if total > limit {
		return nil, fmt.Errorf("%w: more than %d members (raise max_scenarios to override)",
			ErrSweepTooLarge, limit)
	}

	// Each axis becomes a list of field setters; empty axes contribute
	// the single no-op so the odometer below walks exactly the declared
	// grid in declaration order, innermost axis last.
	axes := [][]func(*Scenario){
		axisOf(s.Layers, func(sc *Scenario, v int) { sc.Layers = v }),
		axisOf(s.Cooling, func(sc *Scenario, v string) { sc.Cooling = v }),
		axisOf(s.Policy, func(sc *Scenario, v string) { sc.Policy = v }),
		axisOf(s.Workload, func(sc *Scenario, v string) { sc.Workload = v }),
		axisOf(s.DPM, func(sc *Scenario, v bool) { sc.DPM = v }),
		axisOf(s.ControlEvery, func(sc *Scenario, v int) { sc.ControlEvery = v }),
		axisOf(s.Stepping, func(sc *Scenario, v Stepping) { sc.Stepping = v }),
		axisOf(s.Seeds, func(sc *Scenario, v int64) { sc.Seed = v }),
	}
	base := s.Base.materialized()

	out := make([]Scenario, 0, total)
	idx := make([]int, len(axes))
	for i := 0; i < total; i++ {
		sc := base
		for ai, a := range axes {
			a[idx[ai]](&sc)
		}
		skipped := false
		for _, f := range s.Skip {
			if f.matches(sc) {
				skipped = true
				break
			}
		}
		if !skipped {
			if err := sc.Validate(); err != nil {
				return nil, fmt.Errorf("sweep member %d: %w", i, err)
			}
			out = append(out, sc)
		}
		// Advance the odometer, innermost axis fastest.
		for ai := len(axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(axes[ai]) {
				break
			}
			idx[ai] = 0
		}
	}
	return out, nil
}

// axisOf lowers one axis to its setter list (a single no-op when empty).
func axisOf[T any](values []T, set func(*Scenario, T)) []func(*Scenario) {
	if len(values) == 0 {
		return []func(*Scenario){func(*Scenario) {}}
	}
	out := make([]func(*Scenario), len(values))
	for i, v := range values {
		v := v
		out[i] = func(sc *Scenario) { set(sc, v) }
	}
	return out
}
