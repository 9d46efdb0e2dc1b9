package coolsim

import (
	"errors"
	"fmt"
)

// ErrEmptyCampaign: a Campaign names neither an explicit scenario list
// nor a sweep spec (or names both).
var ErrEmptyCampaign = errors.New("coolsim: campaign needs exactly one of scenarios or sweep")

// Campaign is the submission form of a batch exploration — the wire
// body of POST /v1/campaigns on cmd/coolserved, and
// the programmatic entry used by the campaign engine. A campaign is
// either an explicit scenario list or a declarative Sweep grid; Expand
// lowers both to the same thing, a validated scenario slice in a
// deterministic member order.
type Campaign struct {
	// Name is a free-form label carried through status views and the
	// results tree manifest.
	Name string `json:"name,omitempty"`
	// Scenarios is the explicit member list. Unset fields of each entry
	// inherit DefaultScenario, exactly like a POST /v1/runs body.
	Scenarios []Scenario `json:"scenarios,omitempty"`
	// Sweep is the cartesian alternative. Exactly one of Scenarios and
	// Sweep must be set.
	Sweep *Sweep `json:"sweep,omitempty"`
	// MaxAttempts is the per-member execution attempt bound (0 = the
	// daemon's -max-attempts).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Priority is the fleet booking tier of the members: "bulk" (the
	// campaign default — interactive runs book first) or "interactive".
	Priority string `json:"priority,omitempty"`
}

// Expand lowers the campaign to its member scenarios: the sweep's
// deterministic expansion, or the explicit list with defaults
// materialized and every entry validated. Member order is the order a
// results stream and the durable results tree use.
func (c Campaign) Expand() ([]Scenario, error) {
	switch {
	case len(c.Scenarios) > 0 && c.Sweep != nil:
		return nil, ErrEmptyCampaign
	case c.Sweep != nil:
		return c.Sweep.Expand()
	case len(c.Scenarios) > 0:
		out := make([]Scenario, len(c.Scenarios))
		for i, sc := range c.Scenarios {
			sc = sc.materialized()
			if err := sc.Validate(); err != nil {
				return nil, fmt.Errorf("campaign scenario %d: %w", i, err)
			}
			out[i] = sc
		}
		return out, nil
	}
	return nil, ErrEmptyCampaign
}
