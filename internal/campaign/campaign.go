// Package campaign is the batch-exploration engine: it turns one
// submitted spec (an explicit scenario list or a coolsim.Sweep grid)
// into a tracked fan-out of member jobs, persists every completed
// report into a durable date/campaign/run results tree, and resumes
// interrupted campaigns after a daemon restart without re-running the
// members whose results already landed on disk.
//
// The package is deliberately split from execution:
//
//   - Manager owns campaign state: expansion, member bookkeeping,
//     progress/ETA, cancellation, and the reconcile loop that drives
//     members toward done.
//   - Backend abstracts where members execute. The daemon plugs in
//     FleetBackend: members are fleet.Queue jobs at bulk priority,
//     journal-recovered across restarts, and run by whoever runs the
//     queue's jobs (fleet workers, or the daemon's own executor).
//   - Repo owns the results tree (<dir>/<yyyy-mm-dd>/<campaign-id>/
//     manifest.json + run-<member>.json, atomic writes). Done-ness is
//     derived from result-file presence, which is what makes resume
//     trivially idempotent.
//
// Members are canonicalized at expansion (defaults materialized, stable
// field order), so a member executed remotely decodes to exactly the
// scenario RunMany would receive — and, scenarios being deterministic,
// a campaign's aggregate results are byte-identical to running the
// expanded list in-process.
package campaign

import (
	"encoding/json"
	"time"
)

// MemberStatus is the lifecycle of one campaign member, a coarser view
// of the backend's own state machine.
type MemberStatus string

const (
	// StatusPending: not yet submitted to the backend, or waiting in
	// its queue (including retry backoff).
	StatusPending MemberStatus = "pending"
	// StatusRunning: booked or executing.
	StatusRunning MemberStatus = "running"
	// StatusDone: report produced (and persisted, once the reconcile
	// loop has seen it).
	StatusDone MemberStatus = "done"
	// StatusError: terminally failed (attempts exhausted).
	StatusError MemberStatus = "error"
	// StatusCanceled: canceled before producing a report.
	StatusCanceled MemberStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s MemberStatus) Terminal() bool {
	return s == StatusDone || s == StatusError || s == StatusCanceled
}

// Member is one expanded scenario of a campaign: its index in the
// deterministic expansion order (the identity used by the results tree
// and the results stream), its canonical scenario bytes, and the
// platform spec key that groups members for prebuild and routes them on
// the fleet ring.
type Member struct {
	Index   int    `json:"index"`
	SpecKey string `json:"spec_key"`
	// Scenario is the canonical wire encoding (defaults materialized,
	// stable field order) every execution of this member uses.
	Scenario json.RawMessage `json:"scenario"`
	// JobID is the backend's handle for the member's current
	// submission; empty until submitted (and cleared when a restart
	// invalidates it, which triggers resubmission).
	JobID string `json:"job_id,omitempty"`
}

// Manifest is the durable identity of a campaign — what the results
// tree stores next to the run files and what resume reads back. The
// member list carries the canonical scenario bytes, so a resumed
// campaign resubmits exactly the bytes the original expansion produced.
type Manifest struct {
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	Created     time.Time `json:"created"`
	Priority    int       `json:"priority"`
	MaxAttempts int       `json:"max_attempts,omitempty"`
	// Canceled marks an operator cancel; a resumed canceled campaign
	// does not resubmit its pending members.
	Canceled bool     `json:"canceled,omitempty"`
	Members  []Member `json:"members"`
}

// Counts tallies a campaign's members per status.
type Counts struct {
	Pending  int `json:"pending"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Error    int `json:"error"`
	Canceled int `json:"canceled"`
}

// View is the wire form of one campaign's status
// (GET /v1/campaigns[/{id}]).
type View struct {
	ID      string    `json:"id"`
	Name    string    `json:"name,omitempty"`
	Created time.Time `json:"created"`
	// State is active until every member is terminal, then done; a
	// canceled campaign reports canceled.
	State    string `json:"state"`
	Priority string `json:"priority"`
	Members  int    `json:"members"`
	Counts   Counts `json:"counts"`
	// Progress is terminal members / total members, in [0, 1].
	Progress float64 `json:"progress"`
	// TicksPerSec is the observed completion rate (simulated base ticks
	// per wall second, summed over members completed by this process);
	// EtaSeconds extrapolates it over the non-terminal remainder. Both
	// are 0 until the first member completes locally.
	TicksPerSec float64 `json:"ticks_per_sec,omitempty"`
	EtaSeconds  float64 `json:"eta_seconds,omitempty"`
}

// MemberResult is one line of the campaign results stream: the member's
// report bytes exactly as the executing worker produced them, or a
// terminal error record.
type MemberResult struct {
	Index  int             `json:"member"`
	Status MemberStatus    `json:"status"`
	Report json.RawMessage `json:"-"`
	Error  string          `json:"error,omitempty"`
}

// Metrics is the campaign engine's rollup for GET /v1/metrics.
type Metrics struct {
	// Campaign counts by state.
	Active   int `json:"active"`
	Done     int `json:"done"`
	Canceled int `json:"canceled"`
	// ExpandedMembers counts every member admitted across all
	// campaigns; ResultsPersisted/ResultsLoaded count reports written
	// to and recovered from the results tree.
	ExpandedMembers  int64 `json:"expanded_members"`
	ResultsPersisted int64 `json:"results_persisted"`
	ResultsLoaded    int64 `json:"results_loaded"`
	// PrebuiltPlatforms counts distinct platform shapes (spec keys)
	// successfully warmed by the campaign-level prebuild before their
	// members were fanned out (see Manager.SetPrebuild).
	PrebuiltPlatforms int64 `json:"prebuilt_platforms"`
}
