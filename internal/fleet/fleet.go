// Package fleet owns the hardened job lifecycle of the distributed
// simulation fleet: a dispatcher-side Queue with the explicit state
// machine
//
//	queued → booked → executing → completed | error | requeued
//
// (requeued jobs re-enter booking once their retry backoff elapses,
// canceled is the operator-requested terminal state), plus the
// worker-side client loop that pulls work under a renewable lease.
//
// Robustness is the design center:
//
//   - Workers hold jobs under a lease (TTL ~3× the heartbeat interval).
//     A worker that stops heartbeating is marked unreachable and its
//     jobs are requeued; a lease that expires while the worker still
//     heartbeats (a wedged job) is requeued the same way.
//   - Every requeue and failure consumes one of the job's MaxAttempts;
//     retries wait out an exponential backoff with deterministic
//     jitter, and an exhausted job lands in the terminal error state
//     carrying its full attempt history.
//   - The queue journals every job as a JSON file under a state
//     directory (atomic temp-file + rename, like the platform disk
//     cache) and recovers it on restart: queued jobs survive verbatim,
//     booked jobs return to the queue (their lease died with the
//     process), executing jobs are requeued with a recorded "lost"
//     attempt. Terminal jobs beyond QueueConfig.Retain are evicted, oldest
//     first, from memory and from the journal.
//   - Jobs are routed consistent-hashed by platform spec key so each
//     worker's platform/LDLᵀ/LUT caches stay hot for "its" stack
//     shapes, with hash-ring fallback when the owning node is busy,
//     unreachable or gone.
//
// Scenarios are deterministic, so a requeued job produces a
// byte-identical report to an uninterrupted run — the property the
// queue tests pin with a faked clock and CI pins by SIGKILLing a
// worker mid-job.
package fleet

import (
	"encoding/json"
	"fmt"
	"time"
)

// State is one stage of the job lifecycle.
type State string

// The job lifecycle states. Queued, Requeued are eligible for booking;
// Completed, Error and Canceled are terminal.
const (
	StateQueued    State = "queued"
	StateBooked    State = "booked"
	StateExecuting State = "executing"
	StateCompleted State = "completed"
	StateError     State = "error"
	StateRequeued  State = "requeued"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final: no further transitions.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateError || s == StateCanceled
}

// Attempt outcome labels recorded in a job's history.
const (
	// OutcomeCompleted: the attempt produced the job's report.
	OutcomeCompleted = "completed"
	// OutcomeError: the worker reported a simulation error.
	OutcomeError = "error"
	// OutcomePanic: the worker's runner panicked (isolated, reported).
	OutcomePanic = "panic"
	// OutcomeCanceled: the attempt ended because the job was canceled.
	OutcomeCanceled = "canceled"
	// OutcomeLost: the lease expired, the worker became unreachable, or
	// the dispatcher restarted while the attempt was executing.
	OutcomeLost = "lost"
)

// Job priorities. Booking is priority-major: every eligible interactive
// job books before any bulk job, regardless of submission order;
// within a priority the usual FIFO + ring-affinity order applies. Two
// levels are deliberate — interactive API submissions versus campaign
// fan-out — so a large sweep can saturate the fleet without adding
// latency to one-off runs.
const (
	// PriorityInteractive is the default for direct submissions
	// (POST /v1/runs, /v1/batches).
	PriorityInteractive = 0
	// PriorityBulk is the campaign fan-out tier: booked only when no
	// interactive work is eligible.
	PriorityBulk = 1
)

// ParsePriority maps the wire form of the ?priority= knob onto a
// priority level. The empty string is the interactive default.
func ParsePriority(s string) (int, error) {
	switch s {
	case "", "interactive", "0":
		return PriorityInteractive, nil
	case "bulk", "1":
		return PriorityBulk, nil
	}
	return 0, fmt.Errorf("fleet: unknown priority %q (want interactive or bulk)", s)
}

// Attempt is one entry of a job's execution history: which worker held
// it, when, and how it ended. An in-flight attempt has no Outcome yet.
type Attempt struct {
	Worker  string    `json:"worker"`
	Started time.Time `json:"started"`
	Ended   time.Time `json:"ended,omitzero"`
	Outcome string    `json:"outcome,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// Job is one queued scenario and its full lifecycle record. The struct
// is the journal format of the durable store; Queue methods hand out
// deep-enough snapshots (Attempts copied, immutable RawMessages
// shared), never the live pointer.
type Job struct {
	// ID is the dispatcher-assigned identity ("job-<seq>").
	ID string `json:"id"`
	// Seq orders jobs FIFO (and survives restarts).
	Seq int64 `json:"seq"`
	// SpecKey is the canonical platform identity used for
	// consistent-hash routing (coolsim.Scenario.PlatformKey).
	SpecKey string `json:"spec_key"`
	// Scenario is the canonicalized scenario JSON the workers execute.
	Scenario json.RawMessage `json:"scenario"`
	// MaxAttempts bounds execution attempts before the terminal error
	// state; 0 means the queue default.
	MaxAttempts int `json:"max_attempts"`
	// Priority is the booking tier (PriorityInteractive or
	// PriorityBulk). Absent in pre-priority journals, which decodes to
	// the interactive default.
	Priority int `json:"priority,omitempty"`
	// Campaign and Member tag a job submitted as part of a campaign:
	// the campaign ID and the member's index in the expanded scenario
	// list. Interactive jobs leave both zero.
	Campaign string `json:"campaign,omitempty"`
	Member   int    `json:"member,omitempty"`
	// Held keeps a terminal job from eviction until its submitter
	// releases it (SubmitOptions.Hold, Queue.Release).
	Held bool `json:"held,omitempty"`

	State State `json:"state"`
	// Attempts is the full execution history, oldest first.
	Attempts []Attempt `json:"attempts,omitempty"`
	// NotBefore gates a requeued job until its retry backoff elapses.
	NotBefore time.Time `json:"not_before,omitzero"`
	// Worker and LeaseExpiry identify the current holder of a booked or
	// executing job. Local (dispatcher-fallback) jobs carry no lease.
	Worker      string    `json:"worker,omitempty"`
	LeaseExpiry time.Time `json:"lease_expiry,omitzero"`
	// CancelRequested marks a cancel that must be relayed to the
	// holding worker (via its heartbeat) before the job can resolve.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	// Report is the completed run's report JSON; Error the terminal
	// failure message (carrying the attempt count).
	Report  json.RawMessage `json:"report,omitempty"`
	Error   string          `json:"error,omitempty"`
	Created time.Time       `json:"created"`
}

// snapshot returns a copy safe to hand outside the queue lock: the
// Attempts slice is copied; RawMessages are immutable and shared.
func (j *Job) snapshot() Job {
	c := *j
	c.Attempts = append([]Attempt(nil), j.Attempts...)
	return c
}

// Clock abstracts time so lease expiry, backoff and unreachable-worker
// detection are testable with a faked clock.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
