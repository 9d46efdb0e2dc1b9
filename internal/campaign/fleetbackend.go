package campaign

import (
	"encoding/json"

	"repro/internal/fleet"
)

// FleetBackend executes campaign members as fleet jobs: each member
// becomes one queued job tagged with its campaign ID and member index,
// at the campaign's priority (bulk by default, so interactive
// POST /v1/runs submissions keep booking first). Because the queue
// journal recovers jobs across daemon restarts, Status keeps answering
// for members submitted by a previous process — the property the
// manager's resume leans on to avoid resubmitting work that is already
// in flight. Members are submitted held, so the queue's retention never
// evicts one before the manager has recorded its terminal status.
type FleetBackend struct {
	Q *fleet.Queue
}

// SubmitGroup enqueues the group's members in order. Same-key jobs are
// adjacent in booking order and consistent-hash routed to one worker,
// so the platform prebuild happens once per stack shape and every
// sibling warm-starts.
func (b FleetBackend) SubmitGroup(campaignID string, members []Member, opts GroupOptions) ([]string, error) {
	ids := make([]string, len(members))
	for i, m := range members {
		j, err := b.Q.Submit(m.Scenario, m.SpecKey, fleet.SubmitOptions{
			MaxAttempts: opts.MaxAttempts,
			Priority:    opts.Priority,
			Campaign:    campaignID,
			Member:      m.Index,
			Hold:        true,
		})
		if err != nil {
			// Journal write failed: report the partial assignment so the
			// admitted prefix is not resubmitted later.
			return ids[:i], err
		}
		ids[i] = j.ID
	}
	return ids, nil
}

// Status maps the fleet state machine onto the member lifecycle.
func (b FleetBackend) Status(jobID string) (MemberStatus, json.RawMessage, string, error) {
	j, err := b.Q.Get(jobID)
	if err != nil {
		return "", nil, "", err
	}
	switch j.State {
	case fleet.StateBooked, fleet.StateExecuting:
		return StatusRunning, nil, "", nil
	case fleet.StateCompleted:
		return StatusDone, j.Report, "", nil
	case fleet.StateError:
		return StatusError, nil, j.Error, nil
	case fleet.StateCanceled:
		return StatusCanceled, nil, j.Error, nil
	}
	return StatusPending, nil, "", nil
}

// Cancel relays a member cancel to the queue.
func (b FleetBackend) Cancel(jobID string) error {
	_, err := b.Q.Cancel(jobID)
	return err
}

// Release lets the queue evict a member job whose terminal status the
// manager has recorded.
func (b FleetBackend) Release(jobID string) {
	b.Q.Release(jobID)
}
