package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Queue errors. Worker-protocol handlers map these onto structured
// HTTP errors; a worker that sees ErrUnknownWorker re-registers, one
// that sees ErrNotOwner drops the stale result (its lease lapsed and
// the job was requeued — determinism makes the duplicate harmless).
var (
	ErrUnknownWorker = errors.New("fleet: unknown worker")
	ErrUnknownJob    = errors.New("fleet: unknown job")
	ErrNotOwner      = errors.New("fleet: job not owned by this worker")
)

// LocalWorker is the reserved worker ID of the daemon's in-process
// executor: it runs queue jobs while no fleet worker is reachable, and a
// worker daemon's adopted attempts (see Adopt). Local jobs carry no
// lease: the runner lives in the queue's own process, so "unreachable"
// is meaningless short of a crash — which the journal's restart
// recovery already covers.
const LocalWorker = "local"

// DefaultRetain is coolserved's default for QueueConfig.Retain.
const DefaultRetain = 128

// QueueConfig tunes the queue's robustness machinery. The zero value
// gets the documented defaults.
type QueueConfig struct {
	// LeaseTTL is how long a booked/executing job stays owned without a
	// heartbeat renewal, and how long a silent worker stays reachable.
	// Default 15 s. Heartbeat should be ~LeaseTTL/3.
	LeaseTTL time.Duration
	// Heartbeat is the renewal interval advertised to workers at
	// registration. Default LeaseTTL/3.
	Heartbeat time.Duration
	// MaxAttempts bounds execution attempts per job before the terminal
	// error state. Default 3.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry backoff:
	// base·2^(attempts−1) capped at BackoffCap, plus deterministic
	// jitter. Defaults 1 s and 30 s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Dir enables the durable journal; empty keeps the queue in memory.
	Dir string
	// Retain bounds the terminal jobs kept, in memory and in the
	// journal: beyond it the oldest are evicted. Held jobs (see
	// SubmitOptions.Hold) are neither evicted nor counted until
	// released. <= 0 keeps every job.
	Retain int
	// Clock defaults to the wall clock; tests inject a fake.
	Clock Clock
	// RingReplicas is the consistent-hash virtual-node count (default 64).
	RingReplicas int
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = time.Second
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// workerState is the dispatcher's view of one registered worker.
type workerState struct {
	id          string
	addr        string
	capacity    int
	inFlight    map[string]bool
	lastSeen    time.Time
	unreachable bool
	completed   int64
	registered  time.Time
}

// Queue is the daemon's job table: the state machine, the lease ledger,
// the worker registry with its consistent-hash ring, and the durable
// journal. It is passive — no internal goroutines; the daemon drives
// Sweep on a ticker and books local work when Ready fires (tests drive
// both with a fake clock).
type Queue struct {
	cfg   QueueConfig
	clock Clock
	store *store
	ready chan struct{}

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	workers map[string]*workerState
	ring    *ring
	seq     int64
	wseq    int64

	requeues      int64
	leaseExpiries int64
	workersLost   int64
	localRuns     int64
	corrupt       int
	recovered     int
}

// NewQueue builds a queue, recovering any journaled jobs when cfg.Dir
// is set: queued/requeued jobs survive verbatim, booked jobs return to
// queued (their lease died with the previous process — the assignment
// was void, so no attempt is consumed), and executing jobs are
// requeued with a recorded "lost" attempt.
func NewQueue(cfg QueueConfig) (*Queue, error) {
	cfg = cfg.withDefaults()
	q := &Queue{
		cfg:     cfg,
		clock:   cfg.Clock,
		jobs:    map[string]*Job{},
		workers: map[string]*workerState{},
		ring:    newRing(cfg.RingReplicas),
		ready:   make(chan struct{}, 1),
	}
	if cfg.Dir != "" {
		st, err := newStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		q.store = st
		jobs, corrupt, err := st.load()
		if err != nil {
			return nil, err
		}
		q.corrupt = len(corrupt)
		for _, j := range jobs {
			q.recoverLocked(j)
		}
		q.pruneLocked()
		q.signalLocked()
	}
	return q, nil
}

// LeaseTTL returns the effective lease TTL (after defaults).
func (q *Queue) LeaseTTL() time.Duration { return q.cfg.LeaseTTL }

// Ready fires (coalesced) whenever a job may have become bookable: a
// submission, a requeue, a worker lost or leaving, a restart recovery.
// Backoff expiry sends nothing; the daemon's Sweep ticker covers it.
func (q *Queue) Ready() <-chan struct{} { return q.ready }

func (q *Queue) signalLocked() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// pruneLocked evicts the oldest terminal jobs beyond cfg.Retain, from
// memory and from the journal. Jobs that are not terminal, or still
// held, are never evicted.
func (q *Queue) pruneLocked() {
	if q.cfg.Retain <= 0 {
		return
	}
	n := 0
	for _, id := range q.order {
		if j := q.jobs[id]; j.State.Terminal() && !j.Held {
			n++
		}
	}
	excess := n - q.cfg.Retain
	if excess <= 0 {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		if j := q.jobs[id]; excess > 0 && j.State.Terminal() && !j.Held {
			excess--
			delete(q.jobs, id)
			if q.store != nil {
				q.store.remove(id)
			}
			continue
		}
		kept = append(kept, id)
	}
	q.order = kept
}

// recoverLocked re-admits one journaled job at construction time.
func (q *Queue) recoverLocked(j *Job) {
	switch j.State {
	case StateBooked:
		// The booking never started executing and its lease is gone with
		// the old process: void the assignment without consuming an
		// attempt. (If the booked worker still runs and completes it,
		// the completion is rejected as not-owner — determinism makes
		// the duplicate execution harmless.)
		if n := len(j.Attempts); n > 0 && j.Attempts[n-1].Outcome == "" {
			j.Attempts = j.Attempts[:n-1]
		}
		j.State = StateQueued
		j.Worker = ""
		j.LeaseExpiry = time.Time{}
		q.persist(j)
	case StateExecuting:
		q.finishAttemptLocked(j, OutcomeLost, "dispatcher restarted mid-attempt")
		q.requeueLocked(j)
		q.persist(j)
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	if j.Seq > q.seq {
		q.seq = j.Seq
	}
	q.recovered++
}

// persist journals j if a store is configured. Transition persistence
// is best-effort after admission: a full disk must not wedge the
// in-memory fleet (the next successful save re-syncs the file).
func (q *Queue) persist(j *Job) {
	if q.store != nil {
		_ = q.store.save(j)
	}
}

// SubmitOptions carries the per-job knobs of a submission. The zero
// value means: queue-default attempts, interactive priority, no
// campaign tag, evictable once terminal.
type SubmitOptions struct {
	// MaxAttempts ≤ 0 takes the queue default.
	MaxAttempts int
	// Priority is the booking tier (PriorityInteractive or PriorityBulk).
	Priority int
	// Campaign and Member tag campaign fan-out jobs.
	Campaign string
	Member   int
	// Hold keeps the job from eviction until Release: its submitter
	// still has to collect the terminal result (campaign members,
	// batch fan-outs).
	Hold bool
}

// Submit admits a new job. scenario must be canonicalized JSON (the
// workers re-execute exactly these bytes); specKey routes the job on
// the worker ring. Submission is the one transition whose journal write
// must succeed — a job the dispatcher acknowledged may not vanish in a
// restart.
func (q *Queue) Submit(scenario json.RawMessage, specKey string, opts SubmitOptions) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = q.cfg.MaxAttempts
	}
	q.seq++
	j := &Job{
		ID:          fmt.Sprintf("job-%d", q.seq),
		Seq:         q.seq,
		SpecKey:     specKey,
		Scenario:    scenario,
		MaxAttempts: maxAttempts,
		Priority:    opts.Priority,
		Campaign:    opts.Campaign,
		Member:      opts.Member,
		Held:        opts.Hold,
		State:       StateQueued,
		Created:     q.clock.Now(),
	}
	if q.store != nil {
		if err := q.store.save(j); err != nil {
			q.seq--
			return Job{}, err
		}
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	q.signalLocked()
	return j.snapshot(), nil
}

// Adopt admits a job its caller is already executing in-process under
// its own id: a worker daemon's dispatched attempt, which stays visible
// on that daemon's API as "<fleet-id>.<attempt>". The job is booked to
// LocalWorker at once with a single attempt (a restart turns it into an
// error, never a retry: the dispatcher owns the retries), and is never
// offered to Poll or BookLocal.
func (q *Queue) Adopt(id string, scenario json.RawMessage, specKey string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.jobs[id] != nil {
		return Job{}, fmt.Errorf("fleet: job %s already exists", id)
	}
	now := q.clock.Now()
	q.seq++
	j := &Job{
		ID:          id,
		Seq:         q.seq,
		SpecKey:     specKey,
		Scenario:    scenario,
		MaxAttempts: 1,
		State:       StateExecuting,
		Worker:      LocalWorker,
		Attempts:    []Attempt{{Worker: LocalWorker, Started: now}},
		Created:     now,
	}
	q.persist(j)
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.localRuns++
	return j.snapshot(), nil
}

// Release lifts a job's Hold: its submitter has recorded the terminal
// result, so the job may now be evicted. Unknown jobs are ignored.
func (q *Queue) Release(jobID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j := q.jobs[jobID]; j != nil && j.Held {
		j.Held = false
		q.persist(j)
		q.pruneLocked()
	}
}

// Register admits a worker with the given capacity and returns its
// assigned ID plus the lease/heartbeat intervals it must honor.
func (q *Queue) Register(addr string, capacity int) (id string, leaseTTL, heartbeat time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if capacity <= 0 {
		capacity = 1
	}
	q.wseq++
	id = fmt.Sprintf("w%d", q.wseq)
	now := q.clock.Now()
	q.workers[id] = &workerState{
		id: id, addr: addr, capacity: capacity,
		inFlight: map[string]bool{}, lastSeen: now, registered: now,
	}
	q.ring.add(id)
	return id, q.cfg.LeaseTTL, q.cfg.Heartbeat
}

// Deregister removes a worker (graceful shutdown), requeueing anything
// it still holds without consuming an attempt beyond the "lost" record.
func (q *Queue) Deregister(workerID string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.workers[workerID]
	if w == nil {
		return
	}
	q.dropWorkerJobsLocked(w, "worker "+workerID+" deregistered")
	q.ring.remove(workerID)
	delete(q.workers, workerID)
	q.signalLocked()
}

// touchWorkerLocked records liveness; an unreachable worker that shows
// up again rejoins the ring (its previous jobs were already requeued).
func (q *Queue) touchWorkerLocked(w *workerState) {
	w.lastSeen = q.clock.Now()
	if w.unreachable {
		w.unreachable = false
		q.ring.add(w.id)
	}
}

// eligibleLocked reports whether j can be booked right now.
func (q *Queue) eligibleLocked(j *Job, now time.Time) bool {
	switch j.State {
	case StateQueued:
		return true
	case StateRequeued:
		return !now.Before(j.NotBefore)
	}
	return false
}

// Poll books up to slots eligible jobs onto workerID and returns them
// in wire form. Booking is priority-major: every eligible interactive
// job is considered before any bulk job. Within a priority, routing is
// two-pass: first the jobs the consistent-hash ring assigns to this
// worker (so its platform caches stay hot for its stack shapes), then —
// fallback — jobs whose owner is unreachable, gone, or out of free
// capacity. Polling counts as a heartbeat.
func (q *Queue) Poll(workerID string, slots int) ([]WireJob, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.workers[workerID]
	if w == nil {
		return nil, ErrUnknownWorker
	}
	q.touchWorkerLocked(w)
	free := w.capacity - len(w.inFlight)
	if slots <= 0 || slots > free {
		slots = free
	}
	if slots <= 0 {
		return nil, nil
	}
	now := q.clock.Now()
	var out []WireJob
	for _, pri := range []int{PriorityInteractive, PriorityBulk} {
		for pass := 0; pass < 2 && len(out) < slots; pass++ {
			for _, id := range q.order {
				if len(out) >= slots {
					break
				}
				j := q.jobs[id]
				if j.Priority != pri || !q.eligibleLocked(j, now) {
					continue
				}
				owner := q.ring.owner(j.SpecKey)
				if pass == 0 {
					if owner != workerID {
						continue
					}
				} else {
					if owner == workerID {
						continue // already taken in pass 0 (or slots filled)
					}
					if ow := q.workers[owner]; ow != nil && !ow.unreachable &&
						len(ow.inFlight) < ow.capacity {
						continue // the owner can still take it: preserve affinity
					}
				}
				j.State = StateBooked
				j.Worker = workerID
				j.LeaseExpiry = now.Add(q.cfg.LeaseTTL)
				j.Attempts = append(j.Attempts, Attempt{Worker: workerID, Started: now})
				w.inFlight[j.ID] = true
				q.persist(j)
				out = append(out, WireJob{ID: j.ID, Scenario: j.Scenario, Attempt: len(j.Attempts)})
			}
		}
	}
	return out, nil
}

// Heartbeat renews the leases of everything workerID holds and
// reconciles its executing set: booked jobs the worker reports as
// executing transition to StateExecuting; jobs the dispatcher no longer
// credits to this worker come back in Unknown (the worker must abandon
// them); cancel-requested jobs come back in Cancel.
func (q *Queue) Heartbeat(workerID string, executing []string) (HeartbeatResponse, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.workers[workerID]
	if w == nil {
		return HeartbeatResponse{}, ErrUnknownWorker
	}
	q.touchWorkerLocked(w)
	now := q.clock.Now()
	var resp HeartbeatResponse
	for _, id := range executing {
		j := q.jobs[id]
		if j == nil || j.Worker != workerID ||
			(j.State != StateBooked && j.State != StateExecuting) {
			resp.Unknown = append(resp.Unknown, id)
			continue
		}
		if j.State == StateBooked {
			j.State = StateExecuting
			q.persist(j)
		}
		if j.CancelRequested {
			resp.Cancel = append(resp.Cancel, id)
		}
	}
	// Renew every lease this worker holds (booked jobs it has not
	// started yet included). Pure renewals are not journaled: leases are
	// void across restarts anyway.
	for id := range w.inFlight {
		if j := q.jobs[id]; j != nil && j.Worker == workerID && !j.State.Terminal() {
			j.LeaseExpiry = now.Add(q.cfg.LeaseTTL)
		}
	}
	return resp, nil
}

// ownedLocked resolves a (worker, job) pair for completion/failure.
func (q *Queue) ownedLocked(workerID, jobID string) (*Job, error) {
	j := q.jobs[jobID]
	if j == nil {
		return nil, ErrUnknownJob
	}
	if j.Worker != workerID || (j.State != StateBooked && j.State != StateExecuting) {
		return nil, ErrNotOwner
	}
	return j, nil
}

// finishAttemptLocked closes the in-flight attempt, if any.
func (q *Queue) finishAttemptLocked(j *Job, outcome, msg string) {
	if n := len(j.Attempts); n > 0 && j.Attempts[n-1].Outcome == "" {
		j.Attempts[n-1].Ended = q.clock.Now()
		j.Attempts[n-1].Outcome = outcome
		j.Attempts[n-1].Error = msg
	}
}

// releaseLocked clears the worker assignment (and the holder's
// in-flight slot, when the holder is a registered worker).
func (q *Queue) releaseLocked(j *Job) {
	if w := q.workers[j.Worker]; w != nil {
		delete(w.inFlight, j.ID)
	}
	j.Worker = ""
	j.LeaseExpiry = time.Time{}
}

// requeueLocked decides a failed/lost attempt's aftermath: terminal
// cancellation if one was requested, the terminal error state once
// MaxAttempts is exhausted, else StateRequeued behind an exponential
// backoff with deterministic jitter.
func (q *Queue) requeueLocked(j *Job) {
	q.releaseLocked(j)
	if j.CancelRequested {
		j.State = StateCanceled
		j.Error = "canceled"
		return
	}
	attempts := len(j.Attempts)
	if attempts >= j.MaxAttempts {
		last := ""
		if attempts > 0 {
			a := j.Attempts[attempts-1]
			last = a.Outcome
			if a.Error != "" {
				last += ": " + a.Error
			}
		}
		j.State = StateError
		j.Error = fmt.Sprintf("failed after %d attempts (last: %s)", attempts, last)
		return
	}
	j.State = StateRequeued
	j.NotBefore = q.clock.Now().Add(
		backoffDelay(q.cfg.BackoffBase, q.cfg.BackoffCap, j.ID, attempts))
	q.requeues++
	q.signalLocked()
}

// Complete records a successful attempt's report. A completion from a
// lapsed lease (the job was requeued to someone else) is rejected with
// ErrNotOwner; the caller drops it.
func (q *Queue) Complete(workerID, jobID string, report json.RawMessage) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.ownedLocked(workerID, jobID)
	if err != nil {
		return err
	}
	q.finishAttemptLocked(j, OutcomeCompleted, "")
	q.releaseLocked(j)
	if w := q.workers[workerID]; w != nil {
		w.completed++
	}
	j.State = StateCompleted
	j.Report = report
	j.Error = ""
	q.persist(j)
	q.pruneLocked()
	return nil
}

// Fail records a failed attempt. kind is one of OutcomeError,
// OutcomePanic or OutcomeCanceled; a canceled attempt resolves the job
// terminally only if the cancel was dispatcher-requested — a worker
// aborting for its own reasons (drain, shutdown) is recorded as lost
// and the job retries elsewhere.
func (q *Queue) Fail(workerID, jobID, msg, kind string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.ownedLocked(workerID, jobID)
	if err != nil {
		return err
	}
	switch kind {
	case OutcomeCanceled:
		if j.CancelRequested {
			q.finishAttemptLocked(j, OutcomeCanceled, msg)
			q.releaseLocked(j)
			j.State = StateCanceled
			j.Error = "canceled"
		} else {
			q.finishAttemptLocked(j, OutcomeLost, msg)
			q.requeueLocked(j)
		}
	case OutcomePanic:
		q.finishAttemptLocked(j, OutcomePanic, msg)
		q.requeueLocked(j)
	default:
		q.finishAttemptLocked(j, OutcomeError, msg)
		q.requeueLocked(j)
	}
	q.persist(j)
	q.pruneLocked()
	return nil
}

// Cancel resolves a waiting job immediately and flags a held one for
// cancellation (relayed to its worker on the next heartbeat). Terminal
// jobs are left untouched.
func (q *Queue) Cancel(jobID string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[jobID]
	if j == nil {
		return Job{}, ErrUnknownJob
	}
	switch {
	case j.State.Terminal():
	case j.State == StateQueued || j.State == StateRequeued:
		j.State = StateCanceled
		j.Error = "canceled before start"
		q.persist(j)
	default:
		if !j.CancelRequested {
			j.CancelRequested = true
			q.persist(j)
		}
	}
	snap := j.snapshot()
	q.pruneLocked()
	return snap, nil
}

// dropWorkerJobsLocked requeues everything w holds with a lost attempt.
func (q *Queue) dropWorkerJobsLocked(w *workerState, reason string) {
	for id := range w.inFlight {
		j := q.jobs[id]
		if j == nil || j.Worker != w.id || j.State.Terminal() {
			continue
		}
		q.finishAttemptLocked(j, OutcomeLost, reason)
		q.requeueLocked(j)
		q.persist(j)
	}
	w.inFlight = map[string]bool{}
}

// Sweep is the robustness heartbeat of the dispatcher: it marks
// workers whose last heartbeat is older than the lease TTL as
// unreachable (removing them from the routing ring and requeueing
// their jobs), and requeues any individually expired lease. The
// dispatcher calls it on a ticker; fake-clock tests call it directly.
func (q *Queue) Sweep() {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.clock.Now()
	for _, w := range q.workers {
		if !w.unreachable && now.Sub(w.lastSeen) > q.cfg.LeaseTTL {
			w.unreachable = true
			q.ring.remove(w.id)
			q.workersLost++
			q.dropWorkerJobsLocked(w, "worker "+w.id+" unreachable (no heartbeat)")
		}
	}
	for _, id := range q.order {
		j := q.jobs[id]
		if (j.State == StateBooked || j.State == StateExecuting) &&
			j.Worker != LocalWorker && !j.LeaseExpiry.IsZero() && now.After(j.LeaseExpiry) {
			q.leaseExpiries++
			q.finishAttemptLocked(j, OutcomeLost, "lease expired")
			q.requeueLocked(j)
			q.persist(j)
		}
	}
	q.pruneLocked()
}

// ReachableWorkers counts registered, reachable workers — the
// dispatcher's "should I degrade to local execution?" signal.
func (q *Queue) ReachableWorkers() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.ring.size()
}

// BookLocal books the oldest eligible job of the highest eligible
// priority onto the daemon's in-process executor — taken only while
// zero reachable workers are registered. Local jobs skip the booked
// stage (the runner starts immediately) and carry no lease.
func (q *Queue) BookLocal() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.ring.size() > 0 {
		return nil
	}
	now := q.clock.Now()
	for _, pri := range []int{PriorityInteractive, PriorityBulk} {
		for _, id := range q.order {
			j := q.jobs[id]
			if j.Priority != pri || !q.eligibleLocked(j, now) {
				continue
			}
			j.State = StateExecuting
			j.Worker = LocalWorker
			j.LeaseExpiry = time.Time{}
			j.Attempts = append(j.Attempts, Attempt{Worker: LocalWorker, Started: now})
			q.localRuns++
			q.persist(j)
			s := j.snapshot()
			return &s
		}
	}
	return nil
}

// LocalBacklog counts the work the in-process executor still has: jobs
// it runs now, plus the jobs BookLocal could book now. A draining
// daemon waits for it to reach zero.
func (q *Queue) LocalBacklog() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.clock.Now()
	local := q.ring.size() == 0
	n := 0
	for _, id := range q.order {
		j := q.jobs[id]
		if (j.Worker == LocalWorker && !j.State.Terminal()) || (local && q.eligibleLocked(j, now)) {
			n++
		}
	}
	return n
}

// WorkerAddr returns the advertised HTTP address of a registered worker
// — the dispatcher's stream proxy dials it to tap a dispatched job's
// live frames. ok is false for unknown (e.g. deregistered) workers and
// for LocalWorker.
func (q *Queue) WorkerAddr(workerID string) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.workers[workerID]
	if w == nil {
		return "", false
	}
	return w.addr, true
}

// Has reports whether the queue still holds a job (eviction drops it).
func (q *Queue) Has(jobID string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.jobs[jobID] != nil
}

// Get returns a snapshot of one job.
func (q *Queue) Get(jobID string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[jobID]
	if j == nil {
		return Job{}, ErrUnknownJob
	}
	return j.snapshot(), nil
}

// List returns snapshots of every job in submission order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.jobs[id].snapshot())
	}
	return out
}

// WorkerView is the metrics form of one registered worker.
type WorkerView struct {
	ID          string `json:"id"`
	Addr        string `json:"addr,omitempty"`
	Capacity    int    `json:"capacity"`
	InFlight    int    `json:"in_flight"`
	Unreachable bool   `json:"unreachable,omitempty"`
	Completed   int64  `json:"completed"`
	// LastSeenMs is milliseconds since the worker's last heartbeat/poll.
	LastSeenMs int64 `json:"last_seen_ms"`
}

// JobCounts tallies jobs per lifecycle state.
type JobCounts struct {
	Queued    int `json:"queued"`
	Booked    int `json:"booked"`
	Executing int `json:"executing"`
	Completed int `json:"completed"`
	Error     int `json:"error"`
	Requeued  int `json:"requeued"`
	Canceled  int `json:"canceled"`
	Total     int `json:"total"`
}

// Metrics is the fleet rollup served by the dispatcher's /v1/metrics.
type Metrics struct {
	Jobs    JobCounts    `json:"jobs"`
	Workers []WorkerView `json:"workers"`
	// Requeues counts every retry re-admission; LeaseExpiries the
	// subset caused by individual lease timeouts; WorkersLost the
	// unreachable-worker events; LocalRuns the jobs executed by the
	// dispatcher's in-process fallback.
	Requeues      int64 `json:"requeues"`
	LeaseExpiries int64 `json:"lease_expiries"`
	WorkersLost   int64 `json:"workers_lost"`
	LocalRuns     int64 `json:"local_runs"`
	// Attempts histograms terminal jobs by how many attempts they
	// consumed ("1", "2", ...) — a healthy fleet is all "1".
	Attempts map[string]int `json:"attempts,omitempty"`
	// RecoveredJobs / CorruptJournal report the last restart recovery.
	RecoveredJobs  int `json:"recovered_jobs,omitempty"`
	CorruptJournal int `json:"corrupt_journal,omitempty"`
}

// Snapshot assembles the fleet rollup.
func (q *Queue) Snapshot() Metrics {
	q.mu.Lock()
	defer q.mu.Unlock()
	m := Metrics{
		Requeues:       q.requeues,
		LeaseExpiries:  q.leaseExpiries,
		WorkersLost:    q.workersLost,
		LocalRuns:      q.localRuns,
		Attempts:       map[string]int{},
		RecoveredJobs:  q.recovered,
		CorruptJournal: q.corrupt,
	}
	now := q.clock.Now()
	for _, id := range q.order {
		j := q.jobs[id]
		m.Jobs.Total++
		switch j.State {
		case StateQueued:
			m.Jobs.Queued++
		case StateBooked:
			m.Jobs.Booked++
		case StateExecuting:
			m.Jobs.Executing++
		case StateCompleted:
			m.Jobs.Completed++
		case StateError:
			m.Jobs.Error++
		case StateRequeued:
			m.Jobs.Requeued++
		case StateCanceled:
			m.Jobs.Canceled++
		}
		if j.State.Terminal() && len(j.Attempts) > 0 {
			m.Attempts[fmt.Sprintf("%d", len(j.Attempts))]++
		}
	}
	for _, w := range q.workers {
		m.Workers = append(m.Workers, WorkerView{
			ID: w.id, Addr: w.addr, Capacity: w.capacity,
			InFlight: len(w.inFlight), Unreachable: w.unreachable,
			Completed:  w.completed,
			LastSeenMs: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(m.Workers, func(i, k int) bool { return m.Workers[i].ID < m.Workers[k].ID })
	if len(m.Attempts) == 0 {
		m.Attempts = nil
	}
	return m
}
