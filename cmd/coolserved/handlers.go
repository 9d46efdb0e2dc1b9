package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/coolsim"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// Client-facing job statuses of GET /v1/runs/{id}; the finer fleet
// state machine is exposed alongside in the "state" field.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
)

func clientStatus(st fleet.State) string {
	switch st {
	case fleet.StateQueued, fleet.StateRequeued:
		return statusQueued
	case fleet.StateBooked, fleet.StateExecuting:
		return statusRunning
	case fleet.StateCompleted:
		return statusDone
	case fleet.StateError:
		return statusFailed
	case fleet.StateCanceled:
		return statusCanceled
	}
	return string(st)
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("POST /v1/batches", s.handleBatch)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	// Campaign API (see internal/campaign): members are queue jobs, and
	// their live streams resolve through the same per-job hubs.
	(&campaign.API{M: s.camp, Draining: s.isDraining, Streams: s.hubFor}).Register(mux)
	// Worker protocol: another coolserved started with -dispatcher
	// registers here and turns this daemon into its dispatcher.
	mux.HandleFunc("POST /v1/fleet/register", s.handleRegister)
	mux.HandleFunc("POST /v1/fleet/deregister", s.handleDeregister)
	mux.HandleFunc("POST /v1/fleet/poll", s.handlePoll)
	mux.HandleFunc("POST /v1/fleet/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/complete", s.handleComplete)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The shared hardened decode: body size capped, unknown fields
	// rejected (a typoed knob fails loudly instead of silently simulating
	// the default), trailing garbage rejected, structured error bodies.
	sc := coolsim.DefaultScenario()
	if !fleet.DecodeJSON(w, r, 0, &sc) {
		return
	}
	if err := sc.Validate(); err != nil {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, err.Error())
		return
	}
	maxAttempts := 0
	if v := r.URL.Query().Get("max_attempts"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario,
				fmt.Sprintf("bad max_attempts %q (want a positive integer)", v))
			return
		}
		maxAttempts = n
	}
	priority, err := fleet.ParsePriority(r.URL.Query().Get("priority"))
	if err != nil {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, err.Error())
		return
	}
	raw, specKey, err := fleet.CanonicalScenario(sc)
	if err != nil {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, err.Error())
		return
	}
	if s.isDraining() {
		fleet.WriteError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "server is draining")
		return
	}
	j, err := s.q.Submit(raw, specKey, fleet.SubmitOptions{MaxAttempts: maxAttempts, Priority: priority})
	if err != nil {
		fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal,
			fmt.Sprintf("journal write failed: %v", err))
		return
	}
	s.book() // start it now if a local slot is free, before the client asks for its stream
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "status": clientStatus(j.State)})
}

// runView is the wire form of one job: the client status plus the fleet
// state machine and attempt history, live stream progress, and the
// report bytes exactly as the executing daemon produced them.
type runView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	State       string          `json:"state"`
	Scenario    json.RawMessage `json:"scenario"`
	Worker      string          `json:"worker,omitempty"`
	MaxAttempts int             `json:"max_attempts"`
	Attempts    []fleet.Attempt `json:"attempts,omitempty"`
	// Samples counts the ticks published so far (the stream's frame
	// count); TicksPerSec and EtaSeconds are live progress estimates
	// while the run executes.
	Samples     int             `json:"samples"`
	TicksPerSec float64         `json:"ticks_per_sec,omitempty"`
	EtaSeconds  float64         `json:"eta_seconds,omitempty"`
	Subscribers int             `json:"subscribers,omitempty"`
	Report      json.RawMessage `json:"report,omitempty"`
	Error       string          `json:"error,omitempty"`
}

func (s *server) view(j fleet.Job) runView {
	v := runView{
		ID: j.ID, Status: clientStatus(j.State), State: string(j.State),
		Scenario: j.Scenario, Worker: j.Worker,
		MaxAttempts: j.MaxAttempts, Attempts: j.Attempts,
		Report: j.Report, Error: j.Error,
	}
	if h := s.hub(j.ID); h != nil {
		st := h.Stats()
		v.Samples, v.Subscribers = int(st.Frames), st.Subscribers
		if v.Status == statusRunning {
			v.TicksPerSec, v.EtaSeconds = st.TicksPerSec, st.EtaSeconds
		}
	}
	return v
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.q.List()
	views := make([]runView, len(jobs))
	for i, j := range jobs {
		views[i] = s.view(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.cancelRun(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

// batchRequest is the wire form of POST /v1/batches: scenarios executed
// together, with the worker-slot count steering how aggressively
// platform-sharing scenarios are co-scheduled into batched multi-RHS
// solves (fewer slots than scenarios → wider batches).
type batchRequest struct {
	// Scenarios decode individually over DefaultScenario(), so unset
	// fields inherit the same defaults a /v1/runs submission gets.
	Scenarios []json.RawMessage `json:"scenarios"`
	// Workers bounds the in-process batch's worker pool; 0 defaults to
	// 1, which gangs every compatible scenario through shared solves. A
	// fanned-out batch ignores it: placement is the fleet's.
	Workers int `json:"workers,omitempty"`
}

type batchResponse struct {
	Reports []json.RawMessage `json:"reports"`
}

// handleBatch executes a scenario batch and holds the request open
// until every report is in, returning them in input order; client
// disconnect or drain cancels it. With no fleet worker reachable it
// runs coolsim.RunMany in-process on the platform cache: scenarios
// sharing a stack shape reuse one platform and, when they outnumber the
// worker slots, advance in lock-step through shared multi-RHS solves
// (the batch counters of /v1/metrics). Otherwise every scenario becomes
// a queue job for the fleet. Reports are byte-identical to single runs
// either way, batching diagnostics aside.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	if len(req.Scenarios) == 0 {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, "batch has no scenarios")
		return
	}
	scs := make([]coolsim.Scenario, len(req.Scenarios))
	for i, raw := range req.Scenarios {
		sc, err := fleet.DecodeScenario(raw)
		if err != nil {
			fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario,
				fmt.Sprintf("scenario %d: %v", i, err))
			return
		}
		scs[i] = sc
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		fleet.WriteError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "server is draining")
		return
	}
	s.batches++
	s.mu.Unlock()

	var reports []json.RawMessage
	var err error
	if s.q.ReachableWorkers() == 0 {
		reports, err = s.batchLocal(r, scs, req.Workers)
	} else {
		reports, err = s.batchFleet(r, scs)
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, batchResponse{Reports: reports})
	case r.Context().Err() != nil:
		// The client is gone; nobody reads an answer.
	case errors.Is(err, errCanceled):
		fleet.WriteError(w, http.StatusServiceUnavailable, fleet.CodeCanceled, err.Error())
	default:
		fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal, err.Error())
	}
}

var errCanceled = errors.New("batch canceled")

func (s *server) batchLocal(r *http.Request, scs []coolsim.Scenario, workers int) ([]json.RawMessage, error) {
	// Drain aborts via baseCtx; a client hang-up cancels via the request.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	defer context.AfterFunc(r.Context(), cancel)()
	reps, err := coolsim.RunMany(ctx, scs,
		coolsim.WithPlatformCache(s.pcache),
		coolsim.WithBatchCounters(&s.batch),
		coolsim.WithWorkers(max(workers, 1)))
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w: %v", errCanceled, err)
		}
		return nil, err
	}
	reports := make([]json.RawMessage, len(reps))
	for i, rep := range reps {
		if reports[i], err = json.Marshal(rep); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// batchFleet submits every scenario as a held queue job and polls until
// all of them resolve. A failed member fails the batch.
func (s *server) batchFleet(r *http.Request, scs []coolsim.Scenario) ([]json.RawMessage, error) {
	// The response carries reports, never job IDs, so a member left
	// behind by any early return could never be collected: cancel every
	// submitted member on the way out (a no-op once it is terminal), and
	// release it to eviction.
	ids := make([]string, 0, len(scs))
	defer func() {
		for _, id := range ids {
			s.q.Cancel(id)
			s.q.Release(id)
		}
	}()
	for i, sc := range scs {
		raw, key, err := fleet.CanonicalScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %v", i, err)
		}
		j, err := s.q.Submit(raw, key, fleet.SubmitOptions{Hold: true})
		if err != nil {
			return nil, fmt.Errorf("journal write failed: %v", err)
		}
		ids = append(ids, j.ID)
	}
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.Context().Done():
			return nil, r.Context().Err()
		case <-s.baseCtx.Done():
			return nil, fmt.Errorf("%w: server shut down", errCanceled)
		case <-t.C:
		}
		reports := make([]json.RawMessage, len(ids))
		done := true
		for i, id := range ids {
			j, err := s.q.Get(id)
			switch {
			case err != nil:
				return nil, fmt.Errorf("job %s vanished", id)
			case !j.State.Terminal():
				done = false
			case j.State != fleet.StateCompleted:
				return nil, fmt.Errorf("job %s %s: %s", id, j.State, j.Error)
			default:
				reports[i] = j.Report
			}
		}
		if done {
			return reports, nil
		}
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := s.q.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  map[bool]string{false: "ok", true: "draining"}[s.isDraining()],
		"jobs":    m.Jobs.Total,
		"workers": len(m.Workers),
	})
}

// metricsView is the wire form of GET /v1/metrics.
type metricsView struct {
	// Jobs counts retained jobs by client status; Started counts the
	// jobs this daemon executed in-process.
	Jobs struct {
		Queued   int   `json:"queued"`
		Running  int   `json:"running"`
		Done     int   `json:"done"`
		Failed   int   `json:"failed"`
		Canceled int   `json:"canceled"`
		Retained int   `json:"retained"`
		Started  int64 `json:"started"`
	} `json:"jobs"`
	// Fleet is the queue rollup: jobs per state, registered workers,
	// requeues, lost workers, attempt histogram.
	Fleet         fleet.Metrics              `json:"fleet"`
	PlatformCache coolsim.PlatformCacheStats `json:"platform_cache"`
	// Stepping sums the time-advance counters of every run completed
	// in-process.
	Stepping steppingTotals `json:"stepping"`
	// Batches counts POST /v1/batches requests; Batch carries the
	// lifetime batched-solve statistics of the in-process ones (sweeps,
	// batched_solves and the batch_width histogram).
	Batches   int64              `json:"batches"`
	Batch     coolsim.BatchStats `json:"batch"`
	Campaigns campaign.Metrics   `json:"campaigns"`
	// Streams aggregates every job hub: attached subscribers, frames
	// and bytes fanned out, slow-consumer evictions, retained ring depth.
	Streams  stream.Totals `json:"streams"`
	Draining bool          `json:"draining"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var v metricsView
	v.Fleet = s.q.Snapshot()
	c := v.Fleet.Jobs
	v.Jobs.Queued = c.Queued + c.Requeued
	v.Jobs.Running = c.Booked + c.Executing
	v.Jobs.Done, v.Jobs.Failed, v.Jobs.Canceled = c.Completed, c.Error, c.Canceled
	v.Jobs.Retained = c.Total
	v.Jobs.Started = v.Fleet.LocalRuns
	s.mu.Lock()
	v.Stepping = s.stepping
	v.Batches = s.batches
	v.Draining = s.draining
	s.mu.Unlock()
	v.PlatformCache = s.pcache.Stats()
	v.Batch = s.batch.Stats()
	v.Campaigns = s.camp.Metrics()
	s.addStreamTotals(&v.Streams)
	writeJSON(w, http.StatusOK, v)
}

// Worker-protocol handlers. Queue errors map to structured codes the
// worker dispatches on: unknown_worker → re-register; conflict → drop
// the stale result.

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.RegisterRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	id, lease, hb := s.q.Register(req.Addr, req.Capacity)
	writeJSON(w, http.StatusOK, fleet.RegisterResponse{
		WorkerID:    id,
		LeaseTTLMs:  lease.Milliseconds(),
		HeartbeatMs: hb.Milliseconds(),
	})
}

func (s *server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req fleet.DeregisterRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	s.q.Deregister(req.WorkerID)
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *server) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req fleet.PollRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	jobs, err := s.q.Poll(req.WorkerID, req.Slots)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.PollResponse{Jobs: jobs})
}

func (s *server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fleet.HeartbeatRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	resp, err := s.q.Heartbeat(req.WorkerID, req.Executing)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req fleet.CompleteRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	var err error
	if req.Kind == "" && req.Report != nil {
		err = s.q.Complete(req.WorkerID, req.JobID, req.Report)
	} else {
		err = s.q.Fail(req.WorkerID, req.JobID, req.Error, req.Kind)
	}
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func writeQueueError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrUnknownWorker):
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeUnknownWorker, err.Error())
	case errors.Is(err, fleet.ErrUnknownJob):
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, err.Error())
	case errors.Is(err, fleet.ErrNotOwner):
		fleet.WriteError(w, http.StatusConflict, fleet.CodeConflict, err.Error())
	default:
		fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal, err.Error())
	}
}
