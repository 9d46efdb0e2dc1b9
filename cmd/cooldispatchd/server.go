package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/coolsim"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// Client-facing job statuses, wire-compatible with coolserved's
// GET /v1/runs/{id} so existing clients work unchanged against the
// dispatcher. The finer-grained fleet state machine is exposed
// alongside in the "state" field.
func clientStatus(st fleet.State) string {
	switch st {
	case fleet.StateQueued, fleet.StateRequeued:
		return "queued"
	case fleet.StateBooked, fleet.StateExecuting:
		return "running"
	case fleet.StateCompleted:
		return "done"
	case fleet.StateError:
		return "failed"
	case fleet.StateCanceled:
		return "canceled"
	}
	return string(st)
}

// dispatcher is the fleet front door: the client API of coolserved
// (submit/status/cancel/batch/metrics) backed by the fleet.Queue, plus
// the worker protocol under /v1/fleet/. When no workers are registered
// it degrades gracefully to executing jobs in-process.
type dispatcher struct {
	q      *fleet.Queue
	pcache *coolsim.PlatformCache
	camp   *campaign.Manager

	baseCtx context.Context
	abort   context.CancelFunc

	// localSlots bounds concurrent in-process fallback runs.
	localSlots chan struct{}

	// streamCfg sizes each run's broadcast hub; smu guards the hub
	// registry (dispatcher-side rings filled by per-run worker taps, or
	// directly by the local fallback runner).
	streamCfg stream.Config
	smu       sync.Mutex
	hubs      map[string]*stream.Hub
	hubOrder  []string

	mu           sync.Mutex
	draining     bool
	localCancels map[string]context.CancelFunc
	wg           sync.WaitGroup // in-flight local runs
}

func newDispatcher(q *fleet.Queue, localWorkers, platformCacheSize int, cacheDir, resultsDir string, streamCfg stream.Config) (*dispatcher, error) {
	if localWorkers <= 0 {
		localWorkers = 1
	}
	repo, err := campaign.NewRepo(resultsDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &dispatcher{
		q:            q,
		pcache:       coolsim.NewPlatformCacheDir(platformCacheSize, cacheDir),
		camp:         campaign.NewManager(campaign.FleetBackend{Q: q}, repo, nil),
		baseCtx:      ctx,
		abort:        cancel,
		localSlots:   make(chan struct{}, localWorkers),
		streamCfg:    streamCfg,
		hubs:         map[string]*stream.Hub{},
		localCancels: map[string]context.CancelFunc{},
	}
	// Campaign fan-outs warm each distinct platform shape in the
	// dispatcher's own cache before members enter the queue — the
	// in-process fallback runner books onto warm platforms, and the
	// cache-dir persistence hands the artifacts to restarted processes.
	d.camp.SetPrebuild(func(raw json.RawMessage) error {
		sc, err := fleet.DecodeScenario(raw)
		if err != nil {
			return err
		}
		return d.pcache.Prebuild(ctx, sc)
	})
	return d, nil
}

func (d *dispatcher) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

func (d *dispatcher) handler() http.Handler {
	mux := http.NewServeMux()
	// Client API — same shapes as coolserved.
	mux.HandleFunc("POST /v1/runs", d.handleSubmit)
	mux.HandleFunc("POST /v1/batches", d.handleBatch)
	mux.HandleFunc("GET /v1/runs", d.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", d.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", d.handleStream)
	mux.HandleFunc("DELETE /v1/runs/{id}", d.handleCancel)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("GET /v1/metrics", d.handleMetrics)
	// Campaign API — fan-out over the fleet (see internal/campaign).
	// Member live streams resolve through the same per-run hubs as
	// GET /v1/runs/{id}/stream: one worker tap per member.
	(&campaign.API{M: d.camp, Draining: d.isDraining, Streams: d.hubFor}).Register(mux)
	// Worker protocol.
	mux.HandleFunc("POST /v1/fleet/register", d.handleRegister)
	mux.HandleFunc("POST /v1/fleet/deregister", d.handleDeregister)
	mux.HandleFunc("POST /v1/fleet/poll", d.handlePoll)
	mux.HandleFunc("POST /v1/fleet/heartbeat", d.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/complete", d.handleComplete)
	return mux
}

// loops starts the dispatcher's background drivers: the sweep ticker
// (lease expiry + unreachable-worker detection), the local-fallback
// booker, and the campaign reconciler (which persists finished member
// reports into the results tree and submits pending members). All stop
// when ctx is canceled.
func (d *dispatcher) loops(ctx context.Context, sweepEvery, localEvery time.Duration) {
	go func() {
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				d.q.Sweep()
			}
		}
	}()
	go func() {
		t := time.NewTicker(localEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				d.bookLocal()
			}
		}
	}()
	go func() {
		t := time.NewTicker(localEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				d.camp.Reconcile()
			}
		}
	}()
}

// bookLocal claims eligible jobs for in-process execution while no
// fleet workers are reachable — the graceful-degradation path.
func (d *dispatcher) bookLocal() {
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		return
	}
	for {
		select {
		case d.localSlots <- struct{}{}:
		default:
			return // all local slots busy
		}
		j := d.q.BookLocal()
		if j == nil {
			<-d.localSlots
			return
		}
		d.startLocal(*j)
	}
}

// startLocal runs one job on the dispatcher's own process, reporting
// through the same queue transitions a remote worker would.
func (d *dispatcher) startLocal(j fleet.Job) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-d.localSlots }()
		ctx, cancel := context.WithCancel(d.baseCtx)
		d.mu.Lock()
		d.localCancels[j.ID] = cancel
		d.mu.Unlock()
		defer func() {
			d.mu.Lock()
			delete(d.localCancels, j.ID)
			d.mu.Unlock()
			cancel()
		}()

		// The hub makes an in-process run streamable exactly like a
		// dispatched one; a tap already waiting on this job ID hands the
		// hub over (it exits on seeing the local booking).
		hub := d.localHub(j.ID, j.Scenario)
		report, err, panicked := d.runScenario(ctx, j.Scenario, hub)
		switch {
		case panicked:
			_ = d.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomePanic)
		case err == nil:
			_ = d.q.Complete(fleet.LocalWorker, j.ID, report)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			_ = d.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomeCanceled)
		default:
			_ = d.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomeError)
		}
		// Close after the queue transition lands so a follower waking on
		// the close observes the terminal job state.
		if hub != nil {
			switch {
			case err == nil:
				hub.Close(stream.ReasonDone)
			case !panicked && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
				hub.Close(stream.ReasonCanceled)
			default:
				hub.Close(stream.ReasonFailed)
			}
		}
	}()
}

// runScenario executes one job's canonical scenario bytes with the same
// panic isolation a remote worker applies, publishing each tick into
// the job's broadcast hub (when it has one).
func (d *dispatcher) runScenario(ctx context.Context, raw json.RawMessage, hub *stream.Hub) (report json.RawMessage, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	sc, err := fleet.DecodeScenario(raw)
	if err != nil {
		return nil, err, false
	}
	opts := []coolsim.Option{coolsim.WithPlatformCache(d.pcache)}
	if hub != nil {
		opts = append(opts, coolsim.WithObserver(hub.Publish))
	}
	rep, err := coolsim.Run(ctx, sc, opts...)
	if err != nil {
		return nil, err, false
	}
	report, err = json.Marshal(rep)
	return report, err, false
}

// drain stops intake, waits up to grace for in-flight local runs, then
// hard-cancels the stragglers. Remote workers simply lose their
// dispatcher; the journal carries every non-terminal job into the next
// process, where restart recovery requeues it.
func (d *dispatcher) drain(grace time.Duration) {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		d.abort()
		<-done
	}
}

type submitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

func (d *dispatcher) handleSubmit(w http.ResponseWriter, r *http.Request) {
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
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		fleet.WriteError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "dispatcher is draining")
		return
	}
	j, err := d.q.Submit(raw, specKey, fleet.SubmitOptions{MaxAttempts: maxAttempts, Priority: priority})
	if err != nil {
		fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal,
			fmt.Sprintf("journal write failed: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(submitResponse{ID: j.ID, Status: clientStatus(j.State)})
}

// runView is the dispatcher's wire form of one job: the coolserved
// status vocabulary plus the fleet state machine, attempt history and
// the report bytes exactly as the executing worker produced them.
type runView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	State       string          `json:"state"`
	Scenario    json.RawMessage `json:"scenario"`
	Worker      string          `json:"worker,omitempty"`
	MaxAttempts int             `json:"max_attempts"`
	Attempts    []fleet.Attempt `json:"attempts,omitempty"`
	Report      json.RawMessage `json:"report,omitempty"`
	Error       string          `json:"error,omitempty"`
}

func view(j fleet.Job) runView {
	return runView{
		ID: j.ID, Status: clientStatus(j.State), State: string(j.State),
		Scenario: j.Scenario, Worker: j.Worker,
		MaxAttempts: j.MaxAttempts, Attempts: j.Attempts,
		Report: j.Report, Error: j.Error,
	}
}

func (d *dispatcher) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := d.q.Get(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such run")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(view(j))
}

func (d *dispatcher) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := d.q.List()
	views := make([]runView, len(jobs))
	for i, j := range jobs {
		views[i] = view(j)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(views)
}

func (d *dispatcher) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := d.cancelRun(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such run")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(view(j))
}

// cancelRun cancels a job in the queue and, when it is executing
// in-process (no heartbeat to relay the cancel), aborts its context
// directly.
func (d *dispatcher) cancelRun(id string) (fleet.Job, error) {
	j, err := d.q.Cancel(id)
	if err != nil {
		return fleet.Job{}, err
	}
	if j.Worker == fleet.LocalWorker && j.CancelRequested {
		d.mu.Lock()
		cancel := d.localCancels[j.ID]
		d.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return j, nil
}

// batchRequest mirrors coolserved's POST /v1/batches wire form. Workers
// is accepted for compatibility; placement is the fleet's decision here.
type batchRequest struct {
	Scenarios []json.RawMessage `json:"scenarios"`
	Workers   int               `json:"workers,omitempty"`
}

type batchResponse struct {
	Reports []json.RawMessage `json:"reports"`
}

// handleBatch submits every scenario as a fleet job and holds the
// request open until all of them resolve, returning the reports in
// input order — the dispatch-level analogue of coolserved's synchronous
// batch. Client disconnect or a failed member cancels the outstanding
// jobs.
func (d *dispatcher) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	if len(req.Scenarios) == 0 {
		fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, "batch has no scenarios")
		return
	}
	type entry struct {
		raw json.RawMessage
		key string
	}
	entries := make([]entry, len(req.Scenarios))
	for i, raw := range req.Scenarios {
		sc, err := fleet.DecodeScenario(raw)
		if err != nil {
			fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario,
				fmt.Sprintf("scenario %d: %v", i, err))
			return
		}
		canon, key, err := fleet.CanonicalScenario(sc)
		if err != nil {
			fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario,
				fmt.Sprintf("scenario %d: %v", i, err))
			return
		}
		entries[i] = entry{canon, key}
	}
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	if draining {
		fleet.WriteError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "dispatcher is draining")
		return
	}
	// The response carries reports, never job IDs, so a member left
	// behind by any early return could never be collected: cancel every
	// submitted member on the way out (a no-op once it is terminal).
	ids := make([]string, 0, len(entries))
	defer func() {
		for _, id := range ids {
			d.q.Cancel(id)
		}
	}()
	for _, e := range entries {
		j, err := d.q.Submit(e.raw, e.key, fleet.SubmitOptions{})
		if err != nil {
			fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal,
				fmt.Sprintf("journal write failed: %v", err))
			return
		}
		ids = append(ids, j.ID)
	}

	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
		reports := make([]json.RawMessage, len(ids))
		done := true
		for i, id := range ids {
			j, err := d.q.Get(id)
			if err != nil {
				fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal,
					fmt.Sprintf("job %s vanished", id))
				return
			}
			switch {
			case !j.State.Terminal():
				done = false
			case j.State != fleet.StateCompleted:
				fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal,
					fmt.Sprintf("job %s %s: %s", id, j.State, j.Error))
				return
			default:
				reports[i] = j.Report
			}
		}
		if done {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(batchResponse{Reports: reports})
			return
		}
	}
}

func (d *dispatcher) handleHealth(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	m := d.q.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":  map[bool]string{false: "ok", true: "draining"}[draining],
		"jobs":    m.Jobs.Total,
		"workers": len(m.Workers),
	})
}

// metricsView rolls up the fleet (job counts per state, per-worker
// in-flight/completed, requeue/lease-expiry/lost-worker totals, the
// attempts histogram) plus the local platform cache.
type metricsView struct {
	Fleet         fleet.Metrics              `json:"fleet"`
	Campaigns     campaign.Metrics           `json:"campaigns"`
	PlatformCache coolsim.PlatformCacheStats `json:"platform_cache"`
	// Streams aggregates the dispatcher-side run hubs: attached
	// subscribers, frames and bytes fanned out, slow-consumer evictions,
	// retained ring depth.
	Streams  stream.Totals `json:"streams"`
	Draining bool          `json:"draining"`
}

func (d *dispatcher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	draining := d.draining
	d.mu.Unlock()
	v := metricsView{
		Fleet:         d.q.Snapshot(),
		Campaigns:     d.camp.Metrics(),
		PlatformCache: d.pcache.Stats(),
		Draining:      draining,
	}
	d.addStreamTotals(&v.Streams)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Worker-protocol handlers. Queue errors map to structured codes the
// worker dispatches on: unknown_worker → re-register; conflict → drop
// the stale result.

func (d *dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req fleet.RegisterRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	id, lease, hb := d.q.Register(req.Addr, req.Capacity)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fleet.RegisterResponse{
		WorkerID:    id,
		LeaseTTLMs:  lease.Milliseconds(),
		HeartbeatMs: hb.Milliseconds(),
	})
}

func (d *dispatcher) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req fleet.DeregisterRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	d.q.Deregister(req.WorkerID)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct{}{})
}

func (d *dispatcher) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req fleet.PollRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	jobs, err := d.q.Poll(req.WorkerID, req.Slots)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fleet.PollResponse{Jobs: jobs})
}

func (d *dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fleet.HeartbeatRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	resp, err := d.q.Heartbeat(req.WorkerID, req.Executing)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (d *dispatcher) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req fleet.CompleteRequest
	if !fleet.DecodeJSON(w, r, 0, &req) {
		return
	}
	var err error
	if req.Kind == "" && req.Report != nil {
		err = d.q.Complete(req.WorkerID, req.JobID, req.Report)
	} else {
		err = d.q.Fail(req.WorkerID, req.JobID, req.Error, req.Kind)
	}
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct{}{})
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
