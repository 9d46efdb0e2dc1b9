package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/coolsim"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/par"
	"repro/internal/stream"
)

// config is the daemon's configuration, set from the flags.
type config struct {
	// workers is the local executor's slot count (0 = NumCPU).
	workers       int
	platformCache int
	cacheDir      string
	resultsDir    string
	// queue tunes the job queue: journal directory, retention, leases,
	// attempts, backoff.
	queue  fleet.QueueConfig
	stream stream.Config
}

// server is coolserved: one fleet.Queue holds every job — runs,
// campaign members, batch fan-outs, and the attempts this daemon
// executes for a dispatcher. While no fleet worker is reachable the
// local executor runs queued jobs in-process, -workers at a time; once
// another coolserved registers through /v1/fleet/*, the queue's jobs go
// to the fleet instead.
type server struct {
	q      *fleet.Queue
	pcache *coolsim.PlatformCache
	camp   *campaign.Manager
	// durable is set when the queue journals to disk: an in-process run
	// cut short by shutdown is then left for the next process to retry
	// instead of ending canceled.
	durable bool

	baseCtx context.Context
	abort   context.CancelFunc // hard-cancels every local run (drain timeout)

	// batch accumulates multi-RHS batch-solve statistics across every
	// in-process POST /v1/batches call (atomic counters).
	batch coolsim.BatchCounters

	// smu guards the hub registry: one broadcast hub per job, filled by
	// the local executor or by a tap on the fleet worker running it.
	streamCfg stream.Config
	smu       sync.Mutex
	hubs      map[string]*stream.Hub

	mu       sync.Mutex
	draining bool
	slots    int                           // local executor slots
	local    int                           // booked local runs in flight
	cancels  map[string]context.CancelFunc // every in-process run, by job ID
	wg       sync.WaitGroup                // booked local runs
	batches  int64                         // batch requests executed (metrics)
	stepping steppingTotals                // per-run stepper counters, summed at completion
}

// steppingTotals aggregates the stepping-engine counters of every run
// this daemon completed, so operators can see how much work adaptive
// jobs saved (macro_ticks vs base_ticks) across the daemon's lifetime.
type steppingTotals struct {
	BaseTicks     int64 `json:"base_ticks"`
	MacroSteps    int64 `json:"macro_steps"`
	MacroTicks    int64 `json:"macro_ticks"`
	Refinements   int64 `json:"refinements"`
	ThermalSolves int64 `json:"thermal_solves"`
}

func (t *steppingTotals) add(r *coolsim.Report) {
	t.BaseTicks += int64(r.BaseTicks)
	t.MacroSteps += int64(r.MacroSteps)
	t.MacroTicks += int64(r.MacroTicks)
	t.Refinements += int64(r.Refinements)
	t.ThermalSolves += int64(r.ThermalSolves)
}

// newServer opens the queue (recovering its journal) and the results
// tree, and starts the background loops; drain stops them.
func newServer(cfg config) (*server, error) {
	q, err := fleet.NewQueue(cfg.queue)
	if err != nil {
		return nil, err
	}
	repo, err := campaign.NewRepo(cfg.resultsDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		q:         q,
		pcache:    coolsim.NewPlatformCacheDir(cfg.platformCache, cfg.cacheDir),
		camp:      campaign.NewManager(campaign.FleetBackend{Q: q}, repo, nil),
		durable:   cfg.queue.Dir != "",
		baseCtx:   ctx,
		abort:     cancel,
		streamCfg: cfg.stream,
		hubs:      map[string]*stream.Hub{},
		slots:     par.Workers(cfg.workers),
		cancels:   map[string]context.CancelFunc{},
	}
	// Campaign fan-outs warm each distinct platform shape once before
	// its members enter the queue.
	s.camp.SetPrebuild(func(raw json.RawMessage) error {
		sc, err := fleet.DecodeScenario(raw)
		if err != nil {
			return err
		}
		return s.pcache.Prebuild(ctx, sc)
	})
	go s.loop(max(q.LeaseTTL()/4, 50*time.Millisecond))
	go func() {
		// Persist finished member reports and advance campaign members.
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.camp.Reconcile()
			}
		}
	}()
	return s, nil
}

// loop drives the queue until drain aborts: it books local work as soon
// as the queue signals a bookable job, and sweeps leases on a ticker —
// which also books jobs whose retry backoff has expired. (A finishing
// local run books its successor itself.)
func (s *server) loop(sweepEvery time.Duration) {
	t := time.NewTicker(sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.q.Ready():
		case <-t.C:
			s.q.Sweep()
		}
		s.book()
	}
}

// book claims bookable jobs for the free local slots; the queue hands
// out none while a fleet worker is reachable.
func (s *server) book() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.baseCtx.Err() == nil && s.local < s.slots {
		j := s.q.BookLocal()
		if j == nil {
			return
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		s.cancels[j.ID] = cancel
		s.local++
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.execute(ctx, *j, false)
			cancel()
			s.mu.Lock()
			delete(s.cancels, j.ID)
			s.local--
			s.mu.Unlock()
			s.book()
		}()
	}
}

// runFleetJob is the fleet.Runner of worker mode. The dispatched
// attempt becomes a job of this daemon's own queue under
// "<fleet-id>.<attempt>", so an operator can follow it here (status,
// report, stream) like any other run; the dispatcher's booking already
// bounds the concurrency.
func (s *server) runFleetJob(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
	sc, err := fleet.DecodeScenario(wj.Scenario)
	if err != nil {
		return nil, err
	}
	raw, key, err := fleet.CanonicalScenario(sc)
	if err != nil {
		return nil, err
	}
	j, err := s.q.Adopt(fmt.Sprintf("%s.%d", wj.ID, wj.Attempt), raw, key)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	s.cancels[j.ID] = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.cancels, j.ID)
		s.mu.Unlock()
	}()
	report, err, panicked := s.execute(ctx, j, true)
	if panicked != nil {
		panic(panicked) // the worker loop reports the attempt as a panic
	}
	return report, err
}

// execute runs one job in-process, publishing every tick into the job's
// hub, and records the outcome in the queue. A canceled run of an
// adopted attempt ends canceled (the dispatcher owns its retries), and
// so does any canceled run without a journal; with one, a run cut short
// by shutdown is recorded lost and the next process retries it.
func (s *server) execute(ctx context.Context, j fleet.Job, adopted bool) (report json.RawMessage, err error, panicked any) {
	var hub *stream.Hub
	sc, err := fleet.DecodeScenario(j.Scenario)
	if err == nil {
		hub = s.localHub(j.ID, sc)
		report, err, panicked = s.simulate(ctx, sc, hub)
	}
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	reason := stream.ReasonFailed
	// The queue only rejects a transition for a job that is no longer
	// this executor's; there is nothing left to record then.
	switch {
	case panicked != nil:
		_ = s.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomePanic)
	case err == nil:
		_ = s.q.Complete(fleet.LocalWorker, j.ID, report)
		reason = stream.ReasonDone
	case canceled:
		if adopted || !s.durable {
			_, _ = s.q.Cancel(j.ID)
		}
		_ = s.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomeCanceled)
		reason = stream.ReasonCanceled
	default:
		_ = s.q.Fail(fleet.LocalWorker, j.ID, err.Error(), fleet.OutcomeError)
	}
	// Close after the queue transition lands, so a follower waking on
	// the close observes the terminal job. A requeued job keeps its hub
	// open, and a tap fills it if a fleet worker takes the retry.
	if hub != nil {
		if cur, gerr := s.q.Get(j.ID); gerr != nil || cur.State.Terminal() {
			hub.Close(reason)
		} else {
			go s.runTap(j.ID, hub)
		}
	}
	return report, err, panicked
}

// simulate runs one scenario with panic isolation. A retry republishes
// from the first tick, so the frames an earlier attempt already put into
// the hub are skipped (runs are deterministic).
func (s *server) simulate(ctx context.Context, sc coolsim.Scenario, hub *stream.Hub) (report json.RawMessage, err error, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	skip := hub.Seq()
	rep, err := coolsim.Run(ctx, sc, coolsim.WithPlatformCache(s.pcache),
		coolsim.WithObserver(func(smp *coolsim.Sample) {
			if skip > 0 {
				skip--
				return
			}
			hub.Publish(smp)
		}))
	if err != nil {
		return nil, err, nil
	}
	s.mu.Lock()
	s.stepping.add(rep)
	s.mu.Unlock()
	report, err = json.Marshal(rep)
	return report, err, nil
}

// cancelRun cancels a job in the queue and, when it runs in-process (no
// heartbeat to relay the cancel), aborts its context directly.
func (s *server) cancelRun(id string) (fleet.Job, error) {
	j, err := s.q.Cancel(id)
	if err != nil {
		return fleet.Job{}, err
	}
	if j.Worker == fleet.LocalWorker && j.CancelRequested {
		s.mu.Lock()
		cancel := s.cancels[id]
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return j, nil
}

func (s *server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drain stops intake, lets the local executor work through what it has
// (runs in flight, and queued jobs while no fleet worker is reachable)
// for up to grace, then hard-cancels the stragglers and waits for them.
// Jobs held by remote workers are untouched: with a journal they carry
// over to the next process.
func (s *server) drain(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for deadline := time.Now().Add(grace); time.Now().Before(deadline) && s.q.LocalBacklog() > 0; {
		time.Sleep(20 * time.Millisecond)
	}
	s.mu.Lock()
	s.abort() // in-flight sessions exit within one tick; book starts no more
	s.mu.Unlock()
	s.wg.Wait()
}
