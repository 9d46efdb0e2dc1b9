// Command coolserved serves coolsim scenarios as an HTTP JSON job
// service: many clients submit runs, batches and campaigns, poll their
// status and stream per-tick samples while the simulations execute
// server-side. Every job is a fleet.Queue job with one lifecycle
//
//	queued → booked → executing → completed | error | requeued | canceled
//
// and one daemon plays every role:
//
//   - Standalone (the default): the local executor runs queued jobs
//     in-process, -workers at a time, whenever no fleet worker is
//     reachable.
//   - Dispatcher: as soon as another coolserved registers through the
//     /v1/fleet/* worker protocol, queued jobs go to the registered
//     workers instead — leased, heartbeated, requeued when a worker
//     dies, routed by platform shape on a consistent-hash ring.
//   - Worker (-dispatcher URL): the daemon also registers with a
//     dispatcher and executes its jobs; each dispatched attempt is a job
//     of its own queue, "<fleet-id>.<attempt>", with status, report and
//     stream.
//
// Usage:
//
//	coolserved -addr :8077 -workers 4 -state-dir /var/lib/coolserved
//	coolserved -addr :8081 -dispatcher http://localhost:8077   # a worker
//
// API (see SERVICE.md for details):
//
//	POST   /v1/runs             submit a Scenario (JSON), returns {id}
//	GET    /v1/runs             list runs
//	GET    /v1/runs/{id}        status, and the report once done
//	GET    /v1/runs/{id}/stream follow per-tick Samples as NDJSON
//	DELETE /v1/runs/{id}        cancel a queued or running job
//	POST   /v1/batches          run a scenario list, answer with the reports
//	POST   /v1/campaigns        submit a scenario list or sweep spec
//	GET    /v1/campaigns[/{id}] campaign status, progress and ETA
//	DELETE /v1/campaigns/{id}   cancel the remaining members
//	GET    /v1/campaigns/{id}/results  stream the aggregate (NDJSON)
//	GET    /v1/campaigns/{id}/stream   live member ticks (NDJSON)
//	POST   /v1/fleet/...        worker protocol (register, poll, heartbeat, complete)
//	GET    /healthz             liveness and drain state
//	GET    /v1/metrics          jobs, fleet, platform cache, batches, campaigns, streams
//
// With -state-dir every job is journaled before it is acknowledged and
// on every transition, so a restarted daemon recovers its queue; with
// -results-dir campaign reports land in a durable results tree and
// interrupted campaigns resume without re-running persisted members.
// The platform cache (-platform-cache, -cache-dir) keeps each stack
// shape's grid, solver analysis and controller tables warm.
//
// On SIGINT/SIGTERM the daemon drains: it leaves its dispatcher, stops
// intake (503), gives the local executor up to -grace to finish, then
// cancels the stragglers (they abort within one simulated tick).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/par"
	"repro/internal/stream"
)

func main() {
	var cfg config
	flag.IntVar(&cfg.workers, "workers", 0,
		"local executor slots: jobs run in-process at once while no fleet worker is reachable (0 = NumCPU)")
	flag.IntVar(&cfg.queue.Retain, "retain", fleet.DefaultRetain,
		"terminal jobs kept in memory and in the journal; oldest evicted beyond this (<= 0 keeps all)")
	flag.IntVar(&cfg.platformCache, "platform-cache", 8,
		"stack shapes whose built artifacts (grid, solver analysis, controller tables) are kept warm; LRU-evicted beyond this (<= 0 keeps all)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "",
		"directory for persisted platform artifacts (controller LUT JSON); a restarted daemon warm-starts its sweeps from here (empty = memory only)")
	flag.StringVar(&cfg.resultsDir, "results-dir", "",
		"root of the durable campaign results tree (<dir>/<date>/<campaign>/run-N.json); a restarted daemon resumes campaigns from here without re-running persisted members (empty = memory only)")
	flag.StringVar(&cfg.queue.Dir, "state-dir", "",
		"directory for the durable job journal; a restarted daemon recovers every queued/booked/executing job from here (empty = memory only)")
	flag.DurationVar(&cfg.queue.LeaseTTL, "lease", 15*time.Second,
		"job lease TTL; a worker silent for longer is unreachable and its jobs are requeued")
	flag.DurationVar(&cfg.queue.Heartbeat, "heartbeat", 0,
		"heartbeat interval advertised to workers (0 = lease/3)")
	flag.IntVar(&cfg.queue.MaxAttempts, "max-attempts", 3,
		"default execution attempts per job before the terminal error state (per-job override: POST /v1/runs?max_attempts=N)")
	flag.DurationVar(&cfg.queue.BackoffBase, "backoff", time.Second, "base retry backoff (doubled per attempt, plus jitter)")
	flag.DurationVar(&cfg.queue.BackoffCap, "backoff-cap", 30*time.Second, "retry backoff ceiling")
	flag.IntVar(&cfg.stream.RingFrames, "stream-ring", stream.DefaultRingFrames,
		"per-run stream ring capacity in frames; late joiners can replay this much history (rings shrink to a run's expected tick count)")
	flag.IntVar(&cfg.stream.LagFrames, "stream-lag", 0,
		"frames a stream subscriber may lag before it is evicted (0 = the ring capacity)")
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		grace      = flag.Duration("grace", 30*time.Second, "drain timeout for in-process runs on shutdown")
		dispatcher = flag.String("dispatcher", "",
			"dispatcher base URL (another coolserved); when set the daemon also registers as a fleet worker and executes dispatched jobs (see SERVICE.md, Fleet)")
		capacity = flag.Int("fleet-capacity", 0,
			"concurrent dispatched jobs in worker mode (0 = the -workers value, else NumCPU)")
		poll = flag.Duration("poll", 500*time.Millisecond, "dispatcher poll interval in worker mode")
	)
	flag.Parse()

	s, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coolserved:", err)
		os.Exit(1)
	}
	if m := s.q.Snapshot(); m.RecoveredJobs > 0 || m.CorruptJournal > 0 {
		fmt.Fprintf(os.Stderr, "coolserved: recovered %d journaled jobs (%d corrupt files skipped)\n",
			m.RecoveredJobs, m.CorruptJournal)
	}
	if nc, nr, err := s.camp.Resume(); err != nil {
		fmt.Fprintln(os.Stderr, "coolserved: campaign resume:", err)
		os.Exit(1)
	} else if nc > 0 {
		fmt.Fprintf(os.Stderr, "coolserved: resumed %d campaigns (%d members already persisted)\n", nc, nr)
	}
	srv := &http.Server{Addr: *addr, Handler: s.handler()}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	// Worker mode: register with the dispatcher and execute its jobs
	// alongside the local API. stopWorker cancels the fleet loop (which
	// abandons in-flight fleet jobs: the dispatcher deregisters us and
	// requeues them) and waits for it to wind down.
	stopWorker := func() {}
	if *dispatcher != "" {
		cap := *capacity
		if cap <= 0 {
			cap = par.Workers(cfg.workers)
		}
		wctx, wcancel := context.WithCancel(context.Background())
		wk := &fleet.Worker{
			Dispatcher:   strings.TrimRight(*dispatcher, "/"),
			Addr:         *addr,
			Capacity:     cap,
			Runner:       s.runFleetJob,
			PollInterval: *poll,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "coolserved: "+format+"\n", args...)
			},
		}
		workerDone := make(chan struct{})
		go func() { wk.Run(wctx); close(workerDone) }()
		stopWorker = func() { wcancel(); <-workerDone }
		fmt.Fprintf(os.Stderr, "coolserved: fleet worker mode, dispatcher %s (capacity %d)\n",
			*dispatcher, cap)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "coolserved: listening on %s (%d workers, lease %v, state-dir %q)\n",
		*addr, par.Workers(cfg.workers), s.q.LeaseTTL(), cfg.queue.Dir)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "coolserved:", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "coolserved: %v — draining (grace %v)\n", sig, *grace)
	}

	// Leave the fleet first: the dispatcher deregisters this worker and
	// requeues anything it held onto the survivors.
	stopWorker()

	// Stop intake and let in-process runs finish (or cancel them at the
	// grace deadline); streams observe the jobs ending and close, which
	// lets Shutdown complete.
	done := make(chan struct{})
	go func() { s.drain(*grace); close(done) }()
	shutCtx, cancel := fleet.SignalAwareTimeout(sigCh, *grace+10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "coolserved: shutdown:", err)
	}
	<-done
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "coolserved:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "coolserved: drained, bye")
}
