// Command coolserved serves coolsim scenarios as an HTTP JSON job
// service: a dispatcher in front of a simulation worker pool, so many
// clients can submit runs, poll their status and stream per-tick samples
// while the simulations execute server-side.
//
// Usage:
//
//	coolserved -addr :8077 -workers 4 -grace 30s
//
// API (see SERVICE.md for details):
//
//	POST   /v1/runs             submit a Scenario (JSON), returns {id}
//	GET    /v1/runs             list runs
//	GET    /v1/runs/{id}        status, and the report once done
//	GET    /v1/runs/{id}/stream follow per-tick Samples as NDJSON
//	DELETE /v1/runs/{id}        cancel a queued or running job
//	GET    /healthz             liveness and drain state
//	GET    /v1/metrics          job counts + platform-cache hit/miss
//	POST   /v1/campaigns        submit a scenario list or sweep spec
//	GET    /v1/campaigns[/{id}] campaign status, progress and ETA
//	DELETE /v1/campaigns/{id}   cancel the remaining members
//	GET    /v1/campaigns/{id}/results  stream the aggregate (NDJSON)
//
// The server keeps a process-lifetime platform cache (-platform-cache):
// the first job on a stack shape builds the thermal grid, the solver's
// symbolic analysis and the controller tables; every later job on that
// shape warm-starts in milliseconds.
//
// On SIGINT/SIGTERM the server drains gracefully: intake stops (503),
// running jobs get up to -grace to finish, stragglers are canceled via
// their contexts (they abort within one simulated tick), then the
// process exits.
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
	var (
		addr    = flag.String("addr", ":8077", "listen address")
		workers = flag.Int("workers", 0, "simulation worker goroutines (0 = NumCPU)")
		grace   = flag.Duration("grace", 30*time.Second, "drain timeout for running jobs on shutdown")
		retain  = flag.Int("retain", 128,
			"finished jobs kept in memory for replay; oldest evicted beyond this (<= 0 keeps all)")
		pcache = flag.Int("platform-cache", 8,
			"stack shapes whose built artifacts (grid, solver analysis, controller tables) are kept warm; LRU-evicted beyond this (<= 0 keeps all)")
		cacheDir = flag.String("cache-dir", "",
			"directory for persisted platform artifacts (controller LUT JSON); a restarted daemon warm-starts its sweeps from here (empty = memory only)")
		resultsDir = flag.String("results-dir", "",
			"root of the durable campaign results tree (<dir>/<date>/<campaign>/run-N.json); a restarted daemon resumes campaigns from here without re-running persisted members (empty = memory only)")
		dispatcher = flag.String("dispatcher", "",
			"cooldispatchd base URL; when set the daemon also registers as a fleet worker and executes dispatched jobs (see SERVICE.md, Fleet)")
		capacity = flag.Int("fleet-capacity", 0,
			"concurrent dispatched jobs in worker mode (0 = the -workers value, else NumCPU)")
		poll       = flag.Duration("poll", 500*time.Millisecond, "dispatcher poll interval in worker mode")
		streamRing = flag.Int("stream-ring", stream.DefaultRingFrames,
			"per-run stream ring capacity in frames; late joiners can replay this much history (rings shrink to a run's expected tick count)")
		streamLag = flag.Int("stream-lag", 0,
			"frames a stream subscriber may lag before it is evicted (0 = the ring capacity)")
	)
	flag.Parse()

	s, err := newServer(*workers, *retain, *pcache, *cacheDir, *resultsDir,
		stream.Config{RingFrames: *streamRing, LagFrames: *streamLag})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coolserved:", err)
		os.Exit(1)
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

	// Worker mode: register with the dispatcher and execute fleet jobs
	// alongside the local API. stopWorker cancels the fleet loop (which
	// abandons in-flight fleet jobs: the dispatcher deregisters us and
	// requeues them) and waits for it to wind down.
	stopWorker := func() {}
	if *dispatcher != "" {
		cap := *capacity
		if cap <= 0 {
			cap = par.Workers(*workers)
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
	fmt.Fprintf(os.Stderr, "coolserved: listening on %s (%d workers)\n", *addr, par.Workers(*workers))

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

	// Stop intake and let running jobs finish (or cancel them at the
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
