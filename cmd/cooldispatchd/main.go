// Command cooldispatchd is the fleet dispatcher: it accepts the same
// client API as coolserved (POST /v1/runs, POST /v1/batches, status,
// stream, cancel, metrics) but executes jobs on a fleet of coolserved
// worker daemons (started with -dispatcher) instead of in-process.
// GET /v1/runs/{id}/stream proxies the executing worker's live NDJSON
// tick stream through one dispatcher-side broadcast hub per run: the
// worker sees a single upstream subscriber no matter how many clients
// follow the run here, and the tap survives worker loss by resuming
// the retried attempt's (deterministic, byte-identical) stream at the
// frame it left off.
//
// Usage:
//
//	cooldispatchd -addr :8078 -state-dir /var/lib/cooldispatchd
//	coolserved -addr :8077 -dispatcher http://localhost:8078   # worker 1
//	coolserved -addr :8079 -dispatcher http://localhost:8078   # worker 2
//
// Robustness model (see SERVICE.md, "Fleet"):
//
//   - Jobs are journaled to -state-dir before they are acknowledged and
//     on every state transition; a restarted dispatcher recovers them
//     (booked jobs return to the queue, executing jobs are requeued).
//   - Workers hold renewable leases; a worker that stops heartbeating
//     (crash, SIGKILL, partition) is marked unreachable and its jobs
//     are requeued onto the survivors, bounded by per-job max_attempts
//     with exponential backoff. Scenarios are deterministic, so a
//     requeued job's report is byte-identical to an uninterrupted run.
//   - Jobs are routed by platform spec on a consistent-hash ring, so a
//     worker keeps seeing the stack shapes whose platform artifacts it
//     has already built.
//   - With zero workers registered the dispatcher degrades gracefully
//     and executes jobs in-process (-local-workers at a time).
//   - Campaigns (POST /v1/campaigns, see SERVICE.md "Campaigns") expand
//     sweep specs into member jobs fanned out over the fleet at bulk
//     priority; finished member reports are persisted under -results-dir,
//     so a restarted dispatcher resumes campaigns without re-running
//     members whose results are already on disk.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/stream"
)

func main() {
	var (
		addr     = flag.String("addr", ":8078", "listen address")
		stateDir = flag.String("state-dir", "",
			"directory for the durable job journal; a restarted dispatcher recovers every queued/booked/executing job from here (empty = memory only)")
		lease = flag.Duration("lease", 15*time.Second,
			"job lease TTL; a worker silent for longer is unreachable and its jobs are requeued")
		heartbeat = flag.Duration("heartbeat", 0,
			"heartbeat interval advertised to workers (0 = lease/3)")
		maxAttempts = flag.Int("max-attempts", 3,
			"default execution attempts per job before the terminal error state (per-job override: POST /v1/runs?max_attempts=N)")
		backoffBase  = flag.Duration("backoff", time.Second, "base retry backoff (doubled per attempt, plus jitter)")
		backoffCap   = flag.Duration("backoff-cap", 30*time.Second, "retry backoff ceiling")
		localWorkers = flag.Int("local-workers", 1,
			"concurrent in-process fallback runs while zero fleet workers are registered")
		pcache = flag.Int("platform-cache", 8,
			"stack shapes kept warm by the local fallback executor's platform cache")
		cacheDir = flag.String("cache-dir", "",
			"directory for the fallback executor's persisted platform artifacts (empty = memory only)")
		resultsDir = flag.String("results-dir", "",
			"root of the durable campaign results tree (<dir>/<date>/<campaign>/run-N.json); a restarted dispatcher resumes campaigns from here without re-running persisted members (empty = memory only)")
		grace      = flag.Duration("grace", 30*time.Second, "drain timeout for in-process runs on shutdown")
		streamRing = flag.Int("stream-ring", stream.DefaultRingFrames,
			"per-run stream ring capacity in frames; late joiners can replay this much history (rings shrink to a run's expected tick count)")
		streamLag = flag.Int("stream-lag", 0,
			"frames a stream subscriber may lag before it is evicted (0 = the ring capacity)")
	)
	flag.Parse()

	q, err := fleet.NewQueue(fleet.QueueConfig{
		LeaseTTL:    *lease,
		Heartbeat:   *heartbeat,
		MaxAttempts: *maxAttempts,
		BackoffBase: *backoffBase,
		BackoffCap:  *backoffCap,
		Dir:         *stateDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cooldispatchd:", err)
		os.Exit(1)
	}
	if m := q.Snapshot(); m.RecoveredJobs > 0 || m.CorruptJournal > 0 {
		fmt.Fprintf(os.Stderr, "cooldispatchd: recovered %d journaled jobs (%d corrupt files skipped)\n",
			m.RecoveredJobs, m.CorruptJournal)
	}

	d, err := newDispatcher(q, *localWorkers, *pcache, *cacheDir, *resultsDir,
		stream.Config{RingFrames: *streamRing, LagFrames: *streamLag})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cooldispatchd:", err)
		os.Exit(1)
	}
	if nc, nr, err := d.camp.Resume(); err != nil {
		fmt.Fprintln(os.Stderr, "cooldispatchd: campaign resume:", err)
		os.Exit(1)
	} else if nc > 0 {
		fmt.Fprintf(os.Stderr, "cooldispatchd: resumed %d campaigns (%d members already persisted)\n", nc, nr)
	}
	sweepEvery := *lease / 4
	if sweepEvery < 50*time.Millisecond {
		sweepEvery = 50 * time.Millisecond
	}
	d.loops(d.baseCtx, sweepEvery, 100*time.Millisecond)

	srv := &http.Server{Addr: *addr, Handler: d.handler()}
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cooldispatchd: listening on %s (lease %v, state-dir %q)\n",
		*addr, *lease, *stateDir)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "cooldispatchd:", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "cooldispatchd: %v — draining (grace %v)\n", sig, *grace)
	}

	done := make(chan struct{})
	go func() { d.drain(*grace); close(done) }()
	shutCtx, cancel := fleet.SignalAwareTimeout(sigCh, *grace+10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cooldispatchd: shutdown:", err)
	}
	<-done
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cooldispatchd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "cooldispatchd: drained, bye")
}
