package main

import (
	"bufio"
	"fmt"
	"net/http"
	"time"

	"repro/coolsim"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// hub returns a job's broadcast hub if it has one yet.
func (s *server) hub(jobID string) *stream.Hub {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.hubs[jobID]
}

// hubFor returns the broadcast hub of one job, creating it — and the
// worker tap that fills it — on first use. The tap is the point of
// proxying: no matter how many clients follow a run here, the fleet
// worker executing it sees exactly one stream subscriber. nil means the
// job is unknown.
func (s *server) hubFor(jobID string) *stream.Hub {
	s.smu.Lock()
	defer s.smu.Unlock()
	if h := s.hubs[jobID]; h != nil {
		return h
	}
	j, err := s.q.Get(jobID)
	if err != nil {
		return nil
	}
	sc, err := fleet.DecodeScenario(j.Scenario)
	if err != nil {
		return nil // canonical bytes always decode; treat as unknown
	}
	h := stream.HubFor(sc, s.streamCfg)
	s.registerHubLocked(jobID, h)
	go s.runTap(jobID, h)
	return h
}

// localHub is hubFor for the local executor: it reuses a hub a
// subscriber already created (that hub's tap exits once it sees the
// local booking) or registers a fresh one. The executor publishes into
// and closes the returned hub.
func (s *server) localHub(jobID string, sc coolsim.Scenario) *stream.Hub {
	s.smu.Lock()
	defer s.smu.Unlock()
	if h := s.hubs[jobID]; h != nil {
		return h
	}
	h := stream.HubFor(sc, s.streamCfg)
	s.registerHubLocked(jobID, h)
	return h
}

// registerHubLocked files a new hub and drops the hubs of jobs the queue
// has evicted: a hub lives exactly as long as its job. Pumps holding a
// dropped hub keep draining it — a hub is self-contained.
func (s *server) registerHubLocked(jobID string, h *stream.Hub) {
	s.pruneHubsLocked()
	s.hubs[jobID] = h
}

func (s *server) pruneHubsLocked() {
	for id := range s.hubs {
		if !s.q.Has(id) {
			delete(s.hubs, id)
		}
	}
}

// addStreamTotals folds every job hub into /v1/metrics.
func (s *server) addStreamTotals(t *stream.Totals) {
	s.smu.Lock()
	s.pruneHubsLocked()
	hubs := make([]*stream.Hub, 0, len(s.hubs))
	for _, h := range s.hubs {
		hubs = append(hubs, h)
	}
	s.smu.Unlock()
	for _, h := range hubs {
		t.Add(h.Stats())
	}
}

func closeReasonForState(st fleet.State) stream.CloseReason {
	switch st {
	case fleet.StateCompleted:
		return stream.ReasonDone
	case fleet.StateCanceled:
		return stream.ReasonCanceled
	default:
		return stream.ReasonFailed
	}
}

// runTap fills a job's hub from the fleet worker executing it. The tap
// follows the job across requeues: scenarios are deterministic, so
// attempt N+1 re-produces attempt N's frames byte-for-byte and the tap
// resumes the new attempt's stream at the frame it already relayed
// (?from=<hub seq>). The hub closes with the run's terminal reason once
// the queue agrees the job is settled. A job the local executor runs
// needs no tap.
func (s *server) runTap(jobID string, h *stream.Hub) {
	terminalMisses := 0
	for {
		j, err := s.q.Get(jobID)
		if err != nil {
			h.Close(stream.ReasonFailed)
			return
		}
		// A settled job's Worker field is cleared; the attempt history
		// still says which worker holds the replay.
		worker := j.Worker
		if worker == "" && j.State.Terminal() && len(j.Attempts) > 0 {
			worker = j.Attempts[len(j.Attempts)-1].Worker
		}
		if worker == fleet.LocalWorker {
			// The local executor owns this hub — unless the run ended
			// before this process (a journal-recovered job): then there
			// is nothing to replay.
			if j.State.Terminal() {
				h.Close(closeReasonForState(j.State))
			}
			return
		}
		if worker == "" && j.State.Terminal() {
			h.Close(closeReasonForState(j.State)) // resolved before it ever ran
			return
		}
		if worker != "" {
			if addr, ok := s.q.WorkerAddr(worker); ok {
				if s.relay(jobID, len(j.Attempts), addr, h) {
					return
				}
			}
		}
		if j.State.Terminal() {
			// The worker is gone or its replay is unreachable; give the
			// relay a few retries, then settle for the queue's verdict.
			if terminalMisses++; terminalMisses >= 20 {
				h.Close(closeReasonForState(j.State))
				return
			}
		}
		select {
		case <-s.baseCtx.Done():
			h.Close(stream.ReasonCanceled)
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// relay streams one worker-side run (job "<id>.<attempt>") into the
// hub, starting at the frames the hub already holds. It returns true
// when the hub was closed with a terminal reason the queue confirms;
// false tells the tap to re-resolve the job and reconnect (connection
// error, the worker hasn't created the attempt yet, a mid-stream
// disconnect, or this tap itself lagging out of the worker's ring).
func (s *server) relay(jobID string, attempt int, addr string, h *stream.Hub) bool {
	url := fmt.Sprintf("http://%s/v1/runs/%s.%d/stream?from=%d", addr, jobID, attempt, h.Seq())
	req, err := http.NewRequestWithContext(s.baseCtx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	br := bufio.NewReaderSize(resp.Body, 32<<10)
	for {
		line, err := br.ReadBytes('\n')
		if n := len(line); n > 0 && line[n-1] == '\n' {
			h.PublishFrame(line)
		}
		if err != nil {
			break
		}
	}
	reason, ok := stream.ParseCloseReason(resp.Trailer.Get("X-Stream-Close-Reason"))
	if !ok || reason == stream.ReasonLagged {
		// Mid-stream disconnect, or this tap lagged out of the worker's
		// ring: reconnect and resume at h.Seq().
		return false
	}
	// A failed or canceled attempt may still be retried by the fleet;
	// only a queue-terminal job ends the tap. (The completion races the
	// trailer — the next poll sees the settled state.)
	if j, err := s.q.Get(jobID); err == nil && !j.State.Terminal() {
		return false
	}
	h.Close(reason)
	return true
}

// handleStream follows one run as NDJSON: ring replay (or ?from=latest
// / ?from=N), then live frames, then the X-Stream-Close-Reason trailer —
// wire-identical whether the run executes here or on a fleet worker.
// With ?cancel_on_disconnect=1 the stream owns the run: the client
// hanging up cancels it (the service analogue of Ctrl-C on an attached
// simulation).
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	h := s.hubFor(id)
	if h == nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such run")
		return
	}
	cancelOnDisconnect := r.URL.Query().Get("cancel_on_disconnect") == "1"
	if _, err := stream.Serve(w, r, h, stream.ServeOptions{}); err != nil && cancelOnDisconnect {
		s.cancelRun(id)
	}
}
