package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/coolsim"
	"repro/internal/fleet"
)

// startWorker runs a fleet.Worker against the daemon under test with
// the given runner (nil: execute the canonical scenario with coolsim).
func startWorker(t *testing.T, base string, capacity int, runner fleet.Runner) {
	t.Helper()
	if runner == nil {
		runner = func(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
			sc, err := fleet.DecodeScenario(wj.Scenario)
			if err != nil {
				return nil, err
			}
			rep, err := coolsim.Run(ctx, sc)
			if err != nil {
				return nil, err
			}
			return json.Marshal(rep)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &fleet.Worker{
		Dispatcher:   base,
		Addr:         "test-worker",
		Capacity:     capacity,
		PollInterval: 20 * time.Millisecond,
		Runner:       runner,
	}
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	t.Cleanup(func() { cancel(); <-done })
}

// waitWorkers blocks until n fleet workers are reachable, so the local
// executor books nothing from then on.
func waitWorkers(t *testing.T, s *server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.q.ReachableWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, buf.String())
	}
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
}

// TestLocalFallback: with zero workers registered the daemon executes
// jobs in-process, and the result matches a direct run of the canonical
// scenario byte for byte.
func TestLocalFallback(t *testing.T) {
	_, ts := testServer(t)
	id := submit(t, ts, quickBody)
	v := waitStatus(t, ts, id, statusDone, 30*time.Second)
	if string(v.Report) != string(referenceReport(t)) {
		t.Fatalf("local report differs from direct run")
	}
	if m := getMetrics(t, ts); m.Fleet.LocalRuns != 1 {
		t.Fatalf("LocalRuns = %d", m.Fleet.LocalRuns)
	}
}

// TestWorkerExecutesJob: the full dispatcher ↔ worker protocol over
// HTTP, ending in the same bytes as a direct run.
func TestWorkerExecutesJob(t *testing.T) {
	s, ts := testServer(t)
	startWorker(t, ts.URL, 2, nil)
	waitWorkers(t, s, 1)
	id := submit(t, ts, quickBody)
	v := waitStatus(t, ts, id, statusDone, 30*time.Second)
	if string(v.Report) != string(referenceReport(t)) {
		t.Fatal("worker report differs from direct run")
	}
	if v.Worker != "" {
		t.Fatalf("completed job still assigned to %s", v.Worker)
	}
	if len(v.Attempts) != 1 || v.Attempts[0].Outcome != fleet.OutcomeCompleted || v.Attempts[0].Worker == fleet.LocalWorker {
		t.Fatalf("attempts = %+v", v.Attempts)
	}
}

// TestKilledWorkerRequeue is the HTTP-level version of the core
// robustness test: a worker books a job and vanishes without a word
// (SIGKILL); the lease expires, the job requeues, a survivor finishes
// it, and the report is byte-identical to an uninterrupted run.
func TestKilledWorkerRequeue(t *testing.T) {
	s, ts := testServer(t)

	// The victim: speaks the protocol directly, books the job, then goes
	// silent forever — no heartbeat, no completion, no deregister.
	var reg fleet.RegisterResponse
	postJSON(t, ts.URL+"/v1/fleet/register", fleet.RegisterRequest{Addr: "victim", Capacity: 1}, &reg)

	id := submit(t, ts, quickBody)
	var polled fleet.PollResponse
	deadline := time.Now().Add(5 * time.Second)
	for len(polled.Jobs) == 0 && time.Now().Before(deadline) {
		postJSON(t, ts.URL+"/v1/fleet/poll", fleet.PollRequest{WorkerID: reg.WorkerID, Slots: 1}, &polled)
		time.Sleep(10 * time.Millisecond)
	}
	if len(polled.Jobs) != 1 || polled.Jobs[0].ID != id {
		t.Fatalf("victim booked %+v", polled.Jobs)
	}
	// ...victim dies here. The survivor joins; after the 1 s lease the
	// sweep requeues the job onto it.
	startWorker(t, ts.URL, 1, nil)
	v := waitStatus(t, ts, id, statusDone, 30*time.Second)
	if string(v.Report) != string(referenceReport(t)) {
		t.Fatal("requeued report differs from uninterrupted run")
	}
	if len(v.Attempts) != 2 || v.Attempts[0].Outcome != fleet.OutcomeLost {
		t.Fatalf("attempts = %+v", v.Attempts)
	}
	m := s.q.Snapshot()
	if m.WorkersLost != 1 || m.Requeues != 1 {
		t.Fatalf("metrics: lost %d requeues %d", m.WorkersLost, m.Requeues)
	}
}

// TestPanicReportedAndBounded: a worker whose runner panics survives,
// reports the panic, and the job lands in the terminal error state once
// max_attempts (here 1) is exhausted — with the panic in its history.
func TestPanicReportedAndBounded(t *testing.T) {
	s, ts := testServer(t)
	startWorker(t, ts.URL, 1, func(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
		panic("synthetic solver blow-up")
	})
	waitWorkers(t, s, 1)

	id := submitQuery(t, ts, quickBody, "?max_attempts=1")
	v := waitStatus(t, ts, id, statusFailed, 10*time.Second)
	if v.State != string(fleet.StateError) {
		t.Fatalf("state = %s", v.State)
	}
	if !strings.Contains(v.Error, "panic") || !strings.Contains(v.Error, "synthetic solver blow-up") {
		t.Fatalf("error = %q", v.Error)
	}
	if len(v.Attempts) != 1 || v.Attempts[0].Outcome != fleet.OutcomePanic {
		t.Fatalf("attempts = %+v", v.Attempts)
	}
}

// TestRestartRecovery: jobs submitted to a daemon with a state dir
// survive a process restart and complete under the new process.
func TestRestartRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.queue.Dir = t.TempDir()

	// First life: accept two jobs while a worker that never polls keeps
	// the local executor idle, then "crash" (no drain, no cleanup).
	s1, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1.q.Register("lazy", 1)
	ts1 := httptest.NewServer(s1.handler())
	id1 := submit(t, ts1, quickBody)
	id2 := submit(t, ts1, quickBody)
	ts1.Close()
	s1.abort()

	// Second life: recover from the journal and execute locally.
	_, ts2 := startServer(t, cfg)
	for _, id := range []string{id1, id2} {
		v := waitStatus(t, ts2, id, statusDone, 60*time.Second)
		if string(v.Report) != string(referenceReport(t)) {
			t.Fatalf("recovered job %s report differs", id)
		}
	}
}

// TestBatchFanOut: with a fleet worker reachable, POST /v1/batches
// fans its scenarios out as queue jobs and returns the reports in input
// order, identical to single-run submissions.
func TestBatchFanOut(t *testing.T) {
	s, ts := testServer(t)
	startWorker(t, ts.URL, 2, nil)
	waitWorkers(t, s, 1)
	body := fmt.Sprintf(`{"scenarios":[%s,%s]}`, quickBody, quickBody)
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("batch: %d %s", resp.StatusCode, buf.String())
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	ref := referenceReport(t)
	if len(br.Reports) != 2 || string(br.Reports[0]) != string(ref) || string(br.Reports[1]) != string(ref) {
		t.Fatalf("batch reports wrong (%d)", len(br.Reports))
	}
	m := s.q.Snapshot()
	if m.LocalRuns != 0 || m.Jobs.Completed != 2 {
		t.Fatalf("fan-out ran %d jobs locally, %d completed", m.LocalRuns, m.Jobs.Completed)
	}
}

// TestBatchFailureCancelsSiblings: when one fanned-out batch member
// fails, the 500 response names no job IDs, so the daemon must cancel
// the members still in flight rather than leave them running with no
// one to collect them. The failing member comes second, so the batch
// must also notice a failure behind a still-running member.
func TestBatchFailureCancelsSiblings(t *testing.T) {
	s, ts := testServer(t)
	startWorker(t, ts.URL, 2, func(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
		sc, err := fleet.DecodeScenario(wj.Scenario)
		if err != nil {
			return nil, err
		}
		if sc.Seed == 2 {
			panic("synthetic member failure")
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	// Wait for the worker, so the local executor never books a member.
	waitWorkers(t, s, 1)

	blocker := strings.Replace(quickBody, `"workload"`, `"seed":1,"workload"`, 1)
	failer := strings.Replace(quickBody, `"workload"`, `"seed":2,"workload"`, 1)
	body := fmt.Sprintf(`{"scenarios":[%s,%s]}`, blocker, failer)
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch with a failed member: %d, want 500", resp.StatusCode)
	}

	jobs := s.q.List()
	if len(jobs) != 2 {
		t.Fatalf("queue holds %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		sc, err := fleet.DecodeScenario(j.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seed != 1 {
			continue
		}
		v := waitStatus(t, ts, j.ID, statusCanceled, 10*time.Second)
		if v.State != string(fleet.StateCanceled) {
			t.Fatalf("sibling state = %s, want canceled", v.State)
		}
		return
	}
	t.Fatal("blocking sibling not found in the queue")
}

// TestRejectsBadRequests: the hardened decode path and the fault
// validation both surface as structured 4xx errors.
func TestRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown field", `{"workload":"gzip","typo":1}`, 400, fleet.CodeBadJSON},
		{"retired solver field", `{"workload":"gzip","solver":"auto"}`, 400, fleet.CodeBadJSON},
		{"trailing data", quickBody + `{"x":1}`, 400, fleet.CodeBadJSON},
		{"bad faults dropout", `{"faults":{"sensor_dropout_prob":1.5}}`, 400, fleet.CodeBadScenario},
		{"bad faults noise", `{"faults":{"sensor_noise_stddev":-1}}`, 400, fleet.CodeBadScenario},
		{"bad faults pump", `{"faults":{"pump_stuck":9}}`, 400, fleet.CodeBadScenario},
		{"bad layers", `{"layers":3}`, 400, fleet.CodeBadScenario},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.status || e.Code != tc.code {
			t.Errorf("%s: got %d/%s (%s), want %d/%s", tc.name, resp.StatusCode, e.Code, e.Error, tc.status, tc.code)
		}
	}
	// Oversized body → 413.
	big := `{"workload":"` + strings.Repeat("x", fleet.MaxBodyBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: %d", resp.StatusCode)
	}
}

// TestCancelRun: canceling a queued job resolves it in the DELETE
// response itself.
func TestCancelRun(t *testing.T) {
	s, ts := testServer(t)
	// Pause the local executor by registering a worker that never polls,
	// so the job stays queued long enough to cancel.
	s.q.Register("lazy", 1)
	id := submit(t, ts, quickBody)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v runView
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if v.Status != statusCanceled {
		t.Fatalf("after cancel: %s (%s)", v.Status, v.State)
	}
}
