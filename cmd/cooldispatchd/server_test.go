package main

import (
	"bufio"
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
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/stream"
)

const quickBody = `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"duration":3,"warmup":1,"grid_nx":12,"grid_ny":10}`

// newTestDispatcher builds a dispatcher with fleet timing tight enough
// for tests (lease 1 s, sweep 100 ms, local booker 20 ms) and serves it
// over httptest.
func newTestDispatcher(t *testing.T, stateDir string) (*dispatcher, *httptest.Server) {
	return newTestDispatcherDirs(t, stateDir, "")
}

func newTestDispatcherDirs(t *testing.T, stateDir, resultsDir string) (*dispatcher, *httptest.Server) {
	t.Helper()
	q, err := fleet.NewQueue(fleet.QueueConfig{
		LeaseTTL:    time.Second,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
		Dir:         stateDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDispatcher(q, 2, 4, "", resultsDir, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.camp.Resume(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.loops(ctx, 100*time.Millisecond, 20*time.Millisecond)
	ts := httptest.NewServer(d.handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		d.abort()
		d.wg.Wait()
	})
	return d, ts
}

func submitRun(t *testing.T, base, body, query string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, buf.String())
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID
}

func getRun(t *testing.T, base, id string) runView {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v runView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitStatus(t *testing.T, base, id, want string, timeout time.Duration) runView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := getRun(t, base, id)
		if v.Status == want {
			return v
		}
		if v.Status == "failed" && want != "failed" {
			t.Fatalf("run %s failed: %s", id, v.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	v := getRun(t, base, id)
	t.Fatalf("run %s stuck at %s (%s), want %s", id, v.Status, v.State, want)
	return v
}

// referenceReport runs the quick scenario uninterrupted, through the
// same canonicalization a dispatched job gets.
func referenceReport(t *testing.T) []byte {
	t.Helper()
	sc, err := fleet.DecodeScenario(json.RawMessage(quickBody))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coolsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLocalFallback: with zero workers registered the dispatcher
// executes jobs in-process, and the result matches a direct run.
func TestLocalFallback(t *testing.T) {
	_, ts := newTestDispatcher(t, "")
	id := submitRun(t, ts.URL, quickBody, "")
	v := waitStatus(t, ts.URL, id, "done", 30*time.Second)
	if string(v.Report) != string(referenceReport(t)) {
		t.Fatalf("local fallback report differs from direct run")
	}
	var m metricsView
	resp, _ := http.Get(ts.URL + "/v1/metrics")
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m.Fleet.LocalRuns != 1 {
		t.Fatalf("LocalRuns = %d", m.Fleet.LocalRuns)
	}
}

// startWorker runs a real fleet.Worker against the test dispatcher with
// a coolsim-executing runner.
func startWorker(t *testing.T, base string, capacity int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &fleet.Worker{
		Dispatcher:   base,
		Addr:         "test-worker",
		Capacity:     capacity,
		PollInterval: 20 * time.Millisecond,
		Runner: func(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
			sc, err := fleet.DecodeScenario(wj.Scenario)
			if err != nil {
				return nil, err
			}
			rep, err := coolsim.Run(ctx, sc)
			if err != nil {
				return nil, err
			}
			return json.Marshal(rep)
		},
	}
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	t.Cleanup(func() { cancel(); <-done })
	return cancel
}

// TestWorkerExecutesJob: the full dispatcher ↔ worker protocol over
// HTTP, ending in the same bytes as a direct run.
func TestWorkerExecutesJob(t *testing.T) {
	_, ts := newTestDispatcher(t, "")
	startWorker(t, ts.URL, 2)
	id := submitRun(t, ts.URL, quickBody, "")
	v := waitStatus(t, ts.URL, id, "done", 30*time.Second)
	if string(v.Report) != string(referenceReport(t)) {
		t.Fatal("worker report differs from direct run")
	}
	if v.Worker != "" {
		t.Fatalf("completed job still assigned to %s", v.Worker)
	}
	if len(v.Attempts) != 1 || v.Attempts[0].Outcome != fleet.OutcomeCompleted {
		t.Fatalf("attempts = %+v", v.Attempts)
	}
}

// TestKilledWorkerRequeue is the HTTP-level version of the core
// robustness test: a worker books a job and vanishes without a word
// (SIGKILL); the lease expires, the job requeues, a survivor finishes
// it, and the report is byte-identical to an uninterrupted run.
func TestKilledWorkerRequeue(t *testing.T) {
	d, ts := newTestDispatcher(t, "")

	// The victim: speaks the protocol directly, books the job, then goes
	// silent forever — no heartbeat, no completion, no deregister.
	var reg fleet.RegisterResponse
	postJSON(t, ts.URL+"/v1/fleet/register", fleet.RegisterRequest{Addr: "victim", Capacity: 1}, &reg)

	id := submitRun(t, ts.URL, quickBody, "")
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
	startWorker(t, ts.URL, 1)
	v := waitStatus(t, ts.URL, id, "done", 30*time.Second)
	if string(v.Report) != string(referenceReport(t)) {
		t.Fatal("requeued report differs from uninterrupted run")
	}
	if len(v.Attempts) != 2 || v.Attempts[0].Outcome != fleet.OutcomeLost {
		t.Fatalf("attempts = %+v", v.Attempts)
	}
	m := d.q.Snapshot()
	if m.WorkersLost != 1 || m.Requeues != 1 {
		t.Fatalf("metrics: lost %d requeues %d", m.WorkersLost, m.Requeues)
	}
}

// TestPanicReportedAndBounded: a worker whose runner panics survives,
// reports the panic, and the job lands in the terminal error state once
// max_attempts (here 1) is exhausted — with the panic in its history.
func TestPanicReportedAndBounded(t *testing.T) {
	_, ts := newTestDispatcher(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &fleet.Worker{
		Dispatcher:   ts.URL,
		Capacity:     1,
		PollInterval: 20 * time.Millisecond,
		Runner: func(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
			panic("synthetic solver blow-up")
		},
	}
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	id := submitRun(t, ts.URL, quickBody, "?max_attempts=1")
	v := waitStatus(t, ts.URL, id, "failed", 10*time.Second)
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

// TestRestartRecovery: jobs submitted to a dispatcher with a state dir
// survive a process restart and complete under the new process.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()

	// First life: accept two jobs, then "crash" (no drain, no cleanup —
	// the queue object is simply abandoned).
	q1, err := fleet.NewQueue(fleet.QueueConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := newDispatcher(q1, 1, 4, "", "", stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(d1.handler())
	id1 := submitRun(t, ts1.URL, quickBody, "")
	id2 := submitRun(t, ts1.URL, quickBody, "")
	ts1.Close()
	d1.abort()

	// Second life: recover from the journal and execute locally.
	_, ts2 := newTestDispatcher(t, dir)
	for _, id := range []string{id1, id2} {
		v := waitStatus(t, ts2.URL, id, "done", 60*time.Second)
		if string(v.Report) != string(referenceReport(t)) {
			t.Fatalf("recovered job %s report differs", id)
		}
	}
}

// TestBatchEndpoint: the synchronous batch API returns per-scenario
// reports in input order, identical to single-run submissions.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestDispatcher(t, "")
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
}

// TestBatchFailureCancelsSiblings: when one batch member fails, the 500
// response names no job IDs, so the dispatcher must cancel the members
// still in flight rather than leave them running with no one to collect
// them. The failing member comes second, so the batch must also notice a
// failure behind a still-running member.
func TestBatchFailureCancelsSiblings(t *testing.T) {
	d, ts := newTestDispatcher(t, "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &fleet.Worker{
		Dispatcher:   ts.URL,
		Capacity:     2,
		PollInterval: 20 * time.Millisecond,
		Runner: func(ctx context.Context, wj fleet.WireJob) (json.RawMessage, error) {
			sc, err := fleet.DecodeScenario(wj.Scenario)
			if err != nil {
				return nil, err
			}
			if sc.Seed == 2 {
				panic("synthetic member failure")
			}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	// Wait for the worker, so the local fallback never books a member.
	deadline := time.Now().Add(5 * time.Second)
	for d.q.ReachableWorkers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

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

	jobs := d.q.List()
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
		v := waitStatus(t, ts.URL, j.ID, "canceled", 10*time.Second)
		if v.State != string(fleet.StateCanceled) {
			t.Fatalf("sibling state = %s, want canceled", v.State)
		}
		return
	}
	t.Fatal("blocking sibling not found in the queue")
}

// TestMetricsFactorCounters: the dispatcher's local platform cache
// serves the shared-factor counters under /v1/metrics platform_cache,
// and a repeated batch adds hits but no factorization.
func TestMetricsFactorCounters(t *testing.T) {
	_, ts := newTestDispatcher(t, "")
	body := fmt.Sprintf(`{"scenarios":[%s,%s]}`, quickBody, quickBody)
	batch := func() coolsim.PlatformCacheStats {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d", resp.StatusCode)
		}
		mresp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		var m metricsView
		if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.PlatformCache
	}
	cold := batch()
	warm := batch()
	if cold.FactorBuilds == 0 || warm.FactorBuilds != cold.FactorBuilds || warm.FactorHits <= cold.FactorHits {
		t.Errorf("factor counters cold builds=%d hits=%d, warm builds=%d hits=%d; want builds > 0 and unchanged, hits grown",
			cold.FactorBuilds, cold.FactorHits, warm.FactorBuilds, warm.FactorHits)
	}
}

// TestRejectsBadRequests: the hardened decode path and the fault
// validation both surface as structured 4xx errors.
func TestRejectsBadRequests(t *testing.T) {
	_, ts := newTestDispatcher(t, "")
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown field", `{"workload":"gzip","typo":1}`, 400, fleet.CodeBadJSON},
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

// TestCancelRun: canceling a queued job resolves it immediately.
func TestCancelRun(t *testing.T) {
	d, ts := newTestDispatcher(t, "")
	// Pause local fallback by registering a worker that never polls, so
	// the job stays queued long enough to cancel.
	d.q.Register("lazy", 1)
	id := submitRun(t, ts.URL, quickBody, "")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v runView
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if v.Status != "canceled" {
		t.Fatalf("after cancel: %s (%s)", v.Status, v.State)
	}
}

// TestCampaignOverHTTP: a sweep campaign submitted to the dispatcher
// expands server-side, fans out (here onto the local fallback executor),
// and streams its aggregate in expansion order with every line
// byte-identical to a solo run of the expanded member. The terminal
// status view and the campaign metrics rollup both reflect completion.
func TestCampaignOverHTTP(t *testing.T) {
	_, ts := newTestDispatcher(t, "")
	spec := `{"name":"grid","sweep":{"base":` + quickBody + `,"layers":[2,4],"seeds":[1,2]}}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		t.Fatalf("create: %d %s", resp.StatusCode, buf.String())
	}
	var cv campaign.View
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cv.Members != 4 || cv.Priority != "bulk" {
		t.Fatalf("view = %+v", cv)
	}

	// The reference: expand the same spec in-process and run each member
	// solo, uninterrupted.
	var cspec coolsim.Campaign
	if err := json.Unmarshal([]byte(spec), &cspec); err != nil {
		t.Fatal(err)
	}
	scs, err := cspec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 {
		t.Fatalf("expanded %d members", len(scs))
	}

	// The results stream follows the campaign to completion.
	rs, err := http.Get(ts.URL + "/v1/campaigns/" + cv.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Body.Close()
	sc := bufio.NewScanner(rs.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(scs) {
		t.Fatalf("stream has %d lines, want %d", len(lines), len(scs))
	}
	for i, s := range scs {
		rep, err := coolsim.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if lines[i] != string(ref) {
			t.Fatalf("member %d stream line differs from solo run", i)
		}
	}

	var got campaign.View
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + cv.ID)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != "done" || got.Counts.Done != 4 || got.Progress != 1 {
		t.Fatalf("final view = %+v", got)
	}

	var m metricsView
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m.Campaigns.Done != 1 || m.Campaigns.ExpandedMembers != 4 {
		t.Fatalf("campaign metrics = %+v", m.Campaigns)
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
