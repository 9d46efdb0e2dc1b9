package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/coolsim"
	"repro/internal/campaign"
	"repro/internal/fleet"
)

// testConfig is a small daemon with fleet timing tight enough for
// tests: 1 s leases (so a 250 ms sweep), millisecond retry backoff.
func testConfig() config {
	return config{workers: 2, queue: fleet.QueueConfig{
		LeaseTTL:    time.Second,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
	}}
}

func testServer(t *testing.T) (*server, *httptest.Server) {
	return startServer(t, testConfig())
}

func startServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.camp.Resume(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.drain(0) // cancel anything still running, wait for it
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	return submitQuery(t, ts, body, "")
}

func submitQuery(t *testing.T, ts *httptest.Server, body, query string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/runs = %d: %s", resp.StatusCode, buf.String())
	}
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "job-") || sub.Status != statusQueued {
		t.Fatalf("bad submit response: %+v", sub)
	}
	return sub.ID
}

func getView(t *testing.T, ts *httptest.Server, id string) runView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
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

func waitStatus(t *testing.T, ts *httptest.Server, id, want string, timeout time.Duration) runView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := getView(t, ts, id)
		if v.Status == want {
			return v
		}
		if v.Status == statusFailed && want != statusFailed {
			t.Fatalf("run %s failed: %s", id, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %q (last: %+v)", id, want, getView(t, ts, id))
	return runView{}
}

// reportOf decodes a view's report bytes.
func reportOf(t *testing.T, v runView) *coolsim.Report {
	t.Helper()
	if v.Report == nil {
		t.Fatalf("run %s has no report", v.ID)
	}
	var r coolsim.Report
	if err := json.Unmarshal(v.Report, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

func getMetrics(t *testing.T, ts *httptest.Server) metricsView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// referenceReport runs the quick scenario uninterrupted, through the
// same canonicalization a queued job gets.
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

// The quick scenario of the round-trip tests: coarse grid, short window.
const quickBody = `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,
	"duration":3,"warmup":1,"grid_nx":12,"grid_ny":10}`

// TestSubmitPollStreamRoundTrip is the end-to-end contract: a submitted
// scenario must report exactly what an in-process coolsim.Run of the same
// Scenario reports, and the stream must carry every tick.
func TestSubmitPollStreamRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	id := submit(t, ts, quickBody)
	v := waitStatus(t, ts, id, statusDone, 60*time.Second)
	report := reportOf(t, v)

	// Stream after completion: full replay, then EOF.
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var streamed []coolsim.Sample
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var smp coolsim.Sample
		if err := json.Unmarshal(sc.Bytes(), &smp); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		streamed = append(streamed, smp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Reference: the same scenario, run in-process.
	sc2 := coolsim.DefaultScenario()
	sc2.Workload = "gzip"
	sc2.Duration = 3
	sc2.Warmup = 1
	sc2.GridNX, sc2.GridNY = 12, 10
	want, err := coolsim.Run(context.Background(), sc2)
	if err != nil {
		t.Fatal(err)
	}

	if report.MaxTempC != want.MaxTempC || report.ChipEnergyJ != want.ChipEnergyJ ||
		report.Completed != want.Completed || report.Samples != want.Samples {
		t.Errorf("served report diverges from in-process run:\nserved %+v\nlocal  %+v",
			report, want)
	}
	measured := 0
	for _, smp := range streamed {
		if smp.Measured {
			measured++
		}
	}
	if measured != want.Samples {
		t.Errorf("streamed %d measured samples, want %d", measured, want.Samples)
	}
	if v.Samples != len(streamed) {
		t.Errorf("status reports %d samples, stream carried %d", v.Samples, len(streamed))
	}
	last := streamed[len(streamed)-1]
	if last.Time < 2.8 {
		t.Errorf("last streamed tick at t=%v, want ≈ 3.0", last.Time)
	}
}

// TestStreamDisconnectCancelsJob is the mid-run cancellation contract: a
// client that owns the run via ?cancel_on_disconnect=1 and hangs up must
// abort the job promptly.
func TestStreamDisconnectCancelsJob(t *testing.T) {
	_, ts := testServer(t)
	// An hour of simulated time: only cancellation can end this quickly.
	id := submit(t, ts, `{"workload":"gzip","cooling":"max","policy":"lb","layers":2,
		"duration":3600,"warmup":1,"grid_nx":12,"grid_ny":10}`)
	waitStatus(t, ts, id, statusRunning, 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream?cancel_on_disconnect=1")
	if err != nil {
		t.Fatal(err)
	}
	// Read a couple of live samples to prove the run is mid-flight...
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
	}
	// ...then hang up.
	resp.Body.Close()

	v := waitStatus(t, ts, id, statusCanceled, 30*time.Second)
	if v.Report != nil {
		t.Error("canceled job has a report")
	}
}

// TestDeleteCancelsQueuedAndRunning covers the explicit cancel endpoint
// for both a running job and one still waiting behind it in the queue.
func TestDeleteCancelsQueuedAndRunning(t *testing.T) {
	cfg := testConfig()
	cfg.workers = 1 // single slot: the second job must queue
	_, ts := startServer(t, cfg)

	long := `{"workload":"gzip","cooling":"max","policy":"lb","layers":2,
		"duration":3600,"warmup":1,"grid_nx":12,"grid_ny":10}`
	running := submit(t, ts, long)
	queued := submit(t, ts, long)
	waitStatus(t, ts, running, statusRunning, 30*time.Second)

	for _, id := range []string{queued, running} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitStatus(t, ts, id, statusCanceled, 30*time.Second)
	}
}

// TestDeleteWithAttachedFollowers is the teardown contract: DELETE
// /v1/runs/{id} while several followers are attached mid-run — some
// owning the run via ?cancel_on_disconnect=1 — must close every stream
// promptly with the canceled trailer, and every handler goroutine must
// unwind (no leaks: the hub close wakes parked subscribers instead of
// leaving them blocked forever).
func TestDeleteWithAttachedFollowers(t *testing.T) {
	_, ts := testServer(t)
	id := submit(t, ts, `{"workload":"gzip","cooling":"max","policy":"lb","layers":2,
		"duration":3600,"warmup":1,"grid_nx":12,"grid_ny":10}`)
	waitStatus(t, ts, id, statusRunning, 30*time.Second)

	before := runtime.NumGoroutine()

	const followers = 8
	type result struct {
		reason string
		err    error
	}
	results := make(chan result, followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			url := ts.URL + "/v1/runs/" + id + "/stream"
			if i%2 == 0 {
				url += "?cancel_on_disconnect=1"
			}
			resp, err := http.Get(url)
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				results <- result{err: err}
				return
			}
			results <- result{reason: resp.Trailer.Get("X-Stream-Close-Reason")}
		}(i)
	}
	// Let the followers attach and read live frames.
	time.Sleep(200 * time.Millisecond)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for i := 0; i < followers; i++ {
		select {
		case res := <-results:
			if res.err != nil {
				t.Fatalf("follower failed: %v", res.err)
			}
			if res.reason != "canceled" {
				t.Fatalf("close reason = %q, want canceled", res.reason)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a follower is still attached after DELETE")
		}
	}
	waitStatus(t, ts, id, statusCanceled, 30*time.Second)

	// Every stream handler must have unwound; only the idle keep-alive
	// connections need a nudge.
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []string{
		`{"workload":"bogus"}`,    // unknown workload
		`{"cooling":"freon"}`,     // unknown cooling
		`{"layers":3}`,            // bad layer count
		`{"wokload":"gzip"}`,      // typoed field
		`{"workload":` + `"gzip"`, // truncated JSON
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown run = %d, want 404", resp.StatusCode)
	}
}

func TestListRuns(t *testing.T) {
	_, ts := testServer(t)
	a := submit(t, ts, quickBody)
	b := submit(t, ts, quickBody)
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []runView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].ID != a || views[1].ID != b {
		t.Errorf("list = %+v, want [%s %s] in order", views, a, b)
	}
	waitStatus(t, ts, a, statusDone, 60*time.Second)
	waitStatus(t, ts, b, statusDone, 60*time.Second)
}

// TestRetentionEvictsOldestFinished bounds the daemon's memory: with a
// cap of 1, finishing a second run must evict the first (404 afterwards),
// while queued/running jobs are untouchable.
func TestRetentionEvictsOldestFinished(t *testing.T) {
	cfg := testConfig()
	cfg.workers, cfg.queue.Retain = 1, 1
	s, ts := startServer(t, cfg)

	a := submit(t, ts, quickBody)
	waitStatus(t, ts, a, statusDone, 60*time.Second)
	b := submit(t, ts, quickBody)
	waitStatus(t, ts, b, statusDone, 60*time.Second)
	c := submit(t, ts, quickBody) // b finishing evicted a; c finishing evicts b
	waitStatus(t, ts, c, statusDone, 60*time.Second)

	resp, err := http.Get(ts.URL + "/v1/runs/" + a)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted run %s still served: %d", a, resp.StatusCode)
	}
	if v := getView(t, ts, c); v.Status != statusDone {
		t.Errorf("latest run evicted: %+v", v)
	}
	// The hub goes with its job.
	if m := getMetrics(t, ts); m.Streams.Hubs != 1 || m.Jobs.Retained != 1 {
		t.Errorf("after eviction: %d hubs, %d jobs retained, want 1/1", m.Streams.Hubs, m.Jobs.Retained)
	}
	if s.hub(a) != nil {
		t.Error("evicted run's hub still registered")
	}
}

func TestDrainRejectsNewJobs(t *testing.T) {
	s, err := newServer(config{workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	id := submit(t, ts, quickBody)
	go s.drain(60 * time.Second) // lets the quick run finish
	// Intake must close promptly even while the running job drains.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(quickBody))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("intake still open during drain (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The job submitted before the drain still completes.
	waitStatus(t, ts, id, statusDone, 60*time.Second)
}

// TestMetricsWarmSecondJob is the warm-start contract of the platform
// cache: a second job on the same stack shape hits the cache and rebuilds
// no LUT, weight table or symbolic analysis — and the metrics endpoint
// proves it, which is what the CI smoke step asserts against a live
// daemon. The two reports must also be identical (shared artifacts change
// nothing about the results).
func TestMetricsWarmSecondJob(t *testing.T) {
	_, ts := testServer(t)

	a := submit(t, ts, quickBody)
	va := waitStatus(t, ts, a, statusDone, 60*time.Second)
	b := submit(t, ts, quickBody)
	vb := waitStatus(t, ts, b, statusDone, 60*time.Second)

	if !bytes.Equal(va.Report, vb.Report) {
		t.Errorf("warm report differs from cold:\ncold %s\nwarm %s", va.Report, vb.Report)
	}

	m := getMetrics(t, ts)
	if m.Jobs.Done != 2 || m.Jobs.Started != 2 {
		t.Errorf("jobs done=%d started=%d, want 2/2", m.Jobs.Done, m.Jobs.Started)
	}
	pc := m.PlatformCache
	if pc.Misses != 1 || pc.Hits < 1 {
		t.Errorf("platform cache hits=%d misses=%d, want >=1 hit and exactly 1 miss", pc.Hits, pc.Misses)
	}
	if pc.LUTBuilds != 1 || pc.WeightBuilds != 1 || pc.SymbolicBuilds != 1 {
		t.Errorf("builds lut=%d weights=%d symbolic=%d, want exactly 1 each",
			pc.LUTBuilds, pc.WeightBuilds, pc.SymbolicBuilds)
	}
}

// TestMetricsWarmBatchNoRefactor is the shared-factor contract of the
// platform cache: the runs of a batch factorize each (flow > 0, dt)
// system once per platform, and a second, identical batch solves
// entirely through those factors — /v1/metrics shows factor_builds
// unchanged and factor_hits grown.
func TestMetricsWarmBatchNoRefactor(t *testing.T) {
	_, ts := testServer(t)
	sc := `{"workload":"Web-med","cooling":"%s","policy":"%s","layers":2,
		"duration":1,"warmup":0.5,"grid_nx":12,"grid_ny":10,"seed":%d}`
	body := `{"workers":2,"scenarios":[` +
		fmt.Sprintf(sc, "max", "lb", 1) + `,` + fmt.Sprintf(sc, "var", "talb", 1) + `,` +
		fmt.Sprintf(sc, "max", "mig", 2) + `,` + fmt.Sprintf(sc, "var", "lb", 2) + `]}`
	batch := func() coolsim.PlatformCacheStats {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/batches = %d", resp.StatusCode)
		}
		mresp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		raw, err := io.ReadAll(mresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"factor_builds":`, `"factor_hits":`} {
			if !bytes.Contains(raw, []byte(key)) {
				t.Fatalf("metrics lack %s: %s", key, raw)
			}
		}
		var m metricsView
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m.PlatformCache
	}
	cold := batch()
	if cold.FactorBuilds == 0 || cold.FactorHits == 0 {
		t.Fatalf("cold batch: factor_builds=%d factor_hits=%d, want both > 0",
			cold.FactorBuilds, cold.FactorHits)
	}
	warm := batch()
	if warm.FactorBuilds != cold.FactorBuilds {
		t.Errorf("warm batch factorized: factor_builds %d -> %d, want unchanged",
			cold.FactorBuilds, warm.FactorBuilds)
	}
	if warm.FactorHits <= cold.FactorHits {
		t.Errorf("warm batch: factor_hits %d -> %d, want growth", cold.FactorHits, warm.FactorHits)
	}
}

// TestMetricsFactorCounters: a repeated batch reuses the platform's
// cached LDLᵀ factors — the factor_builds counter stays put while
// factor_hits grows.
func TestMetricsFactorCounters(t *testing.T) {
	_, ts := testServer(t)
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
		return getMetrics(t, ts).PlatformCache
	}
	cold := batch()
	warm := batch()
	if cold.FactorBuilds == 0 || warm.FactorBuilds != cold.FactorBuilds || warm.FactorHits <= cold.FactorHits {
		t.Errorf("factor counters cold builds=%d hits=%d, warm builds=%d hits=%d; want builds > 0 and unchanged, hits grown",
			cold.FactorBuilds, cold.FactorHits, warm.FactorBuilds, warm.FactorHits)
	}
}

// TestBatchEndpoint: POST /v1/batches runs platform-sharing scenarios
// through the gang scheduler, returns reports identical to solo runs,
// and surfaces the batching statistics on /v1/metrics.
func TestBatchEndpoint(t *testing.T) {
	_, ts := testServer(t)

	solo := submit(t, ts, `{"workload":"Web-med","cooling":"max","policy":"lb","layers":2,
		"duration":2,"warmup":1,"grid_nx":12,"grid_ny":10,"seed":3}`)
	ref := waitStatus(t, ts, solo, statusDone, 60*time.Second)

	sc := `{"workload":"Web-med","cooling":"max","policy":"lb","layers":2,
		"duration":2,"warmup":1,"grid_nx":12,"grid_ny":10,"seed":%d}`
	body := `{"workers":1,"scenarios":[` +
		fmt.Sprintf(sc, 1) + `,` + fmt.Sprintf(sc, 2) + `,` +
		fmt.Sprintf(sc, 3) + `,` + fmt.Sprintf(sc, 4) + `]}`
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/batches = %d: %s", resp.StatusCode, buf.String())
	}
	var br struct {
		Reports []*coolsim.Report `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(br.Reports))
	}
	batched := int64(0)
	for i, r := range br.Reports {
		if r == nil {
			t.Fatalf("report %d is nil", i)
		}
		batched += r.BatchedSolves
	}
	if batched == 0 {
		t.Error("no batched solves across an oversubscribed batch")
	}
	// Seed 3 of the batch must match the solo run, batching diagnostics
	// aside.
	want, got := *reportOf(t, ref), *br.Reports[2]
	want.BatchedSolves, got.BatchedSolves = 0, 0
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("batched report differs from solo run:\nsolo  %s\nbatch %s", wb, gb)
	}

	m := getMetrics(t, ts)
	if m.Batches != 1 {
		t.Errorf("batches = %d, want 1", m.Batches)
	}
	if m.Batch.Sweeps == 0 || m.Batch.BatchedSolves == 0 || len(m.Batch.BatchWidth) == 0 {
		t.Errorf("batch metrics empty: %+v", m.Batch)
	}
}

// TestBatchValidation: malformed and invalid batches fail fast.
func TestBatchValidation(t *testing.T) {
	_, ts := testServer(t)
	for _, body := range []string{
		`{"scenarios":[]}`,
		`{"scenarios":[{"workload":"nope","cooling":"max","policy":"lb","layers":2}]}`,
		`{"scenarios":[{"workload":"gzip","cooling":"max","policy":"lb","layers":2}],"unknown":1}`,
		`{"scenarios":[{"workload":"gzip","typo_knob":1}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/batches %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestBatchScenarioDefaults: unset scenario fields in a batch inherit
// DefaultScenario, exactly like a /v1/runs submission.
func TestBatchScenarioDefaults(t *testing.T) {
	_, ts := testServer(t)
	body := `{"scenarios":[{"workload":"gzip","cooling":"max",
		"duration":1,"warmup":0.2,"grid_nx":12,"grid_ny":10}]}`
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batches = %d, want 200", resp.StatusCode)
	}
	var br struct {
		Reports []*coolsim.Report `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(br.Reports))
	}
	def := coolsim.DefaultScenario()
	got := br.Reports[0].Scenario
	if got.Layers != def.Layers || got.Policy != def.Policy || got.Seed != def.Seed {
		t.Errorf("batch scenario did not inherit defaults: %+v", got)
	}
}

// readCampaignStream collects the NDJSON result lines of one campaign.
func readCampaignStream(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// sessionNDJSON encodes every tick of a solo session of sc exactly the
// way the pre-hub stream endpoint did — the byte-identity target for a
// member's live frames.
func sessionNDJSON(t *testing.T, sc coolsim.Scenario) []byte {
	t.Helper()
	ss, err := coolsim.NewSession(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for {
		smp, err := ss.Step()
		if err != nil {
			if errors.Is(err, coolsim.ErrSessionDone) {
				return buf.Bytes()
			}
			t.Fatal(err)
		}
		if err := enc.Encode(smp); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCampaignLiveStream: GET /v1/campaigns/{id}/stream follows every
// member's live ticks on one member-tagged NDJSON response. A subscriber
// attached at submit time must see every tick of every member (ring
// replay covers members that start before their pump attaches), and each
// member's embedded frames must be byte-identical to a solo session of
// the expanded scenario.
func TestCampaignLiveStream(t *testing.T) {
	_, ts := testServer(t)
	spec := `{"name":"live","sweep":{"base":` + quickBody + `,"seeds":[1,2]}}`
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
	var cv struct {
		ID      string `json:"id"`
		Members int    `json:"members"`
	}
	json.NewDecoder(resp.Body).Decode(&cv)
	resp.Body.Close()

	rs, err := http.Get(ts.URL + "/v1/campaigns/" + cv.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Body.Close()
	if ct := rs.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	perMember := map[int]*bytes.Buffer{}
	scn := bufio.NewScanner(rs.Body)
	scn.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scn.Scan() {
		var line struct {
			Member *int            `json:"member"`
			Sample json.RawMessage `json:"sample"`
		}
		if err := json.Unmarshal(scn.Bytes(), &line); err != nil || line.Member == nil {
			t.Fatalf("bad stream line %q: %v", scn.Text(), err)
		}
		b := perMember[*line.Member]
		if b == nil {
			b = &bytes.Buffer{}
			perMember[*line.Member] = b
		}
		// json.RawMessage keeps the embedded frame bytes verbatim.
		b.Write(line.Sample)
		b.WriteByte('\n')
	}
	if err := scn.Err(); err != nil {
		t.Fatal(err)
	}

	var cspec coolsim.Campaign
	if err := json.Unmarshal([]byte(spec), &cspec); err != nil {
		t.Fatal(err)
	}
	scs, err := cspec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(perMember) != len(scs) {
		t.Fatalf("stream carried %d members, want %d", len(perMember), len(scs))
	}
	for i, sc := range scs {
		if !bytes.Equal(perMember[i].Bytes(), sessionNDJSON(t, sc)) {
			t.Fatalf("member %d live stream differs from a solo session", i)
		}
	}
}

// TestCampaignOverHTTP: a sweep campaign over two platform shapes
// expands server-side at bulk priority, runs on the local executor, and
// streams its aggregate in expansion order with every line
// byte-identical to a solo run of the expanded member. The terminal
// status view and the campaign metrics rollup both reflect completion.
func TestCampaignOverHTTP(t *testing.T) {
	_, ts := testServer(t)
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

	lines := readCampaignStream(t, ts, cv.ID)
	if len(lines) != len(scs) {
		t.Fatalf("stream has %d lines, want %d", len(lines), len(scs))
	}
	for i, sc := range scs {
		rep, err := coolsim.Run(context.Background(), sc)
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
	if m := getMetrics(t, ts); m.Campaigns.Done != 1 || m.Campaigns.ExpandedMembers != 4 {
		t.Fatalf("campaign metrics = %+v", m.Campaigns)
	}
}

// TestCampaignLocalAndResume: a sweep campaign executed in-process
// streams reports byte-identical to solo runs; a second daemon on the
// same -results-dir resumes the finished campaign from disk and serves
// the identical aggregate without re-running a single member.
func TestCampaignLocalAndResume(t *testing.T) {
	cfg := testConfig()
	cfg.resultsDir = t.TempDir()
	_, ts1 := startServer(t, cfg)

	spec := `{"name":"grid","sweep":{"base":` + quickBody + `,"cooling":["air","max"],"seeds":[1,2]}}`
	resp, err := http.Post(ts1.URL+"/v1/campaigns", "application/json", strings.NewReader(spec))
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
	json.NewDecoder(resp.Body).Decode(&cv)
	resp.Body.Close()
	if cv.Members != 4 {
		t.Fatalf("members = %d", cv.Members)
	}

	lines := readCampaignStream(t, ts1, cv.ID)
	var cspec coolsim.Campaign
	if err := json.Unmarshal([]byte(spec), &cspec); err != nil {
		t.Fatal(err)
	}
	scs, err := cspec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(scs) {
		t.Fatalf("stream has %d lines, want %d", len(lines), len(scs))
	}
	for i, sc := range scs {
		rep, err := coolsim.Run(context.Background(), sc)
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

	// Second life on the same results tree: the campaign is resumed from
	// disk, the aggregate is identical, and nothing re-executes.
	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc, nr, err := s2.camp.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if nc != 1 || nr != 4 {
		t.Fatalf("resume = (%d campaigns, %d results)", nc, nr)
	}
	ts2 := httptest.NewServer(s2.handler())
	defer func() { ts2.Close(); s2.drain(0) }()

	lines2 := readCampaignStream(t, ts2, cv.ID)
	if len(lines2) != len(lines) {
		t.Fatalf("resumed stream has %d lines, want %d", len(lines2), len(lines))
	}
	for i := range lines {
		if lines2[i] != lines[i] {
			t.Fatalf("resumed member %d differs from first life", i)
		}
	}
	m := getMetrics(t, ts2)
	if m.Jobs.Started != 0 {
		t.Fatalf("resumed daemon executed %d jobs, want 0", m.Jobs.Started)
	}
	if m.Campaigns.ResultsLoaded != 4 || m.Campaigns.Done != 1 {
		t.Fatalf("campaign metrics = %+v", m.Campaigns)
	}
}

// TestCampaignAggregateEqualsRunMany is the acceptance-criteria core on
// the in-process path: a 24-member sweep campaign executed by the
// queue-backed local executor streams, member for member, exactly the
// reports coolsim.RunMany yields on the same expanded list — except the
// placement-dependent batched_solves diagnostic, which RunMany's gang
// scheduling raises and solo member runs leave at zero.
func TestCampaignAggregateEqualsRunMany(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 48 small simulations")
	}
	_, ts := testServer(t)
	sw := coolsim.Sweep{
		Base:    coolsim.Scenario{Duration: 2, Warmup: 1, GridNX: 12, GridNY: 10, Workload: "gzip"},
		Layers:  []int{2, 4},
		Cooling: []string{coolsim.CoolingAir, coolsim.CoolingMax},
		Policy:  []string{coolsim.PolicyLB, coolsim.PolicyTALB},
		Seeds:   []int64{1, 2, 3},
	}
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := coolsim.RunMany(context.Background(), scs, coolsim.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(coolsim.Campaign{Name: "many", Sweep: &sw})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cv campaign.View
	json.NewDecoder(resp.Body).Decode(&cv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || cv.Members != len(scs) {
		t.Fatalf("create: %d %+v", resp.StatusCode, cv)
	}
	lines := readCampaignStream(t, ts, cv.ID)
	if len(lines) != len(scs) {
		t.Fatalf("aggregate has %d lines, want %d", len(lines), len(scs))
	}
	for i, line := range lines {
		var got coolsim.Report
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		want := *reports[i]
		got.BatchedSolves, want.BatchedSolves = 0, 0
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("member %d differs from RunMany:\n campaign %s\n many     %s", i, gb, wb)
		}
	}
}
