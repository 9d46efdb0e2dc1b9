package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// longBody is a scenario that runs far longer than any drain grace used
// here, so it is guaranteed to still be executing when the grace expires.
const longBody = `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"duration":600,"warmup":1,"grid_nx":12,"grid_ny":10}`

// TestDrainGraceExpiryCancelsRunningJob covers the drain timeout branch:
// a job still running when the grace expires is hard-canceled through
// its context, ends in the canceled state, and drain returns (the
// process would then exit cleanly).
func TestDrainGraceExpiryCancelsRunningJob(t *testing.T) {
	s, ts := testServer(t)
	id := submit(t, ts, longBody)
	waitStatus(t, ts, id, statusRunning, 30*time.Second)

	done := make(chan struct{})
	go func() { s.drain(100 * time.Millisecond); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not return after grace expiry")
	}
	v := getView(t, ts, id)
	if v.Status != statusCanceled {
		t.Fatalf("job after expired grace = %s, want canceled", v.Status)
	}
	// Intake is closed for good.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(quickBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("submit after drain = %d, want 503", resp.StatusCode)
	}
	var e struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	if e.Code != fleet.CodeDraining {
		t.Fatalf("error code = %q, want %q", e.Code, fleet.CodeDraining)
	}
}

// TestRunFleetJob: worker mode's Runner executes a dispatched job
// through the daemon's own machinery — the job is visible on the local
// API under "<fleet-id>.<attempt>" and the returned bytes match the
// local report.
func TestRunFleetJob(t *testing.T) {
	s, ts := testServer(t)
	wj := fleet.WireJob{ID: "job-7", Attempt: 2, Scenario: json.RawMessage(quickBody)}
	report, err := s.runFleetJob(context.Background(), wj)
	if err != nil {
		t.Fatalf("runFleetJob: %v", err)
	}
	v := getView(t, ts, "job-7.2")
	if v.Status != statusDone || v.Report == nil {
		t.Fatalf("local view of fleet job: %+v", v)
	}
	if string(v.Report) != string(report) {
		t.Fatal("fleet report differs from the local job view")
	}
	if v.Samples == 0 {
		t.Fatal("fleet job recorded no samples (streaming would be empty)")
	}
}

// TestRunFleetJobBadScenario: corrupt canonical bytes fail fast without
// touching the simulator.
func TestRunFleetJobBadScenario(t *testing.T) {
	s, _ := testServer(t)
	_, err := s.runFleetJob(context.Background(), fleet.WireJob{
		ID: "job-8", Attempt: 1, Scenario: json.RawMessage(`{"layers":3}`),
	})
	if err == nil {
		t.Fatal("invalid scenario executed")
	}
}

// TestRunFleetJobCanceled: canceling the job context (dispatcher cancel
// or worker shutdown) surfaces as a context error the worker loop maps
// to the canceled/lost outcome, and the local view of the attempt ends
// canceled (retries are the dispatcher's).
func TestRunFleetJobCanceled(t *testing.T) {
	s, ts := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.runFleetJob(ctx, fleet.WireJob{
			ID: "job-9", Attempt: 1, Scenario: json.RawMessage(longBody),
		})
		errCh <- err
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err == nil || ctx.Err() == nil {
			t.Fatalf("err = %v", err)
		}
		if v := getView(t, ts, "job-9.1"); v.Status != statusCanceled {
			t.Fatalf("local view of the canceled attempt: %s (%s)", v.Status, v.State)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled fleet job never returned")
	}
}
