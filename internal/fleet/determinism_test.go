package fleet

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/coolsim"
)

// quickScenario is a small, fast, fully deterministic scenario (coarse
// grid, 3 s simulated).
const quickScenario = `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"duration":3,"warmup":1,"grid_nx":12,"grid_ny":10}`

// runWire executes a WireJob's canonical scenario bytes exactly the way
// a worker daemon does and returns the marshaled report.
func runWire(t *testing.T, wj WireJob) json.RawMessage {
	t.Helper()
	sc, err := DecodeScenario(wj.Scenario)
	if err != nil {
		t.Fatalf("DecodeScenario: %v", err)
	}
	rep, err := coolsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestKilledWorkerRequeueByteIdenticalReport is the fleet's core
// robustness guarantee: a job whose worker dies mid-execution is
// requeued, retried on a survivor, and — because scenarios are seeded
// and deterministic — produces a report byte-identical to an
// uninterrupted run.
func TestKilledWorkerRequeueByteIdenticalReport(t *testing.T) {
	// Reference: the uninterrupted run.
	sc, err := DecodeScenario(json.RawMessage(quickScenario))
	if err != nil {
		t.Fatal(err)
	}
	canon, specKey, err := CanonicalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := coolsim.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := json.Marshal(refRep)
	if err != nil {
		t.Fatal(err)
	}

	q, clk := testQueue(t, QueueConfig{LeaseTTL: 10 * time.Second, Dir: t.TempDir()})
	j, err := q.Submit(canon, specKey, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 books the job, starts executing... and is SIGKILLed: it
	// never heartbeats again and never reports.
	w1, _, _ := q.Register("victim:1", 1)
	booked, err := q.Poll(w1, 0)
	if err != nil || len(booked) != 1 {
		t.Fatalf("Poll = %v, %v", booked, err)
	}
	if _, err := q.Heartbeat(w1, []string{j.ID}); err != nil {
		t.Fatal(err)
	}

	// Lease expires; the sweep requeues the job.
	clk.advance(11 * time.Second)
	q.Sweep()
	got, _ := q.Get(j.ID)
	if got.State != StateRequeued {
		t.Fatalf("state after sweep = %s, want requeued", got.State)
	}

	// A survivor picks it up after the backoff and actually executes the
	// canonical bytes it was handed.
	w2, _, _ := q.Register("survivor:1", 1)
	clk.advance(5 * time.Second) // clear backoff
	retried, err := q.Poll(w2, 0)
	if err != nil || len(retried) != 1 {
		t.Fatalf("survivor Poll = %v, %v", retried, err)
	}
	if retried[0].Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", retried[0].Attempt)
	}
	report := runWire(t, retried[0])
	if err := q.Complete(w2, j.ID, report); err != nil {
		t.Fatal(err)
	}

	final, _ := q.Get(j.ID)
	if final.State != StateCompleted {
		t.Fatalf("final state = %s", final.State)
	}
	if string(final.Report) != string(reference) {
		t.Fatalf("requeued report differs from uninterrupted run:\n got: %s\nwant: %s",
			final.Report, reference)
	}
	if len(final.Attempts) != 2 ||
		final.Attempts[0].Outcome != OutcomeLost ||
		final.Attempts[1].Outcome != OutcomeCompleted {
		t.Fatalf("attempt history = %+v", final.Attempts)
	}
}

// TestDecodeScenarioRejectsSolver: the thermal solver is not a scenario
// field (the direct LDLᵀ solver is the only one), so a body that still
// names one fails strict decoding as an unknown field instead of being
// silently ignored.
func TestDecodeScenarioRejectsSolver(t *testing.T) {
	for _, body := range []string{`{"solver":"auto"}`, `{"workload":"gzip","solver":"cg"}`} {
		_, err := DecodeScenario(json.RawMessage(body))
		if err == nil || !strings.Contains(err.Error(), `unknown field "solver"`) {
			t.Errorf("DecodeScenario(%s) = %v, want an unknown-field error", body, err)
		}
	}
}

// TestCanonicalScenarioStable: the canonical bytes a job journals are
// reproducible — decode + re-canonicalize is a fixed point, so every
// retry executes exactly the same bytes.
func TestCanonicalScenarioStable(t *testing.T) {
	sc, err := DecodeScenario(json.RawMessage(quickScenario))
	if err != nil {
		t.Fatal(err)
	}
	c1, k1, err := CanonicalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := DecodeScenario(c1)
	if err != nil {
		t.Fatal(err)
	}
	c2, k2, err := CanonicalScenario(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) || k1 != k2 {
		t.Fatalf("canonicalization not a fixed point:\n%s (%s)\n%s (%s)", c1, k1, c2, k2)
	}
}
