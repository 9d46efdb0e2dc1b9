package fleet

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock for deterministic lease and
// backoff testing.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testQueue(t *testing.T, cfg QueueConfig) (*Queue, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg.Clock = clk
	q, err := NewQueue(cfg)
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	return q, clk
}

func mustSubmit(t *testing.T, q *Queue, specKey string) Job {
	t.Helper()
	j, err := q.Submit(json.RawMessage(`{"layers":2}`), specKey, SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}

func TestHappyPathLifecycle(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	j := mustSubmit(t, q, "spec-a")
	if j.State != StateQueued {
		t.Fatalf("state = %s, want queued", j.State)
	}

	id, lease, hb := q.Register("host:1", 2)
	if lease != 15*time.Second || hb != 5*time.Second {
		t.Fatalf("lease/heartbeat = %v/%v, want 15s/5s", lease, hb)
	}
	jobs, err := q.Poll(id, 0)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("Poll = %v, %v; want 1 job", jobs, err)
	}
	if jobs[0].ID != j.ID || jobs[0].Attempt != 1 {
		t.Fatalf("wire job = %+v", jobs[0])
	}
	got, _ := q.Get(j.ID)
	if got.State != StateBooked || got.Worker != id {
		t.Fatalf("after poll: state=%s worker=%s", got.State, got.Worker)
	}

	resp, err := q.Heartbeat(id, []string{j.ID})
	if err != nil || len(resp.Cancel) != 0 || len(resp.Unknown) != 0 {
		t.Fatalf("Heartbeat = %+v, %v", resp, err)
	}
	got, _ = q.Get(j.ID)
	if got.State != StateExecuting {
		t.Fatalf("after heartbeat: state=%s, want executing", got.State)
	}

	report := json.RawMessage(`{"max_temp_c":42}`)
	if err := q.Complete(id, j.ID, report); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	got, _ = q.Get(j.ID)
	if got.State != StateCompleted || string(got.Report) != string(report) {
		t.Fatalf("after complete: %+v", got)
	}
	if n := len(got.Attempts); n != 1 || got.Attempts[0].Outcome != OutcomeCompleted {
		t.Fatalf("attempts = %+v", got.Attempts)
	}
}

func TestLeaseExpiryRequeues(t *testing.T) {
	q, clk := testQueue(t, QueueConfig{LeaseTTL: 10 * time.Second})
	j := mustSubmit(t, q, "spec-a")
	w1, _, _ := q.Register("a", 1)
	if jobs, _ := q.Poll(w1, 0); len(jobs) != 1 {
		t.Fatal("want booking")
	}
	q.Heartbeat(w1, []string{j.ID})

	// Worker falls silent: past the lease TTL the sweep declares it
	// unreachable and requeues its job with a recorded lost attempt.
	clk.advance(11 * time.Second)
	q.Sweep()

	got, _ := q.Get(j.ID)
	if got.State != StateRequeued {
		t.Fatalf("state = %s, want requeued", got.State)
	}
	if n := len(got.Attempts); n != 1 || got.Attempts[0].Outcome != OutcomeLost {
		t.Fatalf("attempts = %+v", got.Attempts)
	}
	if got.NotBefore.IsZero() {
		t.Fatal("requeued job has no backoff NotBefore")
	}
	m := q.Snapshot()
	if m.WorkersLost != 1 || m.Requeues != 1 {
		t.Fatalf("metrics = lost %d, requeues %d", m.WorkersLost, m.Requeues)
	}

	// A second worker cannot book it before the backoff elapses...
	w2, _, _ := q.Register("b", 1)
	if jobs, _ := q.Poll(w2, 0); len(jobs) != 0 {
		t.Fatal("booked before backoff elapsed")
	}
	// ...and books it after.
	clk.advance(5 * time.Second)
	jobs, _ := q.Poll(w2, 0)
	if len(jobs) != 1 || jobs[0].Attempt != 2 {
		t.Fatalf("Poll after backoff = %+v", jobs)
	}
	// The dead worker's late completion is rejected as stale.
	if err := q.Complete(w1, j.ID, json.RawMessage(`{}`)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("stale Complete err = %v, want ErrNotOwner", err)
	}
	// The survivor's completion lands.
	if err := q.Complete(w2, j.ID, json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
}

func TestMaxAttemptsTerminalError(t *testing.T) {
	q, clk := testQueue(t, QueueConfig{MaxAttempts: 2, BackoffBase: time.Second})
	j := mustSubmit(t, q, "spec-a")
	w, _, _ := q.Register("a", 1)

	for attempt := 1; attempt <= 2; attempt++ {
		clk.advance(time.Minute) // clear any backoff
		jobs, _ := q.Poll(w, 0)
		if len(jobs) != 1 {
			t.Fatalf("attempt %d: no booking", attempt)
		}
		if err := q.Fail(w, j.ID, "solver exploded", OutcomeError); err != nil {
			t.Fatalf("Fail: %v", err)
		}
	}
	got, _ := q.Get(j.ID)
	if got.State != StateError {
		t.Fatalf("state = %s, want error", got.State)
	}
	if !strings.Contains(got.Error, "failed after 2 attempts") ||
		!strings.Contains(got.Error, "solver exploded") {
		t.Fatalf("error = %q", got.Error)
	}
	if len(got.Attempts) != 2 {
		t.Fatalf("attempt history = %+v", got.Attempts)
	}
	m := q.Snapshot()
	if m.Attempts["2"] != 1 {
		t.Fatalf("attempts histogram = %v", m.Attempts)
	}
	// A terminal job never reappears.
	clk.advance(time.Hour)
	if jobs, _ := q.Poll(w, 0); len(jobs) != 0 {
		t.Fatal("terminal job was rebooked")
	}
}

func TestPanicCountsAsAttempt(t *testing.T) {
	q, clk := testQueue(t, QueueConfig{})
	j := mustSubmit(t, q, "spec-a")
	w, _, _ := q.Register("a", 1)
	q.Poll(w, 0)
	if err := q.Fail(w, j.ID, "panic: index out of range", OutcomePanic); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateRequeued || got.Attempts[0].Outcome != OutcomePanic {
		t.Fatalf("after panic: state=%s attempts=%+v", got.State, got.Attempts)
	}
	clk.advance(time.Minute)
	if jobs, _ := q.Poll(w, 0); len(jobs) != 1 {
		t.Fatal("panicked job not retried")
	}
}

func TestCancelSemantics(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	// Waiting job: canceled immediately.
	j1 := mustSubmit(t, q, "spec-a")
	got, err := q.Cancel(j1.ID)
	if err != nil || got.State != StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", got, err)
	}
	// Held job: flagged, relayed on heartbeat, resolved by the worker's
	// canceled failure report.
	j2 := mustSubmit(t, q, "spec-a")
	w, _, _ := q.Register("a", 1)
	q.Poll(w, 0)
	q.Cancel(j2.ID)
	resp, _ := q.Heartbeat(w, []string{j2.ID})
	if len(resp.Cancel) != 1 || resp.Cancel[0] != j2.ID {
		t.Fatalf("heartbeat cancel = %+v", resp)
	}
	if err := q.Fail(w, j2.ID, "context canceled", OutcomeCanceled); err != nil {
		t.Fatal(err)
	}
	got, _ = q.Get(j2.ID)
	if got.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", got.State)
	}
	// A worker-initiated abort (no cancel requested) is NOT terminal:
	// the job is lost and retries.
	j3 := mustSubmit(t, q, "spec-a")
	q.Poll(w, 0)
	if err := q.Fail(w, j3.ID, "worker draining", OutcomeCanceled); err != nil {
		t.Fatal(err)
	}
	got, _ = q.Get(j3.ID)
	if got.State != StateRequeued || got.Attempts[0].Outcome != OutcomeLost {
		t.Fatalf("worker-abort: state=%s attempts=%+v", got.State, got.Attempts)
	}
}

func TestAffinityRouting(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	w1, _, _ := q.Register("a", 8)
	w2, _, _ := q.Register("b", 8)

	// Find two spec keys owned by different workers.
	var keyOf = map[string]string{}
	for _, k := range []string{"2L/air", "4L/var", "2L/var/12x10", "4L/air/23x20", "2L/max"} {
		j := mustSubmit(t, q, k)
		_ = j
		keyOf[k] = ""
	}
	// Each worker polls: every job must land on its ring owner.
	jobs1, _ := q.Poll(w1, 0)
	jobs2, _ := q.Poll(w2, 0)
	if len(jobs1)+len(jobs2) != 5 {
		t.Fatalf("booked %d+%d, want 5", len(jobs1), len(jobs2))
	}
	for _, wj := range jobs1 {
		j, _ := q.Get(wj.ID)
		if owner := q.ring.owner(j.SpecKey); owner != w1 {
			t.Fatalf("job %s (key %s) on w1 but owned by %s", j.ID, j.SpecKey, owner)
		}
	}
	for _, wj := range jobs2 {
		j, _ := q.Get(wj.ID)
		if owner := q.ring.owner(j.SpecKey); owner != w2 {
			t.Fatalf("job %s (key %s) on w2 but owned by %s", j.ID, j.SpecKey, owner)
		}
	}
}

func TestStealFromUnreachableOwner(t *testing.T) {
	q, clk := testQueue(t, QueueConfig{LeaseTTL: 10 * time.Second})
	w1, _, _ := q.Register("a", 4)
	w2, _, _ := q.Register("b", 4)

	// Submit jobs until at least one is owned by w1.
	keys := []string{"k1", "k2", "k3", "k4", "k5", "k6"}
	owned := 0
	for _, k := range keys {
		mustSubmit(t, q, k)
		if q.ring.owner(k) == w1 {
			owned++
		}
	}
	if owned == 0 {
		t.Skip("hash placed nothing on w1 (vanishingly unlikely)")
	}
	// w1 never polls; w2 keeps heartbeating. After the TTL, w1 is
	// unreachable and w2's poll steals everything.
	clk.advance(11 * time.Second)
	q.Heartbeat(w2, nil)
	q.Sweep()
	jobs, _ := q.Poll(w2, 0)
	if len(jobs) != 4 { // capacity-bound
		t.Fatalf("stole %d jobs, want 4 (capacity)", len(jobs))
	}
}

func TestLocalFallback(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	j := mustSubmit(t, q, "spec-a")

	// No workers: BookLocal claims the job.
	lj := q.BookLocal()
	if lj == nil || lj.ID != j.ID {
		t.Fatalf("BookLocal = %+v", lj)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateExecuting || got.Worker != LocalWorker {
		t.Fatalf("local job: state=%s worker=%s", got.State, got.Worker)
	}
	// Local jobs carry no lease: a sweep never requeues them.
	q.Sweep()
	got, _ = q.Get(j.ID)
	if got.State != StateExecuting {
		t.Fatalf("sweep disturbed local job: %s", got.State)
	}
	if err := q.Complete(LocalWorker, j.ID, json.RawMessage(`{}`)); err != nil {
		t.Fatalf("local Complete: %v", err)
	}

	// With a reachable worker registered, BookLocal declines.
	mustSubmit(t, q, "spec-b")
	q.Register("a", 1)
	if lj := q.BookLocal(); lj != nil {
		t.Fatalf("BookLocal with workers = %+v", lj)
	}
	m := q.Snapshot()
	if m.LocalRuns != 1 {
		t.Fatalf("LocalRuns = %d", m.LocalRuns)
	}
}

func TestUnknownWorkerErrors(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	if _, err := q.Poll("ghost", 0); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Poll err = %v", err)
	}
	if _, err := q.Heartbeat("ghost", nil); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Heartbeat err = %v", err)
	}
	if err := q.Complete("ghost", "job-1", nil); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Complete err = %v", err)
	}
}

func TestDeregisterRequeuesImmediately(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	j := mustSubmit(t, q, "spec-a")
	w, _, _ := q.Register("a", 1)
	q.Poll(w, 0)
	q.Deregister(w)
	got, _ := q.Get(j.ID)
	if got.State != StateRequeued {
		t.Fatalf("state after deregister = %s", got.State)
	}
	if q.ReachableWorkers() != 0 {
		t.Fatal("deregistered worker still on ring")
	}
}

func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	q, clk := testQueue(t, QueueConfig{Dir: dir})

	jQueued := mustSubmit(t, q, "spec-a")
	jBooked := mustSubmit(t, q, "spec-b")
	jExec := mustSubmit(t, q, "spec-c")
	jDone := mustSubmit(t, q, "spec-d")

	w, _, _ := q.Register("a", 4)
	booked, _ := q.Poll(w, 0)
	if len(booked) != 4 {
		t.Fatalf("booked %d", len(booked))
	}
	// jExec starts executing; jDone completes; jQueued and jBooked stay
	// where they are. (All four were booked — release the two that
	// should model "never started" by failing? No: model precisely by
	// direct state since poll booked everything.)
	q.Heartbeat(w, []string{jExec.ID, jDone.ID})
	if err := q.Complete(w, jDone.ID, json.RawMessage(`{"done":true}`)); err != nil {
		t.Fatal(err)
	}
	// Put jQueued back to queued via worker-abort so its journal state is
	// queued-like (requeued), leaving jBooked genuinely booked.
	q.Fail(w, jQueued.ID, "abort", OutcomeCanceled)

	// "Restart": a fresh queue over the same directory.
	clk2 := newFakeClock()
	q2, err := NewQueue(QueueConfig{Dir: dir, Clock: clk2})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	_ = clk

	check := func(id string, want State, attempts int) {
		t.Helper()
		j, err := q2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost in restart", id)
		}
		if j.State != want || len(j.Attempts) != attempts {
			t.Fatalf("job %s: state=%s attempts=%d, want %s/%d",
				id, j.State, len(j.Attempts), want, attempts)
		}
	}
	// Requeued job survives verbatim (1 lost attempt from the abort).
	check(jQueued.ID, StateRequeued, 1)
	// Booked job returns to queued WITHOUT consuming an attempt: the
	// assignment died with the old process.
	check(jBooked.ID, StateQueued, 0)
	// Executing job is requeued with a recorded lost attempt.
	check(jExec.ID, StateRequeued, 1)
	// Completed job survives with its report.
	jd, _ := q2.Get(jDone.ID)
	if jd.State != StateCompleted || string(jd.Report) != `{"done":true}` {
		t.Fatalf("completed job after restart: %+v", jd)
	}
	m := q2.Snapshot()
	if m.RecoveredJobs != 4 {
		t.Fatalf("RecoveredJobs = %d", m.RecoveredJobs)
	}
	// Submission continues past the recovered sequence: no ID collision.
	jNew := mustSubmit(t, q2, "spec-e")
	if jNew.ID == jQueued.ID || jNew.ID == jDone.ID || jNew.Seq <= jDone.Seq {
		t.Fatalf("new job collides: %+v", jNew)
	}
}

func TestJournalCorruptFileSkipped(t *testing.T) {
	dir := t.TempDir()
	q, _ := testQueue(t, QueueConfig{Dir: dir})
	mustSubmit(t, q, "spec-a")
	if err := os.WriteFile(filepath.Join(dir, "job-999.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := NewQueue(QueueConfig{Dir: dir, Clock: newFakeClock()})
	if err != nil {
		t.Fatalf("restart with corrupt file: %v", err)
	}
	m := q2.Snapshot()
	if m.CorruptJournal != 1 || m.Jobs.Total != 1 {
		t.Fatalf("corrupt=%d total=%d", m.CorruptJournal, m.Jobs.Total)
	}
}

func TestSubmitFailsWhenJournalUnwritable(t *testing.T) {
	dir := t.TempDir()
	q, _ := testQueue(t, QueueConfig{Dir: dir})
	// Break the journal in a way that defeats even root (permission bits
	// don't): point it under a regular file, so writes fail with ENOTDIR.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	q.store.dir = filepath.Join(blocker, "sub")
	if _, err := q.Submit(json.RawMessage(`{}`), "k", SubmitOptions{}); err == nil {
		t.Fatal("Submit succeeded with unwritable journal dir")
	}
	if got := q.List(); len(got) != 0 {
		t.Fatal("unjournaled job admitted")
	}
}

func TestWorkerRejoinsRing(t *testing.T) {
	q, clk := testQueue(t, QueueConfig{LeaseTTL: 10 * time.Second})
	w, _, _ := q.Register("a", 1)
	clk.advance(11 * time.Second)
	q.Sweep()
	if q.ReachableWorkers() != 0 {
		t.Fatal("silent worker still reachable")
	}
	// The worker comes back (network blip): any protocol call restores it.
	if _, err := q.Heartbeat(w, nil); err != nil {
		t.Fatal(err)
	}
	if q.ReachableWorkers() != 1 {
		t.Fatal("returning worker not restored to ring")
	}
}

// TestPriorityBooking: interactive jobs book before bulk jobs even when
// the bulk work was submitted first, on both the fleet poll path and
// the local-fallback path.
func TestPriorityBooking(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	// A bulk backlog arrives first...
	var bulk []Job
	for i := 0; i < 3; i++ {
		j, err := q.Submit(json.RawMessage(`{"layers":2}`), "spec-a",
			SubmitOptions{Priority: PriorityBulk, Campaign: "c-1", Member: i})
		if err != nil {
			t.Fatal(err)
		}
		bulk = append(bulk, j)
	}
	// ...then an interactive run.
	inter := mustSubmit(t, q, "spec-a")
	if inter.Priority != PriorityInteractive {
		t.Fatalf("default priority = %d", inter.Priority)
	}

	w, _, _ := q.Register("host:1", 2)
	jobs, err := q.Poll(w, 2)
	if err != nil || len(jobs) != 2 {
		t.Fatalf("Poll = %v, %v; want 2 jobs", jobs, err)
	}
	if jobs[0].ID != inter.ID {
		t.Fatalf("first booked job = %s, want the interactive %s", jobs[0].ID, inter.ID)
	}
	if jobs[1].ID != bulk[0].ID {
		t.Fatalf("second booked job = %s, want the oldest bulk %s", jobs[1].ID, bulk[0].ID)
	}

	// Local fallback applies the same order: with no workers, the next
	// interactive submission preempts the remaining bulk backlog.
	q.Deregister(w)
	inter2 := mustSubmit(t, q, "spec-a")
	got := q.BookLocal()
	if got == nil || got.ID != inter2.ID {
		t.Fatalf("BookLocal = %+v, want the interactive %s", got, inter2.ID)
	}
	if next := q.BookLocal(); next == nil || next.Priority != PriorityBulk {
		t.Fatalf("BookLocal after interactive drained = %+v, want a bulk job", next)
	}
}

// TestPriorityJournalRoundTrip: priority and campaign tags survive the
// journal, and pre-priority journal files decode to interactive.
func TestPriorityJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q, _ := testQueue(t, QueueConfig{Dir: dir})
	j, err := q.Submit(json.RawMessage(`{"layers":2}`), "spec-a",
		SubmitOptions{Priority: PriorityBulk, Campaign: "c-9", Member: 4})
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := testQueue(t, QueueConfig{Dir: dir})
	got, err := q2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Priority != PriorityBulk || got.Campaign != "c-9" || got.Member != 4 {
		t.Fatalf("recovered job = %+v", got)
	}
}

// TestParsePriority pins the wire vocabulary of the ?priority= knob.
func TestParsePriority(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"", PriorityInteractive, true},
		{"interactive", PriorityInteractive, true},
		{"0", PriorityInteractive, true},
		{"bulk", PriorityBulk, true},
		{"1", PriorityBulk, true},
		{"urgent", 0, false},
	} {
		got, err := ParsePriority(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePriority(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// runLocally books and completes every eligible job in-process.
func runLocally(t *testing.T, q *Queue) {
	t.Helper()
	for j := q.BookLocal(); j != nil; j = q.BookLocal() {
		if err := q.Complete(LocalWorker, j.ID, json.RawMessage(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetentionEvictsAcrossRestart: beyond Retain the oldest terminal
// jobs leave memory and the journal, so a restarted queue loads no more
// than Retain terminal files; live jobs are never evicted.
func TestRetentionEvictsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	q, _ := testQueue(t, QueueConfig{Dir: dir, Retain: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, mustSubmit(t, q, "spec-a").ID)
	}
	runLocally(t, q)
	live := mustSubmit(t, q, "spec-a")
	for _, id := range ids[:3] {
		if _, err := q.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("job %s not evicted: %v", id, err)
		}
	}
	for _, id := range append(ids[3:], live.ID) {
		if _, err := q.Get(id); err != nil {
			t.Fatalf("job %s evicted: %v", id, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if len(files) != 3 {
		t.Fatalf("journal holds %d files, want 2 terminal + 1 queued", len(files))
	}

	// A restart with a smaller cap trims the journal on load.
	q2, err := NewQueue(QueueConfig{Dir: dir, Retain: 1, Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	m := q2.Snapshot()
	if m.Jobs.Completed != 1 || m.Jobs.Queued != 1 {
		t.Fatalf("after restart: %+v", m.Jobs)
	}
	if files, _ = filepath.Glob(filepath.Join(dir, "job-*.json")); len(files) != 2 {
		t.Fatalf("journal holds %d files after restart, want 2", len(files))
	}
}

// TestHeldJobsSurviveUntilReleased: a held terminal job is neither
// evicted nor counted against Retain until its submitter releases it;
// the hold survives a restart.
func TestHeldJobsSurviveUntilReleased(t *testing.T) {
	dir := t.TempDir()
	q, _ := testQueue(t, QueueConfig{Dir: dir, Retain: 1})
	held, err := q.Submit(json.RawMessage(`{}`), "k", SubmitOptions{Hold: true, Campaign: "c-1"})
	if err != nil {
		t.Fatal(err)
	}
	a := mustSubmit(t, q, "k")
	b := mustSubmit(t, q, "k")
	runLocally(t, q)
	if _, err := q.Get(held.ID); err != nil {
		t.Fatalf("held job evicted: %v", err)
	}
	if _, err := q.Get(a.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest unheld job kept: %v", err)
	}

	q2, err := NewQueue(QueueConfig{Dir: dir, Retain: 1, Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := q2.Get(held.ID); err != nil || !j.Held {
		t.Fatalf("hold lost in restart: %+v, %v", j, err)
	}
	q2.Release(held.ID)
	// Released, the held job is the oldest terminal job beyond the cap.
	if _, err := q2.Get(held.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("released job kept: %v", err)
	}
	if _, err := q2.Get(b.ID); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
}

// TestAdoptRunsOnceLocally: an adopted attempt executes under its own
// ID, is never booked again, and a restart turns it into an error
// instead of a retry.
func TestAdoptRunsOnceLocally(t *testing.T) {
	dir := t.TempDir()
	q, _ := testQueue(t, QueueConfig{Dir: dir})
	j, err := q.Adopt("job-7.2", json.RawMessage(`{}`), "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateExecuting || j.Worker != LocalWorker || len(j.Attempts) != 1 {
		t.Fatalf("adopted job = %+v", j)
	}
	if _, err := q.Adopt("job-7.2", nil, "k"); err == nil {
		t.Fatal("duplicate adopt accepted")
	}
	if lj := q.BookLocal(); lj != nil {
		t.Fatalf("adopted job booked again: %+v", lj)
	}
	if n := q.LocalBacklog(); n != 1 {
		t.Fatalf("LocalBacklog = %d, want 1", n)
	}
	q2, err := NewQueue(QueueConfig{Dir: dir, Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := q2.Get("job-7.2"); got.State != StateError {
		t.Fatalf("adopted job after restart: %s", got.State)
	}
}

// TestReadySignals: submissions and requeues wake the local booker.
func TestReadySignals(t *testing.T) {
	q, _ := testQueue(t, QueueConfig{})
	ready := func() bool {
		select {
		case <-q.Ready():
			return true
		default:
			return false
		}
	}
	if ready() {
		t.Fatal("ready before any submission")
	}
	mustSubmit(t, q, "k")
	mustSubmit(t, q, "k")
	if !ready() || ready() {
		t.Fatal("two submissions should coalesce into one signal")
	}
	j := q.BookLocal()
	if err := q.Fail(LocalWorker, j.ID, "boom", OutcomeError); err != nil {
		t.Fatal(err)
	}
	if !ready() {
		t.Fatal("requeue did not signal")
	}
}
