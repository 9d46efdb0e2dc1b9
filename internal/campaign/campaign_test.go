package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/coolsim"
	"repro/internal/campaign"
	"repro/internal/fleet"
)

// testSweep is the canonical small-but-real grid: 24 members (2 layer
// counts × 2 cooling classes × 2 policies × 3 seeds) on a coarse grid
// with a 2 s simulated duration, so the whole campaign runs in seconds.
func testSweep() coolsim.Sweep {
	return coolsim.Sweep{
		Base:    coolsim.Scenario{Duration: 2, Warmup: 1, GridNX: 12, GridNY: 10, Workload: "gzip"},
		Layers:  []int{2, 4},
		Cooling: []string{coolsim.CoolingAir, coolsim.CoolingMax},
		Policy:  []string{coolsim.PolicyLB, coolsim.PolicyTALB},
		Seeds:   []int64{1, 2, 3},
	}
}

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
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

// stubBackend is an inert Backend for manager-logic tests: jobs sit
// pending until the test completes them, and forget() simulates a
// restart that loses every handle.
type stubBackend struct {
	mu       sync.Mutex
	seq      int
	jobs     map[string]*stubJob
	groups   [][]campaign.Member
	opts     []campaign.GroupOptions
	released []string
}

type stubJob struct {
	member campaign.Member
	status campaign.MemberStatus
	report json.RawMessage
	errMsg string
}

func newStub() *stubBackend { return &stubBackend{jobs: map[string]*stubJob{}} }

func (b *stubBackend) SubmitGroup(cid string, ms []campaign.Member, o campaign.GroupOptions) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.groups = append(b.groups, append([]campaign.Member(nil), ms...))
	b.opts = append(b.opts, o)
	ids := make([]string, len(ms))
	for i, m := range ms {
		b.seq++
		ids[i] = fmt.Sprintf("stub-%d", b.seq)
		b.jobs[ids[i]] = &stubJob{member: m, status: campaign.StatusPending}
	}
	return ids, nil
}

func (b *stubBackend) Status(jobID string) (campaign.MemberStatus, json.RawMessage, string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.jobs[jobID]
	if j == nil {
		return "", nil, "", errors.New("stub: unknown job")
	}
	return j.status, j.report, j.errMsg, nil
}

func (b *stubBackend) Cancel(jobID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.jobs[jobID]
	if j == nil {
		return errors.New("stub: unknown job")
	}
	if !j.status.Terminal() {
		j.status = campaign.StatusCanceled
		j.errMsg = "canceled"
	}
	return nil
}

func (b *stubBackend) Release(jobID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.released = append(b.released, jobID)
}

// completeMember resolves the stub job holding the given member index.
func (b *stubBackend) completeMember(idx int, report json.RawMessage) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, j := range b.jobs {
		if j.member.Index == idx && !j.status.Terminal() {
			j.status = campaign.StatusDone
			j.report = report
			return
		}
	}
}

func memRepo(t *testing.T) *campaign.Repo {
	t.Helper()
	r, err := campaign.NewRepo("")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func dirRepo(t *testing.T, dir string) *campaign.Repo {
	t.Helper()
	r, err := campaign.NewRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlatformGrouping: members are submitted grouped by spec key in
// first-appearance order, indices preserved, campaign knobs passed
// through (bulk priority by default).
func TestPlatformGrouping(t *testing.T) {
	b := newStub()
	m := campaign.NewManager(b, memRepo(t), newFakeClock())
	_, err := m.Create(coolsim.Campaign{
		Name:        "grouping",
		MaxAttempts: 5,
		Scenarios: []coolsim.Scenario{
			{Layers: 2, Duration: 2, Warmup: 1},
			{Layers: 4, Duration: 2, Warmup: 1},
			{Layers: 2, Duration: 2, Warmup: 1, Seed: 7},
		},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if len(b.groups) != 2 {
		t.Fatalf("got %d groups, want 2 (one per platform key)", len(b.groups))
	}
	if got := []int{b.groups[0][0].Index, b.groups[0][1].Index}; got[0] != 0 || got[1] != 2 {
		t.Fatalf("first group member indices = %v, want [0 2]", got)
	}
	if b.groups[1][0].Index != 1 {
		t.Fatalf("second group member index = %d, want 1", b.groups[1][0].Index)
	}
	if b.groups[0][0].SpecKey == b.groups[1][0].SpecKey {
		t.Fatal("groups share a spec key")
	}
	for _, o := range b.opts {
		if o.Priority != fleet.PriorityBulk || o.MaxAttempts != 5 {
			t.Fatalf("group options = %+v, want bulk priority, 5 attempts", o)
		}
	}
}

// TestBadSpecs: client-side mistakes come back as ErrBadSpec.
func TestBadSpecs(t *testing.T) {
	m := campaign.NewManager(newStub(), memRepo(t), newFakeClock())
	sw := testSweep()
	for name, spec := range map[string]coolsim.Campaign{
		"empty":     {},
		"both":      {Scenarios: []coolsim.Scenario{{}}, Sweep: &sw},
		"priority":  {Scenarios: []coolsim.Scenario{{Duration: 1}}, Priority: "urgent"},
		"oversized": {Sweep: &coolsim.Sweep{Seeds: make([]int64, 10), MaxScenarios: 5}},
		"invalid":   {Scenarios: []coolsim.Scenario{{Layers: 3}}},
	} {
		if _, err := m.Create(spec); !errors.Is(err, campaign.ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", name, err)
		}
	}
	if len(m.List()) != 0 {
		t.Fatal("rejected specs were admitted")
	}
}

// TestSweepLimitCeiling: a sweep cannot raise its expansion limit past
// the server ceiling (coolsim.DefaultSweepLimit). The 8-axis × 10-value
// body below asks for 10⁸ members under "max_scenarios": 1e9; it must
// come back 400 without expanding anything. A 2·10⁵-member grid under
// the same override is checked first, so a regression fails on a grid
// that fits in memory before the 10⁸ one runs.
func TestSweepLimitCeiling(t *testing.T) {
	m := campaign.NewManager(newStub(), memRepo(t), newFakeClock())
	over := coolsim.Sweep{Seeds: make([]int64, 2*coolsim.DefaultSweepLimit), MaxScenarios: 1e9}
	if _, err := m.Create(coolsim.Campaign{Sweep: &over}); !errors.Is(err, campaign.ErrBadSpec) {
		t.Fatalf("grid over the ceiling: err = %v, want ErrBadSpec", err)
	}

	ten := func(v string) string { return "[" + strings.TrimSuffix(strings.Repeat(v+",", 10), ",") + "]" }
	body := `{"sweep":{"layers":` + ten("2") + `,"cooling":` + ten(`"max"`) + `,"policy":` + ten(`"lb"`) +
		`,"workload":` + ten(`"gzip"`) + `,"dpm":` + ten("false") + `,"control_every":` + ten("1") +
		`,"stepping":` + ten(`{"mode":"fixed"}`) + `,"seeds":` + ten("1") + `,"max_scenarios":1000000000}}`
	mux := http.NewServeMux()
	(&campaign.API{M: m}).Register(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "server limit") {
		t.Fatalf("8×10 sweep: %d %s, want 400 naming the server limit", rec.Code, rec.Body)
	}

	var spec coolsim.Campaign
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.Create(spec); !errors.Is(err, campaign.ErrBadSpec) {
			t.Fatalf("err = %v, want ErrBadSpec", err)
		}
	}); allocs > 10 {
		t.Errorf("rejecting the 8×10 sweep allocates %v objects, want ≤ 10", allocs)
	}
	if len(m.List()) != 0 {
		t.Fatal("rejected specs were admitted")
	}
}

// TestProgressEtaAndCancel drives a campaign through the stub backend
// with a fake clock: progress and the ticks/sec ETA derive from
// completed members, cancel resolves the rest.
func TestProgressEtaAndCancel(t *testing.T) {
	b := newStub()
	clk := newFakeClock()
	m := campaign.NewManager(b, memRepo(t), clk)
	scs := make([]coolsim.Scenario, 4)
	for i := range scs {
		scs[i] = coolsim.Scenario{Duration: 2, Warmup: 1, Seed: int64(i + 1)}
	}
	v, err := m.Create(coolsim.Campaign{Name: "eta", Scenarios: scs})
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID
	if v.State != "active" || v.Counts.Pending != 4 || v.Priority != "bulk" {
		t.Fatalf("fresh view = %+v", v)
	}

	// Two members complete after 10 wall seconds, 100 base ticks each.
	clk.advance(10 * time.Second)
	b.completeMember(0, json.RawMessage(`{"base_ticks":100,"max_temp_c":40}`))
	b.completeMember(1, json.RawMessage(`{"base_ticks":100,"max_temp_c":41}`))
	m.Reconcile()
	v, _ = m.Get(id)
	if v.Counts.Done != 2 || v.Progress != 0.5 {
		t.Fatalf("after 2 done: %+v", v)
	}
	// 200 ticks / 10 s = 20 ticks/s; 2 remaining × 100 avg / 20 = 10 s.
	if v.TicksPerSec != 20 || v.EtaSeconds != 10 {
		t.Fatalf("rate/eta = %v/%v, want 20/10", v.TicksPerSec, v.EtaSeconds)
	}

	// Member 2's report bytes are retrievable verbatim.
	res, err := m.Result(id, 0)
	if err != nil || res.Status != campaign.StatusDone {
		t.Fatalf("Result: %+v, %v", res, err)
	}
	if string(res.Report) != `{"base_ticks":100,"max_temp_c":40}` {
		t.Fatalf("report = %s", res.Report)
	}

	// Cancel resolves the remaining members through the backend.
	v, err = m.Cancel(id)
	if err != nil || v.State != "canceled" {
		t.Fatalf("Cancel: %+v, %v", v, err)
	}
	m.Reconcile()
	v, _ = m.Get(id)
	if v.Counts.Done != 2 || v.Counts.Canceled != 2 {
		t.Fatalf("after cancel: %+v", v.Counts)
	}
	mt := m.Metrics()
	if mt.Canceled != 1 || mt.ExpandedMembers != 4 || mt.ResultsPersisted != 2 {
		t.Fatalf("metrics = %+v", mt)
	}
}

// TestRepoTreeAndResume pins the results-tree layout and the resume
// protocol: persisted members load as done and are never resubmitted;
// everything else is resubmitted once the new backend disclaims the old
// job handles.
func TestRepoTreeAndResume(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	b1 := newStub()
	m1 := campaign.NewManager(b1, dirRepo(t, dir), clk)
	scs := make([]coolsim.Scenario, 4)
	for i := range scs {
		scs[i] = coolsim.Scenario{Duration: 2, Warmup: 1, Seed: int64(i + 1)}
	}
	v, err := m1.Create(coolsim.Campaign{Name: "resume", Scenarios: scs})
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID
	b1.completeMember(0, json.RawMessage(`{"base_ticks":10,"seed":1}`))
	b1.completeMember(2, json.RawMessage(`{"base_ticks":10,"seed":3}`))
	m1.Reconcile()
	if len(b1.released) != 2 {
		t.Fatalf("released %v, want the 2 recorded members", b1.released)
	}

	// The tree: <dir>/<yyyy-mm-dd>/<id>/{manifest.json,run-N.json}.
	cdir := filepath.Join(dir, clk.Now().UTC().Format("2006-01-02"), id)
	for _, f := range []string{"manifest.json", "run-0.json", "run-2.json"} {
		if _, err := os.Stat(filepath.Join(cdir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}
	raw, _ := os.ReadFile(filepath.Join(cdir, "run-2.json"))
	if string(raw) != `{"base_ticks":10,"seed":3}` {
		t.Fatalf("run file holds %s, not the verbatim report", raw)
	}

	// Restart: fresh manager, fresh backend that knows none of the old
	// jobs.
	b2 := newStub()
	m2 := campaign.NewManager(b2, dirRepo(t, dir), clk)
	nCamps, nResults, err := m2.Resume()
	if err != nil || nCamps != 1 || nResults != 2 {
		t.Fatalf("Resume = %d, %d, %v; want 1 campaign, 2 results", nCamps, nResults, err)
	}
	v, err = m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Counts.Done != 2 {
		t.Fatalf("resumed counts = %+v", v.Counts)
	}
	// Members already on disk release their old jobs, so a journal that
	// still holds them can evict them.
	sort.Strings(b2.released)
	if strings.Join(b2.released, ",") != strings.Join(b1.released, ",") {
		t.Fatalf("resume released %v, want %v", b2.released, b1.released)
	}
	// First reconcile drops the dead handles and resubmits; the persisted
	// members must not reappear at the backend.
	m2.Reconcile()
	m2.Reconcile()
	resubmitted := map[int]bool{}
	for _, g := range b2.groups {
		for _, mem := range g {
			resubmitted[mem.Index] = true
		}
	}
	if resubmitted[0] || resubmitted[2] {
		t.Fatalf("persisted members resubmitted: %v", resubmitted)
	}
	if !resubmitted[1] || !resubmitted[3] {
		t.Fatalf("unfinished members not resubmitted: %v", resubmitted)
	}
	// Finish, and check the recovered report bytes flow through Result.
	b2.completeMember(1, json.RawMessage(`{"base_ticks":10,"seed":2}`))
	b2.completeMember(3, json.RawMessage(`{"base_ticks":10,"seed":4}`))
	m2.Reconcile()
	v, _ = m2.Get(id)
	if v.State != "done" || v.Progress != 1 {
		t.Fatalf("final view = %+v", v)
	}
	res, err := m2.Result(id, 0)
	if err != nil || string(res.Report) != `{"base_ticks":10,"seed":1}` {
		t.Fatalf("recovered result = %+v, %v", res, err)
	}
	mt := m2.Metrics()
	if mt.ResultsLoaded != 2 || mt.ResultsPersisted != 2 || mt.Done != 1 {
		t.Fatalf("metrics after resume = %+v", mt)
	}
}

// TestRetainedMembersNeverReexecuted: a campaign with more members
// than the queue retains finishes with every member executed exactly
// once. Members complete faster than the manager reconciles, so a queue
// that evicted them before the manager recorded their status would make
// Status fail and the manager re-run them.
func TestRetainedMembersNeverReexecuted(t *testing.T) {
	sw := testSweep()
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const retain = 2
	q, err := fleet.NewQueue(fleet.QueueConfig{Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) <= retain {
		t.Fatalf("sweep has %d members, want more than %d", len(scs), retain)
	}
	m := campaign.NewManager(campaign.FleetBackend{Q: q}, memRepo(t), nil)
	v, err := m.Create(coolsim.Campaign{Name: "retain", Sweep: &sw})
	if err != nil {
		t.Fatal(err)
	}
	runs := map[int]int{}
	for round := 0; round < 10; round++ {
		for j := q.BookLocal(); j != nil; j = q.BookLocal() {
			runs[j.Member]++
			if err := q.Complete(fleet.LocalWorker, j.ID, json.RawMessage(`{"base_ticks":1}`)); err != nil {
				t.Fatal(err)
			}
		}
		m.Reconcile()
	}
	got, err := m.Get(v.ID)
	if err != nil || got.State != "done" || got.Counts.Done != len(scs) {
		t.Fatalf("final view = %+v, %v", got, err)
	}
	for i := range scs {
		if runs[i] != 1 {
			t.Errorf("member %d executed %d times, want 1", i, runs[i])
		}
	}
	if n := q.Snapshot().Jobs.Total; n != retain {
		t.Errorf("queue holds %d jobs after the campaign, want %d", n, retain)
	}
}

// runJob executes one booked job's canonical bytes exactly the way the
// dispatcher's local fallback (and a worker daemon) does.
func runJob(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	sc, err := fleet.DecodeScenario(raw)
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

// TestFleetResumeSkipsPersistedMembers is the acceptance-criteria core
// on the fleet path: a 24-member sweep campaign fans out as fleet jobs,
// the dispatcher "dies" mid-campaign, and the restarted stack (same
// state dir, same results dir) finishes the campaign executing ONLY the
// members whose results had not landed — with the final aggregate
// byte-identical to an uninterrupted RunMany.
func TestFleetResumeSkipsPersistedMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~48 small simulations")
	}
	sw := testSweep()
	scs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// One slot per member: every reference run is solo, like a fleet
	// job, so its report's batched_solves is 0 as the members' are.
	reports, err := coolsim.RunMany(context.Background(), scs, coolsim.WithWorkers(len(scs)))
	if err != nil {
		t.Fatal(err)
	}
	reference := make([][]byte, len(reports))
	for i, rep := range reports {
		reference[i], _ = json.Marshal(rep)
	}

	stateDir, resultsDir := t.TempDir(), t.TempDir()

	// Phase A: dispatcher 1 admits the campaign and executes 10 members
	// through the local-fallback path, then crashes.
	q1, err := fleet.NewQueue(fleet.QueueConfig{Dir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	m1 := campaign.NewManager(campaign.FleetBackend{Q: q1}, dirRepo(t, resultsDir), nil)
	v, err := m1.Create(coolsim.Campaign{Name: "smoke", Sweep: &sw})
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID
	const partial = 10
	for i := 0; i < partial; i++ {
		j := q1.BookLocal()
		if j == nil {
			t.Fatalf("no eligible job at member %d", i)
		}
		if j.Campaign != id {
			t.Fatalf("job %s not tagged with campaign (%q)", j.ID, j.Campaign)
		}
		if err := q1.Complete(fleet.LocalWorker, j.ID, runJob(t, j.Scenario)); err != nil {
			t.Fatal(err)
		}
	}
	m1.Reconcile() // persist the 10 completed reports
	if got, _ := m1.Get(id); got.Counts.Done != partial {
		t.Fatalf("phase A counts = %+v", got.Counts)
	}
	// Crash: q1/m1 dropped on the floor, journal + results tree survive.

	// Phase B: restart on the same directories.
	q2, err := fleet.NewQueue(fleet.QueueConfig{Dir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	m2 := campaign.NewManager(campaign.FleetBackend{Q: q2}, dirRepo(t, resultsDir), nil)
	if _, nResults, err := m2.Resume(); err != nil || nResults != partial {
		t.Fatalf("Resume recovered %d results (%v), want %d", nResults, err, partial)
	}
	m2.Reconcile()
	executed := 0
	for {
		j := q2.BookLocal()
		if j == nil {
			break
		}
		executed++
		if err := q2.Complete(fleet.LocalWorker, j.ID, runJob(t, j.Scenario)); err != nil {
			t.Fatal(err)
		}
	}
	m2.Reconcile()
	if executed != len(scs)-partial {
		t.Fatalf("restart executed %d members, want exactly the %d unfinished ones",
			executed, len(scs)-partial)
	}
	got, err := m2.Get(id)
	if err != nil || got.State != "done" || got.Counts.Done != len(scs) {
		t.Fatalf("final view = %+v, %v", got, err)
	}
	for i := range scs {
		res, err := m2.Result(id, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Report, reference[i]) {
			t.Fatalf("member %d aggregate differs from uninterrupted RunMany", i)
		}
	}
}

// TestPrebuildGatesSubmission: with a prebuild hook installed, members
// of a platform shape are not submitted until that shape's prebuild
// completes, the hook runs once per distinct spec key (shared across
// campaigns), and the metrics rollup counts the warmed shapes.
func TestPrebuildGatesSubmission(t *testing.T) {
	b := newStub()
	m := campaign.NewManager(b, memRepo(t), newFakeClock())
	var mu sync.Mutex
	calls := map[string]int{}
	release := make(chan struct{})
	m.SetPrebuild(func(raw json.RawMessage) error {
		var sc struct {
			Layers int `json:"layers"`
		}
		if err := json.Unmarshal(raw, &sc); err != nil {
			return err
		}
		mu.Lock()
		calls[fmt.Sprintf("layers=%d", sc.Layers)]++
		mu.Unlock()
		<-release
		return nil
	})
	_, err := m.Create(coolsim.Campaign{
		Name: "prebuild",
		Scenarios: []coolsim.Scenario{
			{Layers: 2, Duration: 2, Warmup: 1},
			{Layers: 4, Duration: 2, Warmup: 1},
			{Layers: 2, Duration: 2, Warmup: 1, Seed: 7},
		},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Both shapes' prebuilds are in flight; nothing may be submitted.
	if n := len(b.groups); n != 0 {
		t.Fatalf("submitted %d groups before prebuild completed", n)
	}
	if got := m.Metrics().PrebuiltPlatforms; got != 0 {
		t.Fatalf("prebuilt_platforms = %d before completion", got)
	}
	close(release)
	waitFor(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.groups) == 2
	})
	mu.Lock()
	if calls["layers=2"] != 1 || calls["layers=4"] != 1 {
		t.Fatalf("prebuild calls = %v, want one per shape", calls)
	}
	mu.Unlock()
	if got := m.Metrics().PrebuiltPlatforms; got != 2 {
		t.Fatalf("prebuilt_platforms = %d, want 2", got)
	}

	// A second campaign reusing a warmed shape submits immediately, with
	// no further prebuild calls.
	_, err = m.Create(coolsim.Campaign{
		Name:      "prebuild-2",
		Scenarios: []coolsim.Scenario{{Layers: 2, Duration: 2, Warmup: 1, Seed: 9}},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if n := len(b.groups); n != 3 {
		t.Fatalf("warm shape did not submit synchronously: %d groups", n)
	}
	mu.Lock()
	if calls["layers=2"] != 1 {
		t.Fatalf("warm shape re-ran prebuild: %v", calls)
	}
	mu.Unlock()
	if got := m.Metrics().PrebuiltPlatforms; got != 2 {
		t.Fatalf("prebuilt_platforms = %d after reuse, want 2", got)
	}
}

// TestPrebuildFailureStillSubmits: the prebuild is an optimization — a
// failing hook must release the members to the backend (where the real
// run surfaces the real error) and not count toward the metric.
func TestPrebuildFailureStillSubmits(t *testing.T) {
	b := newStub()
	m := campaign.NewManager(b, memRepo(t), newFakeClock())
	m.SetPrebuild(func(json.RawMessage) error {
		return errors.New("boom")
	})
	_, err := m.Create(coolsim.Campaign{
		Name:      "prebuild-fail",
		Scenarios: []coolsim.Scenario{{Layers: 2, Duration: 2, Warmup: 1}},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	waitFor(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.groups) == 1
	})
	if got := m.Metrics().PrebuiltPlatforms; got != 0 {
		t.Fatalf("prebuilt_platforms = %d after failed prebuild, want 0", got)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
