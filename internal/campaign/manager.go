package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/coolsim"
	"repro/internal/fleet"
)

// ErrBadSpec wraps submission errors that are the client's fault (empty
// spec, oversized sweep, invalid member, unknown priority); everything
// else Create returns is an internal persistence/backend failure.
var ErrBadSpec = errors.New("campaign: bad spec")

// ErrUnknownCampaign: no campaign with that ID.
var ErrUnknownCampaign = errors.New("campaign: unknown campaign")

// GroupOptions carries the execution knobs of one platform group.
type GroupOptions struct {
	MaxAttempts int
	Priority    int
}

// Backend is where campaign members execute: FleetBackend in the
// daemon, a stub in tests. The contract that makes resume work: Status
// returns a non-nil error exactly when the backend no longer knows the
// job (e.g. it died with a previous process and was not recovered),
// which tells the manager to resubmit the member. A backend keeps a
// member's job until Release, so it never forgets a result the manager
// has not recorded yet.
type Backend interface {
	// SubmitGroup starts one platform group (members sharing a spec
	// key, so the platform prebuild happens once per shape). Returns
	// one job ID per member, parallel to members.
	SubmitGroup(campaignID string, members []Member, opts GroupOptions) ([]string, error)
	// Status reports one member job: its coarse status, the report
	// bytes when done, and the failure message when errored.
	Status(jobID string) (MemberStatus, json.RawMessage, string, error)
	// Cancel requests cancellation of one member job.
	Cancel(jobID string) error
	// Release tells the backend the manager has recorded the job's
	// terminal status; the backend may forget the job from now on.
	Release(jobID string)
}

// state is the manager's in-memory record of one campaign. Member
// status lives here (derived from the backend and the results tree);
// the manifest is the durable part.
type state struct {
	man    *Manifest
	status []MemberStatus
	errs   []string
	// ticks accounting for the ETA: ticksKnown members completed in
	// this process contributing doneTicks simulated base ticks since
	// rateStart.
	rateStart  time.Time
	doneTicks  int64
	ticksKnown int
}

func (st *state) counts() Counts {
	var c Counts
	for _, s := range st.status {
		switch s {
		case StatusPending:
			c.Pending++
		case StatusRunning:
			c.Running++
		case StatusDone:
			c.Done++
		case StatusError:
			c.Error++
		case StatusCanceled:
			c.Canceled++
		}
	}
	return c
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Manager owns the campaign table: admission (expansion +
// canonicalization + durable manifest), the reconcile loop that drives
// members through the backend and persists their reports, cancellation,
// and restart resume. All methods are safe for concurrent use.
type Manager struct {
	backend  Backend
	repo     *Repo
	clock    fleet.Clock
	prebuild func(scenario json.RawMessage) error

	mu        sync.Mutex
	campaigns map[string]*state
	order     []string
	seq       int64
	expanded  int64
	// prebuilds tracks the campaign-level platform prebuild per distinct
	// spec key (shared across campaigns — a shape warmed for one
	// campaign is instantly ready for the next); prebuilt counts the
	// successful ones for /v1/metrics.
	prebuilds map[string]prebuildState
	prebuilt  int64
}

// prebuildState is the lifecycle of one spec key's platform prebuild.
type prebuildState int

const (
	prebuildIdle prebuildState = iota
	prebuildRunning
	prebuildDone
	prebuildFailed
)

// NewManager builds a manager over a backend and a result repository.
// clock nil means wall time (tests inject a fake).
func NewManager(b Backend, r *Repo, clock fleet.Clock) *Manager {
	if clock == nil {
		clock = wallClock{}
	}
	return &Manager{backend: b, repo: r, clock: clock,
		campaigns: map[string]*state{}, prebuilds: map[string]prebuildState{}}
}

// SetPrebuild installs the campaign-level platform prebuild hook: before
// the first members of a distinct platform shape (spec key) are
// submitted, fn is called once with one member's canonical scenario
// bytes to build that shape's expensive artifacts (grid, symbolic
// analysis, LUT, weights), so the fan-out books onto warm platforms
// instead of having the group's first run pay the builds inside a worker
// slot. Submission of that key's members is deferred until the prebuild
// finishes; a failed prebuild releases the members anyway — it is an
// optimization, and the run itself surfaces the real error. Set before
// the first Create/Resume; a nil fn (the default) submits immediately.
func (m *Manager) SetPrebuild(fn func(scenario json.RawMessage) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prebuild = fn
}

// Resume recovers every campaign persisted in the results tree:
// members with run files are done and will never be re-executed;
// everything else re-enters the reconcile loop, which re-adopts jobs
// the backend still knows (fleet journal recovery) and resubmits the
// rest. Returns the number of campaigns and already-done members
// recovered.
func (m *Manager) Resume() (campaigns, results int, err error) {
	mans, done, err := m.repo.Load()
	if err != nil {
		return 0, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock.Now()
	for _, man := range mans {
		if m.campaigns[man.ID] != nil {
			continue
		}
		st := &state{
			man:       man,
			status:    make([]MemberStatus, len(man.Members)),
			errs:      make([]string, len(man.Members)),
			rateStart: now,
		}
		for i := range st.status {
			st.status[i] = StatusPending
		}
		for idx := range done[man.ID] {
			st.status[idx] = StatusDone
			results++
			if id := man.Members[idx].JobID; id != "" {
				m.backend.Release(id)
			}
		}
		m.campaigns[man.ID] = st
		m.order = append(m.order, man.ID)
		m.expanded += int64(len(man.Members))
		// Keep new IDs unique across restarts.
		if n, ok := strings.CutPrefix(man.ID, "c-"); ok {
			if v, err := strconv.ParseInt(n, 10, 64); err == nil && v > m.seq {
				m.seq = v
			}
		}
		campaigns++
	}
	sort.SliceStable(m.order, func(i, k int) bool {
		return m.campaigns[m.order[i]].man.Created.Before(m.campaigns[m.order[k]].man.Created)
	})
	return campaigns, results, nil
}

// Create admits one campaign: expand the spec, canonicalize every
// member, persist the manifest (admission is durable before it is
// acknowledged, like a fleet submission), then run a first reconcile
// pass so the fan-out starts before the response is written.
//
// A sweep may lower its expansion limit but not raise it past
// coolsim.DefaultSweepLimit: the server ceiling is checked before
// expanding, so a few bytes of client JSON cannot make the daemon
// materialize an unbounded member list.
func (m *Manager) Create(spec coolsim.Campaign) (View, error) {
	if sw := spec.Sweep; sw != nil && sw.MaxScenarios > coolsim.DefaultSweepLimit {
		return View{}, fmt.Errorf("%w: max_scenarios %d exceeds the server limit of %d members",
			ErrBadSpec, sw.MaxScenarios, coolsim.DefaultSweepLimit)
	}
	scs, err := spec.Expand()
	if err != nil {
		return View{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	priority := fleet.PriorityBulk
	if spec.Priority != "" {
		priority, err = fleet.ParsePriority(spec.Priority)
		if err != nil {
			return View{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	members := make([]Member, len(scs))
	for i, sc := range scs {
		raw, key, err := fleet.CanonicalScenario(sc)
		if err != nil {
			return View{}, fmt.Errorf("%w: member %d: %v", ErrBadSpec, i, err)
		}
		members[i] = Member{Index: i, SpecKey: key, Scenario: raw}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	man := &Manifest{
		ID:          fmt.Sprintf("c-%d", m.seq),
		Name:        spec.Name,
		Created:     m.clock.Now(),
		Priority:    priority,
		MaxAttempts: spec.MaxAttempts,
		Members:     members,
	}
	if err := m.repo.SaveManifest(man); err != nil {
		m.seq--
		return View{}, err
	}
	st := &state{
		man:       man,
		status:    make([]MemberStatus, len(members)),
		errs:      make([]string, len(members)),
		rateStart: man.Created,
	}
	for i := range st.status {
		st.status[i] = StatusPending
	}
	m.campaigns[man.ID] = st
	m.order = append(m.order, man.ID)
	m.expanded += int64(len(members))
	m.reconcileLocked(st)
	return m.viewLocked(st), nil
}

// Reconcile advances every campaign one step: poll non-terminal
// members, persist freshly completed reports, drop job assignments the
// backend no longer knows, and (re)submit unassigned members grouped by
// platform key. The daemons drive it on a ticker; it is idempotent, so
// handlers and tests may also call it directly.
func (m *Manager) Reconcile() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.order {
		m.reconcileLocked(m.campaigns[id])
	}
}

func (m *Manager) reconcileLocked(st *state) {
	man := st.man
	manifestDirty := false

	// Phase 1: poll every assigned, non-terminal member.
	for i := range man.Members {
		mem := &man.Members[i]
		if st.status[i].Terminal() || mem.JobID == "" {
			continue
		}
		status, report, errMsg, err := m.backend.Status(mem.JobID)
		if err != nil {
			// The backend lost the job (restart); resubmit below.
			mem.JobID = ""
			st.status[i] = StatusPending
			manifestDirty = true
			continue
		}
		switch status {
		case StatusDone:
			if err := m.repo.SaveResult(man, i, report); err != nil {
				// Leave the member running: the next reconcile retries
				// the write (the backend keeps the report).
				continue
			}
			st.status[i] = StatusDone
			var ticks struct {
				BaseTicks int64 `json:"base_ticks"`
			}
			if json.Unmarshal(report, &ticks) == nil && ticks.BaseTicks > 0 {
				st.doneTicks += ticks.BaseTicks
				st.ticksKnown++
			}
		case StatusError:
			st.status[i] = StatusError
			st.errs[i] = errMsg
		case StatusCanceled:
			st.status[i] = StatusCanceled
			st.errs[i] = errMsg
		default:
			st.status[i] = status
		}
		if st.status[i].Terminal() {
			m.backend.Release(mem.JobID)
		}
	}

	// Phase 2: cancellation sweep, or (re)submission of unassigned
	// members grouped by spec key in first-appearance order.
	if man.Canceled {
		for i := range man.Members {
			mem := &man.Members[i]
			if st.status[i].Terminal() {
				continue
			}
			if mem.JobID == "" {
				st.status[i] = StatusCanceled
				st.errs[i] = "campaign canceled"
				continue
			}
			_ = m.backend.Cancel(mem.JobID)
		}
	} else {
		groups := map[string][]int{}
		var keys []string
		for i := range man.Members {
			if st.status[i].Terminal() || man.Members[i].JobID != "" {
				continue
			}
			key := man.Members[i].SpecKey
			if _, seen := groups[key]; !seen {
				keys = append(keys, key)
			}
			groups[key] = append(groups[key], i)
		}
		for _, key := range keys {
			idxs := groups[key]
			if m.prebuild != nil {
				switch m.prebuilds[key] {
				case prebuildIdle:
					m.prebuilds[key] = prebuildRunning
					go m.runPrebuild(key, man.Members[idxs[0]].Scenario)
					continue
				case prebuildRunning:
					// Members stay pending until the build lands; its
					// completion triggers another reconcile.
					continue
				}
			}
			group := make([]Member, len(idxs))
			for k, i := range idxs {
				group[k] = man.Members[i]
			}
			ids, err := m.backend.SubmitGroup(man.ID, group,
				GroupOptions{MaxAttempts: man.MaxAttempts, Priority: man.Priority})
			// Record whatever prefix was admitted even on error (a failed
			// journal write mid-group must not double-submit the prefix);
			// the unadmitted rest retries on the next reconcile.
			for k, i := range idxs {
				if k < len(ids) && ids[k] != "" {
					man.Members[i].JobID = ids[k]
					manifestDirty = true
				}
			}
			_ = err
		}
	}
	if manifestDirty {
		_ = m.repo.SaveManifest(man)
	}
}

// runPrebuild executes one spec key's platform prebuild off the manager
// lock, records the outcome and re-reconciles so the deferred members
// submit (on success and failure alike — see SetPrebuild).
func (m *Manager) runPrebuild(key string, scenario json.RawMessage) {
	err := m.prebuild(scenario)
	m.mu.Lock()
	if err != nil {
		m.prebuilds[key] = prebuildFailed
	} else {
		m.prebuilds[key] = prebuildDone
		m.prebuilt++
	}
	m.mu.Unlock()
	m.Reconcile()
}

// Cancel marks the campaign canceled and sweeps its members: waiting
// ones resolve immediately, held ones are canceled through the backend
// (and resolve on a later reconcile).
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.campaigns[id]
	if st == nil {
		return View{}, ErrUnknownCampaign
	}
	if !st.man.Canceled {
		st.man.Canceled = true
		_ = m.repo.SaveManifest(st.man)
	}
	m.reconcileLocked(st)
	return m.viewLocked(st), nil
}

// Get returns one campaign's status view.
func (m *Manager) Get(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.campaigns[id]
	if st == nil {
		return View{}, ErrUnknownCampaign
	}
	return m.viewLocked(st), nil
}

// List returns every campaign in admission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.viewLocked(m.campaigns[id]))
	}
	return out
}

// MemberJob is one member's execution handle: its backend job ID (empty
// until the member is submitted) and whether the member has reached a
// terminal status. The campaign stream endpoint polls this to discover
// member hubs as the fan-out assigns them.
type MemberJob struct {
	Index    int
	JobID    string
	Terminal bool
}

// MemberJobs snapshots every member's job assignment and returns whether
// the campaign as a whole is terminal (all members done/error/canceled).
func (m *Manager) MemberJobs(id string) ([]MemberJob, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.campaigns[id]
	if st == nil {
		return nil, false, ErrUnknownCampaign
	}
	out := make([]MemberJob, len(st.man.Members))
	terminal := true
	for i := range st.man.Members {
		out[i] = MemberJob{
			Index:    i,
			JobID:    st.man.Members[i].JobID,
			Terminal: st.status[i].Terminal(),
		}
		if !out[i].Terminal {
			terminal = false
		}
	}
	return out, terminal, nil
}

// Members returns the campaign's member count (the results stream's
// line count once terminal).
func (m *Manager) Members(id string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.campaigns[id]
	if st == nil {
		return 0, ErrUnknownCampaign
	}
	return len(st.man.Members), nil
}

// Result returns one member's terminal record: the persisted report
// bytes for done members, the failure for errored/canceled ones. A
// non-terminal member returns its current status with no report.
func (m *Manager) Result(id string, member int) (MemberResult, error) {
	m.mu.Lock()
	st := m.campaigns[id]
	if st == nil {
		m.mu.Unlock()
		return MemberResult{}, ErrUnknownCampaign
	}
	if member < 0 || member >= len(st.status) {
		m.mu.Unlock()
		return MemberResult{}, fmt.Errorf("campaign: %s has no member %d", id, member)
	}
	res := MemberResult{Index: member, Status: st.status[member], Error: st.errs[member]}
	man := st.man
	m.mu.Unlock()
	if res.Status == StatusDone {
		report, err := m.repo.LoadResult(man, member)
		if err != nil {
			return MemberResult{}, err
		}
		res.Report = report
	}
	return res, nil
}

// viewLocked assembles the status view, including the ticks/sec rate
// over members completed by this process and the ETA it implies for the
// non-terminal remainder.
func (m *Manager) viewLocked(st *state) View {
	c := st.counts()
	n := len(st.status)
	v := View{
		ID:       st.man.ID,
		Name:     st.man.Name,
		Created:  st.man.Created,
		Priority: priorityName(st.man.Priority),
		Members:  n,
		Counts:   c,
	}
	terminal := c.Done + c.Error + c.Canceled
	if n > 0 {
		v.Progress = float64(terminal) / float64(n)
	}
	switch {
	case st.man.Canceled:
		v.State = "canceled"
	case terminal == n:
		v.State = "done"
	default:
		v.State = "active"
	}
	if st.ticksKnown > 0 {
		elapsed := m.clock.Now().Sub(st.rateStart).Seconds()
		if elapsed > 0 {
			v.TicksPerSec = float64(st.doneTicks) / elapsed
			remaining := c.Pending + c.Running
			avg := float64(st.doneTicks) / float64(st.ticksKnown)
			if v.TicksPerSec > 0 && remaining > 0 {
				v.EtaSeconds = float64(remaining) * avg / v.TicksPerSec
			}
		}
	}
	return v
}

func priorityName(p int) string {
	if p == fleet.PriorityBulk {
		return "bulk"
	}
	return "interactive"
}

// Metrics assembles the campaign rollup for GET /v1/metrics.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	var mt Metrics
	mt.ExpandedMembers = m.expanded
	mt.PrebuiltPlatforms = m.prebuilt
	for _, id := range m.order {
		st := m.campaigns[id]
		c := st.counts()
		switch {
		case st.man.Canceled:
			mt.Canceled++
		case c.Done+c.Error+c.Canceled == len(st.status):
			mt.Done++
		default:
			mt.Active++
		}
	}
	m.mu.Unlock()
	mt.ResultsPersisted, mt.ResultsLoaded = m.repo.Counters()
	return mt
}
