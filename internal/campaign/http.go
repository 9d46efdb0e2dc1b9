package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/coolsim"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// API mounts the campaign endpoints on the daemon's mux.
//
//	POST   /v1/campaigns              submit a spec (scenario list or sweep)
//	GET    /v1/campaigns              list campaign status views
//	GET    /v1/campaigns/{id}         one campaign: counts, progress, ETA
//	DELETE /v1/campaigns/{id}         cancel the remaining members
//	GET    /v1/campaigns/{id}/results stream the aggregate (NDJSON)
//	GET    /v1/campaigns/{id}/stream  live member ticks, member-tagged (NDJSON)
type API struct {
	M *Manager
	// Draining, when set, gates new submissions during shutdown.
	Draining func() bool
	// Streams resolves a member job ID to its live broadcast hub (nil
	// when the backend has none for that job). When set, the campaign
	// stream endpoint is mounted.
	Streams HubLookup
}

// HubLookup resolves a backend job ID to the run's broadcast hub.
type HubLookup func(jobID string) *stream.Hub

// Register mounts the endpoints.
func (a *API) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/campaigns", a.handleCreate)
	mux.HandleFunc("GET /v1/campaigns", a.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", a.handleGet)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", a.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", a.handleResults)
	if a.Streams != nil {
		mux.HandleFunc("GET /v1/campaigns/{id}/stream", a.handleStream)
	}
}

func (a *API) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec coolsim.Campaign
	// Campaign bodies carry whole sweeps; allow 16× the single-run cap.
	if !fleet.DecodeJSON(w, r, 16*fleet.MaxBodyBytes, &spec) {
		return
	}
	if a.Draining != nil && a.Draining() {
		fleet.WriteError(w, http.StatusServiceUnavailable, fleet.CodeDraining, "server is draining")
		return
	}
	v, err := a.M.Create(spec)
	if err != nil {
		if errors.Is(err, ErrBadSpec) {
			fleet.WriteError(w, http.StatusBadRequest, fleet.CodeBadScenario, err.Error())
		} else {
			fleet.WriteError(w, http.StatusInternalServerError, fleet.CodeInternal, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(v)
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(a.M.List())
}

func (a *API) handleGet(w http.ResponseWriter, r *http.Request) {
	v, err := a.M.Get(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := a.M.Cancel(r.PathValue("id"))
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleStream multiplexes every member's live tick stream onto one
// NDJSON response: each line is {"member":N,"sample":<frame>}, with the
// member's original frame bytes embedded verbatim (no re-encode). Member
// hubs are tapped as the fan-out assigns jobs, each replayed from its
// ring start, so a subscriber attaching at submit time sees every tick
// of every member. Lines from different members interleave; within one
// member they are tick-ordered. The stream ends when every member is
// terminal and its frames are drained. Members whose backend keeps no
// hub (e.g. results recovered from disk after a restart) are skipped.
func (a *API) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, _, err := a.M.MemberJobs(id); err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	rc := http.NewResponseController(w)
	var wmu sync.Mutex // serializes writes from the member pumps
	var wg sync.WaitGroup

	// writeFrames wraps each NDJSON frame in chunk with the member tag
	// and writes it out; on any write failure the whole response is dead,
	// so cancel tears every pump down.
	writeFrames := func(prefix []byte, chunk []byte) {
		wmu.Lock()
		defer wmu.Unlock()
		rc.SetWriteDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // best-effort
		for len(chunk) > 0 {
			nl := bytes.IndexByte(chunk, '\n')
			if nl < 0 {
				break // incomplete frame cannot happen; hubs store whole lines
			}
			if _, err := w.Write(prefix); err != nil {
				cancel()
				return
			}
			if _, err := w.Write(chunk[:nl]); err != nil {
				cancel()
				return
			}
			if _, err := w.Write([]byte("}\n")); err != nil {
				cancel()
				return
			}
			chunk = chunk[nl+1:]
		}
		rc.Flush() //nolint:errcheck // next write surfaces the failure
	}

	pump := func(member int, h *stream.Hub) {
		defer wg.Done()
		sub, err := h.Subscribe(0)
		if err != nil {
			// Ring already wrapped; deliver the live tail instead.
			if sub, err = h.Subscribe(stream.Latest); err != nil {
				return
			}
		}
		defer sub.Close()
		prefix := []byte(fmt.Sprintf(`{"member":%d,"sample":`, member))
		buf := make([]byte, 0, 16<<10)
		for {
			chunk, _, done := sub.Next(buf[:0])
			if len(chunk) > 0 {
				writeFrames(prefix, chunk)
				if ctx.Err() != nil {
					return
				}
				continue
			}
			if done {
				return
			}
			select {
			case <-sub.Ready():
			case <-ctx.Done():
				return
			}
		}
	}

	// Discover member hubs as reconciliation assigns jobs; stop once the
	// campaign is terminal and every discovered hub has a pump draining
	// it (the pumps themselves drain the closed hubs to the end).
	attached := make(map[int]bool)
	for {
		jobs, terminal, err := a.M.MemberJobs(id)
		if err != nil {
			break
		}
		for _, mj := range jobs {
			if attached[mj.Index] || mj.JobID == "" {
				continue
			}
			if h := a.Streams(mj.JobID); h != nil {
				attached[mj.Index] = true
				wg.Add(1)
				go pump(mj.Index, h)
			} else if mj.Terminal {
				attached[mj.Index] = true // no hub to replay; skip
			}
		}
		if terminal && len(attached) == len(jobs) {
			break
		}
		a.M.Reconcile()
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	wg.Wait()
}

// errorLine is the stream record of a member that produced no report.
type errorLine struct {
	Member int          `json:"member"`
	Status MemberStatus `json:"status"`
	Error  string       `json:"error,omitempty"`
}

// handleResults streams the campaign aggregate as NDJSON, one line per
// member in expansion order: the report bytes verbatim for done members
// (so the stream concatenates to exactly the reports RunMany would
// produce), a {"member":N,"status":...} record for errored/canceled
// ones. The stream follows the campaign — each member's line is written
// once that member is terminal — and ends after the last member.
func (a *API) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, err := a.M.Members(id)
	if err != nil {
		fleet.WriteError(w, http.StatusNotFound, fleet.CodeNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	for i := 0; i < n; i++ {
		var res MemberResult
		for {
			res, err = a.M.Result(id, i)
			if err != nil || res.Status.Terminal() {
				break
			}
			// Reconcile is idempotent; driving it here keeps the stream
			// live even between the daemon's ticker firings.
			a.M.Reconcile()
			select {
			case <-ctx.Done():
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
		if err != nil {
			return // repo read failed mid-stream; the line count betrays it
		}
		line := res.Report
		if res.Status != StatusDone {
			line, _ = json.Marshal(errorLine{Member: i, Status: res.Status, Error: res.Error})
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
