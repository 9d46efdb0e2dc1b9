package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/coolsim"
	"repro/internal/fleet"
	"repro/internal/stream"
)

// referenceNDJSON runs the quick scenario solo through a Session and
// encodes every tick the way the pre-hub stream endpoint did — the
// byte-identity target for every streaming path.
func referenceNDJSON(t *testing.T) []byte {
	t.Helper()
	sc, err := fleet.DecodeScenario(json.RawMessage(quickBody))
	if err != nil {
		t.Fatal(err)
	}
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

func readStream(t *testing.T, base, id string) (body []byte, reason string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: %d %s", resp.StatusCode, buf)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Trailer.Get("X-Stream-Close-Reason")
}

// TestStreamLocalFallback: a run the daemon executes in-process streams
// through GET /v1/runs/{id}/stream byte-identical to a solo session,
// and the hub shows up in the metrics rollup.
func TestStreamLocalFallback(t *testing.T) {
	_, ts := testServer(t)
	id := submit(t, ts, quickBody)

	body, reason := readStream(t, ts.URL, id)
	if reason != "done" {
		t.Fatalf("close reason = %q, want done", reason)
	}
	if want := referenceNDJSON(t); !bytes.Equal(body, want) {
		t.Fatalf("streamed %d bytes differ from solo session (%d bytes)", len(body), len(want))
	}

	// Replay after completion comes from the retained hub, no re-run.
	again, reason := readStream(t, ts.URL, id)
	if reason != "done" || !bytes.Equal(again, body) {
		t.Fatalf("replay differs (reason %q)", reason)
	}

	if m := getMetrics(t, ts); m.Streams.Hubs == 0 || m.Streams.Frames == 0 || m.Streams.Bytes == 0 {
		t.Fatalf("stream metrics empty: %+v", m.Streams)
	}
}

// TestStreamProxiedFromWorker: following a fleet run through the
// dispatching daemon reads the same bytes the worker daemon produced —
// the tap dials the worker's "<id>.<attempt>" stream once and the
// dispatcher-side hub fans out to every follower, early subscribers
// and mid-run joiners alike.
func TestStreamProxiedFromWorker(t *testing.T) {
	d, ts := testServer(t)
	wsrv, wts := testServer(t)
	startWorkerDaemon(t, ts.URL, wsrv, wts)
	waitWorkers(t, d, 1)
	id := submit(t, ts, quickBody)

	const followers = 4
	bodies := make([][]byte, followers)
	reasons := make([]string, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == followers-1 {
				time.Sleep(250 * time.Millisecond) // late joiner: ring replay
			}
			resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return
			}
			bodies[i] = body
			reasons[i] = resp.Trailer.Get("X-Stream-Close-Reason")
		}(i)
	}
	wg.Wait()

	want := referenceNDJSON(t)
	for i := 0; i < followers; i++ {
		if reasons[i] != "done" {
			t.Fatalf("follower %d close reason = %q, want done", i, reasons[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("follower %d got %d bytes, differs from solo session (%d bytes)",
				i, len(bodies[i]), len(want))
		}
	}
	v := waitStatus(t, ts, id, statusDone, 10*time.Second)
	if len(v.Attempts) != 1 {
		t.Fatalf("attempts = %+v", v.Attempts)
	}
	// The worker daemon keeps the attempt as a run of its own.
	if wv := getView(t, wts, id+".1"); wv.Status != statusDone || string(wv.Report) != string(v.Report) {
		t.Fatalf("worker-side attempt: %+v", wv)
	}
	if m := getMetrics(t, wts); m.Streams.Hubs != 1 || m.Streams.Evictions != 0 {
		t.Fatalf("worker streams = %+v, want one hub, no evictions", m.Streams)
	}
}

// startWorkerDaemon makes the daemon behind wts a fleet worker of base,
// advertising its own address for stream taps — coolserved -dispatcher.
func startWorkerDaemon(t *testing.T, base string, w *server, wts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	wk := &fleet.Worker{
		Dispatcher:   base,
		Addr:         strings.TrimPrefix(wts.URL, "http://"),
		Capacity:     2,
		PollInterval: 20 * time.Millisecond,
		Runner:       w.runFleetJob,
	}
	done := make(chan struct{})
	go func() { wk.Run(ctx); close(done) }()
	t.Cleanup(func() { cancel(); <-done })
}

// TestStreamDisconnectCancels: ?cancel_on_disconnect=1 cancels the
// underlying fleet job when the client hangs up, and the local executor
// closes the run's hub with the canceled reason.
func TestStreamDisconnectCancels(t *testing.T) {
	s, ts := testServer(t)
	// Slow run so the disconnect lands mid-flight.
	body := `{"workload":"gzip","cooling":"var","policy":"talb","layers":2,"duration":600,"warmup":1,"grid_nx":12,"grid_ny":10}`
	id := submit(t, ts, body)

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream?cancel_on_disconnect=1")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // hang up mid-run

	v := waitStatus(t, ts, id, statusCanceled, 10*time.Second)
	if v.State != string(fleet.StateCanceled) {
		t.Fatalf("state = %s", v.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := s.hub(id); h != nil {
			if closed, reason := h.Closed(); closed {
				if reason != stream.ReasonCanceled {
					t.Fatalf("hub close reason = %v, want canceled", reason)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("hub never closed after cancel")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
