package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/coolsim"
)

// serviceProbeSeconds is how long a traced run drives the daemon.
const serviceProbeSeconds = 5

// probeService measures the service and campaign layers in a traced
// run. It starts a coolserved daemon built from the tree and drives it
// with two closed-loop clients on one connection each, every operation
// traced. The interactive client submits a small run, follows its
// stream to the close and GETs the report. The bulk client posts
// one-member campaigns and follows their results; one member keeps bulk
// work on at most one of the daemon's two workers, so an interactive
// run never queues behind it. Every report is checked against the
// reference and must also equal an in-process coolsim.Run of the same
// scenario; the operations count in out's attempted and failed.
func probeService(ctx context.Context, o *options, out *outcome) error {
	if o.coolserved == "" {
		return errors.New("service probe: no coolserved binary (-coolserved)")
	}
	tr := o.tracer
	dir, err := os.MkdirTemp(o.workdir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(ctx, o.coolserved, dir)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	c := newClient(d.base)
	for _, sc := range serviceShapes() { // warm every platform shape
		if _, err := c.run(ctx, sc, nil, 0, nil); err != nil {
			return fmt.Errorf("service warm-up: %w", err)
		}
	}
	c.close()
	before, err := d.metrics(ctx)
	if err != nil {
		return err
	}

	var (
		mu       sync.Mutex // guards out and the rest of this block while both clients run
		seen     = map[string]coolsim.Scenario{}
		got      = map[string][]*coolsim.Report{}
		bytesOp  []float64
		deadline = time.Now().Add(serviceProbeSeconds * time.Second)
	)
	record := func(sc coolsim.Scenario, r *coolsim.Report, err error, what string) {
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		if err == nil {
			err = o.ref.check(sc, r)
		}
		if err != nil {
			out.fail(1, fmt.Errorf("service %s: %w", what, err))
			return
		}
		key := scenarioKey(sc)
		seen[key] = sc
		got[key] = append(got[key], r)
	}
	// Operation ids above 1<<32 keep the service's spans apart from the
	// workload's own operations.
	var wg sync.WaitGroup
	var interactiveErr, bulkErr error
	wg.Add(2)
	go func() { // interactive client
		defer wg.Done()
		c := newClient(d.base)
		defer c.close()
		rng := rand.New(rand.NewSource(o.seed))
		for op := int64(1) << 32; time.Now().Before(deadline); op++ {
			sc := interactiveScenario(1 + rng.Int63n(interactiveSeeds))
			var nbytes int
			r, err := c.run(ctx, sc, tr, op, &nbytes)
			if err != nil && errors.Is(err, errTransport) {
				interactiveErr = err
				return
			}
			if err == nil {
				mu.Lock()
				bytesOp = append(bytesOp, float64(nbytes))
				mu.Unlock()
			}
			record(sc, r, err, "run")
		}
	}()
	go func() { // bulk client
		defer wg.Done()
		c := newClient(d.base)
		defer c.close()
		rng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
		for op := int64(2) << 32; time.Now().Before(deadline); op++ {
			scs := bulkCampaign(rng)
			rs, err := c.campaign(ctx, scs, tr, op)
			if err != nil && errors.Is(err, errTransport) {
				bulkErr = err
				return
			}
			for i, sc := range scs {
				var r *coolsim.Report
				if err == nil {
					r = rs[i]
				}
				record(sc, r, err, "campaign member")
			}
		}
	}()
	wg.Wait()
	if err := errors.Join(interactiveErr, bulkErr); err != nil {
		return err
	}
	after, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	err = d.stop()
	d = nil
	if err != nil {
		return err
	}

	// Every report the daemon served must equal an in-process run of
	// the same scenario.
	pc := coolsim.NewPlatformCache(0)
	for key, sc := range seen {
		want, err := coolsim.Run(ctx, sc, coolsim.WithPlatformCache(pc))
		if err != nil {
			return err
		}
		wantJSON, _ := json.Marshal(want)
		for _, r := range got[key] {
			if gotJSON, _ := json.Marshal(r); !bytes.Equal(gotJSON, wantJSON) {
				out.fail(1, fmt.Errorf("service report for %s differs from in-process Run:\n got %s\nwant %s",
					key, gotJSON, wantJSON))
			}
		}
	}

	m := out.layer
	m["service.stream_bytes"] = mean(bytesOp)
	m["service.evictions"] = float64(after.Streams.Evictions)
	m["campaign.results_persisted"] = float64(after.Campaigns.ResultsPersisted - before.Campaigns.ResultsPersisted)
	spans := tr.snapshot()
	for _, name := range []string{"service.submit", "service.first_frame", "service.exec",
		"service.report", "campaign.submit", "campaign.results"} {
		m[name+"_ms"] = median(durations(spans, name))
	}
	return nil
}

// daemon is one coolserved process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error // receives the exit status once
}

// startDaemon starts coolserved on a free loopback port with its state
// under dir, and waits until /healthz answers.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	log, err := os.Create(filepath.Join(dir, "coolserved.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers),
		"-results-dir", filepath.Join(dir, "results"), "-grace", "5s")
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start coolserved: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: log, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	for t0 := time.Now(); ; {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("coolserved exited before it was healthy: %v (log %s)", err, log.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, errors.New("coolserved not healthy after 30 s")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// has not exited 15 s later.
func (d *daemon) stop() error {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.done:
		return nil
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("coolserved did not drain within 15 s")
	}
}

// daemonMetrics is the part of GET /v1/metrics the benchmark reads.
type daemonMetrics struct {
	Streams struct {
		Evictions int64 `json:"evictions"`
	} `json:"streams"`
	Campaigns struct {
		ResultsPersisted int64 `json:"results_persisted"`
	} `json:"campaigns"`
}

func (d *daemon) metrics(ctx context.Context) (daemonMetrics, error) {
	var m daemonMetrics
	c := newClient(d.base)
	defer c.close()
	err := c.doJSON(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// errTransport marks a failure to talk to the daemon at all, which ends
// the run, as opposed to a request the daemon answered wrongly, which
// counts as a failed operation.
var errTransport = errors.New("transport")

// client is one closed-loop client: a single keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the response for the caller to read
// and close; a non-2xx status is an error.
func (c *client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s %s: %v", errTransport, method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// doJSON sends one request and decodes its JSON answer, reading the
// body to the end so the connection is reused.
func (c *client) doJSON(ctx context.Context, method, path string, body, into any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// run submits sc as a run, follows its stream to the close and fetches
// the report: the interactive operation. Its stages are spans under one
// "service.op" span; streamBytes, if not nil, receives the bytes the
// stream delivered.
func (c *client) run(ctx context.Context, sc coolsim.Scenario, tr *tracer, op int64, streamBytes *int) (*coolsim.Report, error) {
	root := tr.begin("service.op", 0, op)
	defer tr.end(root)

	id := tr.begin("service.submit", root, op)
	var sub struct {
		ID string `json:"id"`
	}
	err := c.doJSON(ctx, http.MethodPost, "/v1/runs", sc, &sub)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	// first_frame covers queue wait plus session set-up; exec the rest
	// of the run until the stream closes.
	id = tr.begin("service.first_frame", root, op)
	resp, err := c.do(ctx, http.MethodGet, "/v1/runs/"+sub.ID+"/stream", nil)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	br := bufio.NewReader(resp.Body)
	var frames, nbytes int
	var exec int
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if frames == 0 {
				tr.end(id)
				exec = tr.begin("service.exec", root, op)
			}
			frames++
			nbytes += len(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			tr.end(id)
			return nil, fmt.Errorf("%w: stream %s: %v", errTransport, sub.ID, err)
		}
	}
	resp.Body.Close()
	tr.end(exec)
	if frames == 0 {
		tr.end(id)
	}
	if reason := resp.Trailer.Get("X-Stream-Close-Reason"); reason != "done" {
		return nil, fmt.Errorf("stream %s closed %q after %d frames", sub.ID, reason, frames)
	}
	if want := sc.ExpectedTicks(); frames != want {
		return nil, fmt.Errorf("stream %s: %d frames, want %d", sub.ID, frames, want)
	}
	if streamBytes != nil {
		*streamBytes = nbytes
	}

	id = tr.begin("service.report", root, op)
	var status struct {
		Status string          `json:"status"`
		Report *coolsim.Report `json:"report"`
	}
	err = c.doJSON(ctx, http.MethodGet, "/v1/runs/"+sub.ID, nil, &status)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if status.Status != "done" || status.Report == nil {
		return nil, fmt.Errorf("run %s: status %q after its stream closed", sub.ID, status.Status)
	}
	return status.Report, nil
}

// campaign posts scs as a campaign and follows its results to the end:
// the bulk operation.
func (c *client) campaign(ctx context.Context, scs []coolsim.Scenario, tr *tracer, op int64) ([]*coolsim.Report, error) {
	root := tr.begin("campaign.op", 0, op)
	defer tr.end(root)
	id := tr.begin("campaign.submit", root, op)
	var sub struct {
		ID string `json:"id"`
	}
	err := c.doJSON(ctx, http.MethodPost, "/v1/campaigns", coolsim.Campaign{Name: "perfbench", Scenarios: scs}, &sub)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("campaign.results", root, op)
	defer tr.end(id)
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+sub.ID+"/results", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var out []*coolsim.Report
	for dec.More() {
		var r coolsim.Report
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%w: campaign %s results: %v", errTransport, sub.ID, err)
		}
		out = append(out, &r)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return nil, fmt.Errorf("%w: campaign %s results: %v", errTransport, sub.ID, err)
	}
	if len(out) != len(scs) {
		return nil, fmt.Errorf("campaign %s: %d results, want %d", sub.ID, len(out), len(scs))
	}
	return out, nil
}
