package stream

import (
	"errors"
	"sync"
	"time"

	"repro/coolsim"
)

// CloseReason says why a hub — or one subscriber — stopped delivering
// frames. It travels to HTTP clients as the X-Stream-Close-Reason
// trailer.
type CloseReason uint8

const (
	// reasonOpen is the zero value: still streaming.
	reasonOpen CloseReason = iota
	// ReasonDone: the producing run completed normally.
	ReasonDone
	// ReasonCanceled: the run (or the whole hub) was canceled.
	ReasonCanceled
	// ReasonFailed: the run failed, or an upstream tap broke.
	ReasonFailed
	// ReasonLagged: this subscriber fell more than the lag budget behind
	// the producer and was evicted so the ring could move on.
	ReasonLagged
)

// String returns the wire name of the reason ("" while open).
func (r CloseReason) String() string {
	switch r {
	case ReasonDone:
		return "done"
	case ReasonCanceled:
		return "canceled"
	case ReasonFailed:
		return "failed"
	case ReasonLagged:
		return "lagged"
	}
	return ""
}

// ParseCloseReason inverts String: it maps an X-Stream-Close-Reason
// trailer value back to the reason, for taps that relay a stream into a
// downstream hub. ok is false for anything that is not a terminal wire
// name (including "", a stream that never finished).
func ParseCloseReason(s string) (r CloseReason, ok bool) {
	switch s {
	case "done":
		return ReasonDone, true
	case "canceled":
		return ReasonCanceled, true
	case "failed":
		return ReasonFailed, true
	case "lagged":
		return ReasonLagged, true
	}
	return reasonOpen, false
}

// ErrGone reports a Subscribe whose requested start has already been
// overwritten in the ring: the full replay the caller asked for no
// longer exists. HTTP handlers map it to 410 Gone.
var ErrGone = errors.New("stream: requested frames have left the ring")

// Latest is the Subscribe position meaning "tail only": skip the ring
// replay and start at the next published frame.
const Latest = ^uint64(0)

// Config sizes one hub. The zero value gets the package defaults.
type Config struct {
	// RingFrames is the ring capacity in frames. A run longer than the
	// ring can still stream live, but full-history replays become
	// impossible once the ring wraps (Subscribe(0) returns ErrGone).
	// Default 1 << 16 — at the 100 ms base tick, 1.8 hours of samples.
	RingFrames int
	// LagFrames is how far a subscriber may trail the producer before it
	// is evicted with ReasonLagged. Values <= 0 or > RingFrames mean the
	// ring capacity itself (evict only when the replay window is about
	// to be overwritten).
	LagFrames int
	// ExpectedFrames, when positive, is the producer's frame budget
	// (base ticks incl. warm-up); Stats derives the ETA from it.
	ExpectedFrames int
}

// DefaultRingFrames is the ring capacity when Config.RingFrames is 0.
const DefaultRingFrames = 1 << 16

func (c Config) withDefaults() Config {
	if c.RingFrames <= 0 {
		c.RingFrames = DefaultRingFrames
	}
	if c.LagFrames <= 0 || c.LagFrames > c.RingFrames {
		c.LagFrames = c.RingFrames
	}
	return c
}

// Hub is a single-producer broadcast ring for one run's frames. Publish
// and PublishFrame must come from one goroutine at a time; everything
// else is safe for any number of concurrent subscribers.
type Hub struct {
	mu   sync.Mutex
	cfg  Config
	ring [][]byte // cfg.RingFrames slots, each a reusable frame buffer
	seq  uint64   // frames published so far; frame i lives at ring[i%cap]
	subs []*Sub   // attached subscribers (swap-remove, no allocation)

	closed  bool
	reason  CloseReason
	started time.Time // first publish
	ended   time.Time // close

	bytes     uint64
	evictions uint64
	subsTotal uint64
	subsPeak  int
}

// NewHub builds an empty hub.
func NewHub(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	return &Hub{cfg: cfg, ring: make([][]byte, cfg.RingFrames)}
}

// HubFor builds a hub sized for one scenario: the expected tick count
// (warm-up + measured duration at the base tick) becomes the ETA budget,
// and a run shorter than the configured ring shrinks the ring to fit —
// full-history replay stays possible while a fleet of short runs doesn't
// pay for empty ring capacity.
func HubFor(sc coolsim.Scenario, base Config) *Hub {
	cfg := base.withDefaults()
	if exp := sc.ExpectedTicks(); exp > 0 {
		cfg.ExpectedFrames = exp
		if exp < cfg.RingFrames {
			cfg.RingFrames = exp
			if cfg.LagFrames > exp {
				cfg.LagFrames = exp
			}
		}
	}
	return NewHub(cfg)
}

// Publish encodes one sample into the next ring slot and wakes the
// subscribers. The encode happens exactly once regardless of the
// subscriber count, into a buffer recycled from the slot being
// overwritten — steady state allocates nothing. Publishing on a closed
// hub is a no-op.
func (h *Hub) Publish(smp *coolsim.Sample) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	i := int(h.seq % uint64(len(h.ring)))
	h.ring[i] = AppendSample(h.ring[i][:0], smp)
	h.advanceLocked(len(h.ring[i]))
	h.mu.Unlock()
}

// PublishFrame appends one pre-encoded frame (a full NDJSON line; a
// missing trailing newline is added). The dispatcher's upstream taps
// relay worker frames through this, keeping the bytes untouched.
func (h *Hub) PublishFrame(frame []byte) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	i := int(h.seq % uint64(len(h.ring)))
	buf := append(h.ring[i][:0], frame...)
	if n := len(buf); n == 0 || buf[n-1] != '\n' {
		buf = append(buf, '\n')
	}
	h.ring[i] = buf
	h.advanceLocked(len(buf))
	h.mu.Unlock()
}

// advanceLocked commits the frame just written to ring[seq%cap]: bump
// the sequence, evict subscribers past the lag budget, wake the rest.
func (h *Hub) advanceLocked(frameLen int) {
	if h.seq == 0 {
		h.started = time.Now()
	}
	h.seq++
	h.bytes += uint64(frameLen)
	for i := len(h.subs) - 1; i >= 0; i-- {
		s := h.subs[i]
		if h.seq-s.next > uint64(h.cfg.LagFrames) {
			h.evictions++
			h.detachLocked(i, ReasonLagged)
			continue
		}
		select {
		case s.ready <- struct{}{}:
		default:
		}
	}
}

// Close seals the hub: no more frames, and every subscriber — current
// and future — drains what the ring holds and then finishes with the
// given reason. Idempotent; only the first reason sticks.
func (h *Hub) Close(reason CloseReason) {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.reason = reason
		h.ended = time.Now()
		for _, s := range h.subs {
			s.wakeForeverLocked()
		}
	}
	h.mu.Unlock()
}

// Closed reports whether Close has been called, and with what reason.
func (h *Hub) Closed() (bool, CloseReason) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed, h.reason
}

// Subscribe attaches a reader starting at frame seq `from` (0 replays
// everything the ring still holds, Latest skips straight to the tail).
// Frames before `from` that have been overwritten make the replay
// impossible: ErrGone. Subscribing to a closed hub is allowed — the
// subscriber drains the ring and finishes with the hub's close reason.
func (h *Hub) Subscribe(from uint64) (*Sub, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if from == Latest || from > h.seq {
		from = h.seq
	}
	if avail := uint64(len(h.ring)); h.seq > avail && from < h.seq-avail {
		return nil, ErrGone
	}
	s := &Sub{h: h, next: from, idx: -1, ready: make(chan struct{}, 1)}
	h.subsTotal++
	if h.closed {
		s.wakeForeverLocked()
		return s, nil
	}
	s.idx = len(h.subs)
	h.subs = append(h.subs, s)
	if len(h.subs) > h.subsPeak {
		h.subsPeak = len(h.subs)
	}
	return s, nil
}

// detachLocked removes subs[i] without allocating and finishes it with
// the reason.
func (h *Hub) detachLocked(i int, reason CloseReason) {
	s := h.subs[i]
	last := len(h.subs) - 1
	h.subs[i] = h.subs[last]
	h.subs[i].idx = i
	h.subs[last] = nil
	h.subs = h.subs[:last]
	s.idx = -1
	s.reason = reason
	s.wakeForeverLocked()
}

// Seq returns the number of frames published so far.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// Stats is one hub's observability snapshot, embedded in the daemons'
// GET /v1/metrics rollup and the per-run status view.
type Stats struct {
	Subscribers      int    `json:"subscribers"`
	PeakSubscribers  int    `json:"peak_subscribers"`
	TotalSubscribers uint64 `json:"total_subscribers"`
	Frames           uint64 `json:"frames"`
	Bytes            uint64 `json:"bytes"`
	Evictions        uint64 `json:"evictions"`
	RingCapacity     int    `json:"ring_capacity"`
	// RingDepth is how many frames the ring currently retains
	// (min(frames, capacity)).
	RingDepth      int     `json:"ring_depth"`
	ExpectedFrames int     `json:"expected_frames,omitempty"`
	TicksPerSec    float64 `json:"ticks_per_sec,omitempty"`
	// EtaSeconds estimates the remaining wall time from the publish rate
	// and the expected frame budget; 0 when unknown or finished.
	EtaSeconds float64 `json:"eta_seconds,omitempty"`
	Closed     bool    `json:"closed,omitempty"`
	Reason     string  `json:"reason,omitempty"`
}

// Stats snapshots the hub.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := Stats{
		Subscribers:      len(h.subs),
		PeakSubscribers:  h.subsPeak,
		TotalSubscribers: h.subsTotal,
		Frames:           h.seq,
		Bytes:            h.bytes,
		Evictions:        h.evictions,
		RingCapacity:     len(h.ring),
		ExpectedFrames:   h.cfg.ExpectedFrames,
		Closed:           h.closed,
		Reason:           h.reason.String(),
	}
	st.RingDepth = int(min(h.seq, uint64(len(h.ring))))
	if h.seq > 0 {
		end := time.Now()
		if h.closed {
			end = h.ended
		}
		if elapsed := end.Sub(h.started).Seconds(); elapsed > 0 {
			st.TicksPerSec = float64(h.seq) / elapsed
			if !h.closed && h.cfg.ExpectedFrames > 0 && uint64(h.cfg.ExpectedFrames) > h.seq {
				st.EtaSeconds = float64(uint64(h.cfg.ExpectedFrames)-h.seq) / st.TicksPerSec
			}
		}
	}
	return st
}

// Totals aggregates hub stats across a daemon's runs for /v1/metrics.
type Totals struct {
	Hubs        int    `json:"hubs"`
	Open        int    `json:"open"`
	Subscribers int    `json:"subscribers"`
	Frames      uint64 `json:"frames"`
	Bytes       uint64 `json:"bytes"`
	Evictions   uint64 `json:"evictions"`
	RingDepth   int    `json:"ring_depth"`
}

// Add folds one hub's stats into the totals.
func (t *Totals) Add(st Stats) {
	t.Hubs++
	if !st.Closed {
		t.Open++
	}
	t.Subscribers += st.Subscribers
	t.Frames += st.Frames
	t.Bytes += st.Bytes
	t.Evictions += st.Evictions
	t.RingDepth += st.RingDepth
}

// Sub is one subscriber's cursor into the hub's ring. Use it from a
// single goroutine: wait on Ready, drain with Next, and Close when the
// client goes away.
type Sub struct {
	h    *Hub
	next uint64 // next frame seq to deliver
	idx  int    // position in h.subs; -1 once detached

	// ready (capacity 1) carries "new frames" wake-ups; it is closed —
	// exactly once, under h.mu — when no further wake-ups can come
	// (eviction, hub close, detach), which parks Ready permanently open.
	ready       chan struct{}
	readyClosed bool

	// reason is set under h.mu when the subscriber is finished
	// individually (evicted, or it drained a closed hub).
	reason CloseReason
}

func (s *Sub) wakeForeverLocked() {
	if !s.readyClosed {
		s.readyClosed = true
		close(s.ready)
	}
}

// Ready returns the wake-up channel: it yields (or is closed) whenever
// new frames may be available or the subscriber is finished. Spurious
// wake-ups are possible; call Next again.
func (s *Sub) Ready() <-chan struct{} { return s.ready }

// MaxChunk bounds how many frame bytes one Next call returns, keeping
// both the caller's buffer and the per-call lock hold time bounded.
const MaxChunk = 64 << 10

// Next appends pending frames to buf — at least one if any is pending,
// at most ~MaxChunk bytes — and returns the extended slice. A nil/empty
// result with done=false means "nothing pending yet": wait on Ready.
// done=true means the subscriber is finished and reason says why
// (ReasonLagged if it was evicted, otherwise the hub's close reason).
// Pass buf[:0] of a reused buffer to keep the copy allocation-free.
func (s *Sub) Next(buf []byte) (chunk []byte, reason CloseReason, done bool) {
	h := s.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if s.reason != reasonOpen {
		return buf, s.reason, true
	}
	n := uint64(len(h.ring))
	for s.next < h.seq {
		f := h.ring[int(s.next%n)]
		if len(buf) > 0 && len(buf)+len(f) > MaxChunk {
			break
		}
		buf = append(buf, f...)
		s.next++
	}
	if len(buf) > 0 {
		return buf, reasonOpen, false
	}
	if h.closed {
		s.reason = h.reason
		if s.idx >= 0 {
			h.detachLocked(s.idx, h.reason)
		}
		return buf, s.reason, true
	}
	return buf, reasonOpen, false
}

// Close detaches the subscriber (client disconnect). Idempotent, never
// allocates, and safe concurrently with Publish.
func (s *Sub) Close() {
	h := s.h
	h.mu.Lock()
	if s.idx >= 0 {
		h.detachLocked(s.idx, ReasonCanceled)
	}
	h.mu.Unlock()
}

// Pos returns the sequence number of the next frame this subscriber
// will deliver (the effective start right after Subscribe).
func (s *Sub) Pos() uint64 {
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	return s.next
}
