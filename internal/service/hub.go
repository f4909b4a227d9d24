package service

import (
	"sync"
	"time"

	"verifas/internal/core"
	"verifas/internal/obs"
)

// StreamEvent is one record of a job's event stream: the core observer
// events in the obs.Event JSONL envelope (phase brackets, progress
// snapshots, portfolio engine-start/engine-done records, the verdict),
// plus service-level terminal records.
//
// Service-level Type values extend the obs set:
//   - "error":    the engine failed; Error carries the message.
//   - "canceled": the job was canceled (client cancel or server drain).
//
// A stream always ends with exactly one terminal record: a "verdict"
// (for completed runs and cache hits), an "error", or a "canceled".
type StreamEvent struct {
	obs.Event
	// Error is the failure message of a terminal "error" record.
	Error string `json:"error,omitempty"`
	// Cached marks the synthesized verdict record of a cache hit.
	Cached bool `json:"cached,omitempty"`
}

// Service-level stream event types.
const (
	EventError    = "error"
	EventCanceled = "canceled"
)

// hub buffers one execution's event stream and fans it out to any number
// of late or live subscribers: a subscriber replays the buffer from any
// index and then blocks for more until the stream closes. It implements
// core.Observer on the producing side; the engine's calls arrive
// sequentially (the Observer contract), while subscribers read
// concurrently.
type hub struct {
	run   string
	start time.Time

	mu     sync.Mutex
	events []StreamEvent
	closed bool
	// ping is closed and replaced whenever events grows or the stream
	// closes, waking blocked subscribers.
	ping chan struct{}
}

func newHub(run string) *hub {
	return &hub{
		run:   run,
		start: time.Now(),
		ping:  make(chan struct{}),
	}
}

// append publishes one event. No-op after close (a canceled run's engine
// may still emit a final snapshot while unwinding).
func (h *hub) append(ev StreamEvent) {
	ev.Run = h.run
	ev.TimeMS = time.Since(h.start).Milliseconds()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.events = append(h.events, ev)
	close(h.ping)
	h.ping = make(chan struct{})
}

// close seals the stream. Idempotent.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	close(h.ping)
}

// snapshot returns the events from index i onward, whether the stream is
// closed, and a channel that is closed on the next append/close. A
// subscriber loops: drain, then wait on the channel.
func (h *hub) snapshot(i int) (evs []StreamEvent, closed bool, wake <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < len(h.events) {
		evs = h.events[i:]
	}
	return evs, h.closed, h.ping
}

// ---------------------------------------------------------------------------
// Producer side: core.Observer.

func (h *hub) PhaseStart(p core.Phase) {
	h.append(StreamEvent{Event: obs.Event{Type: obs.EventPhaseStart, Phase: p}})
}

func (h *hub) PhaseEnd(p core.Phase, ps core.PhaseStats) {
	h.append(StreamEvent{Event: obs.Event{Type: obs.EventPhaseEnd, Phase: p, PhaseStats: &ps}})
}

func (h *hub) Progress(e core.ProgressEvent) {
	h.append(StreamEvent{Event: obs.Event{Type: obs.EventProgress, Phase: e.Phase, Progress: &e}})
}

func (h *hub) Verdict(e core.VerdictEvent) {
	h.append(StreamEvent{Event: obs.Event{Type: obs.EventVerdict, Verdict: &e}})
}

// EngineStart publishes a portfolio contender's launch (the
// core.PortfolioObserver extension; only portfolio runs emit these).
func (h *hub) EngineStart(engine string) {
	h.append(StreamEvent{Event: obs.Event{Type: obs.EventEngineStart, Engine: &core.EngineOutcome{Engine: engine}}})
}

// EngineDone publishes a portfolio contender's outcome.
func (h *hub) EngineDone(o core.EngineOutcome) {
	h.append(StreamEvent{Event: obs.Event{Type: obs.EventEngineDone, Engine: &o}})
}

// terminalError appends the terminal "error" record and seals the stream.
func (h *hub) terminalError(msg string) {
	h.append(StreamEvent{Event: obs.Event{Type: EventError}, Error: msg})
	h.close()
}

// terminalCanceled appends the terminal "canceled" record and seals the
// stream.
func (h *hub) terminalCanceled() {
	h.append(StreamEvent{Event: obs.Event{Type: EventCanceled}})
	h.close()
}

// cachedStream synthesizes the one-record stream of a cache hit: the
// stored verdict, flagged Cached.
func cachedStream(run string, res *core.Result) []StreamEvent {
	ev := core.VerdictEvent{Verdict: res.Verdict, Stats: res.Stats}
	if res.Violation != nil {
		ev.ViolationKind = res.Violation.Kind
	}
	return []StreamEvent{{
		Event:  obs.Event{Type: obs.EventVerdict, Run: run, Verdict: &ev},
		Cached: true,
	}}
}
