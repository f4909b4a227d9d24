package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"verifas/internal/core"
)

// Event is the JSONL envelope of one trace record. Exactly one of the
// payload pointers is set, matching Type.
type Event struct {
	// Type is "phase-start", "phase-end", "progress" or "verdict".
	Type string `json:"type"`
	// Run identifies the verification the event belongs to (the id passed
	// to TraceWriter.Run), letting interleaved concurrent runs be
	// demultiplexed from one file.
	Run string `json:"run,omitempty"`
	// TimeMS is milliseconds since the TraceWriter was created.
	TimeMS int64 `json:"t_ms"`

	Phase      core.Phase          `json:"phase,omitempty"`
	PhaseStats *core.PhaseStats    `json:"phase_stats,omitempty"`
	Progress   *core.ProgressEvent `json:"progress,omitempty"`
	Verdict    *core.VerdictEvent  `json:"verdict,omitempty"`
}

// Event type names.
const (
	EventPhaseStart = "phase-start"
	EventPhaseEnd   = "phase-end"
	EventProgress   = "progress"
	EventVerdict    = "verdict"
)

// TraceWriter serializes the event streams of any number of concurrent
// verifications to one writer as JSON Lines, one Event per line. Writes
// are mutex-serialized; the first write error is sticky (later events are
// dropped) and reported by Err.
type TraceWriter struct {
	mu    sync.Mutex
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewTraceWriter starts a trace on w. The caller owns w (and closes it
// after the last run's events are in).
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w), start: time.Now()}
}

// Run returns the observer for one verification; id tags its events.
func (t *TraceWriter) Run(id string) core.Observer {
	return &traceRun{w: t, id: id}
}

// Err returns the first write or encode error, if any.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *TraceWriter) emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	ev.TimeMS = time.Since(t.start).Milliseconds()
	t.err = t.enc.Encode(ev)
}

type traceRun struct {
	w  *TraceWriter
	id string
}

func (r *traceRun) PhaseStart(p core.Phase) {
	r.w.emit(Event{Type: EventPhaseStart, Run: r.id, Phase: p})
}

func (r *traceRun) PhaseEnd(p core.Phase, ps core.PhaseStats) {
	r.w.emit(Event{Type: EventPhaseEnd, Run: r.id, Phase: p, PhaseStats: &ps})
}

func (r *traceRun) Progress(e core.ProgressEvent) {
	r.w.emit(Event{Type: EventProgress, Run: r.id, Phase: e.Phase, Progress: &e})
}

func (r *traceRun) Verdict(e core.VerdictEvent) {
	r.w.emit(Event{Type: EventVerdict, Run: r.id, Verdict: &e})
}

// ReadTrace parses a JSONL trace back into events, for tooling and tests.
func ReadTrace(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return out, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}
