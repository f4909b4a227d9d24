package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"verifas/internal/core"
)

// span is one recorded interval at a layer boundary. Start and End are
// nanoseconds since the tracer started; Parent is 0 for a root span. All
// spans of one pass, probe or replay share a TraceID.
type span struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent that ends later.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id.
func (t *tracer) add(traceID, spanID, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		TraceID: traceID, SpanID: spanID, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// record reserves an id and records a finished span in one call.
func (t *tracer) record(traceID, parent uint64, name string, start, end time.Time) {
	t.add(traceID, t.id(), parent, name, start, end)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary aggregates spans by name, with each span's self time.
func (t *tracer) summary() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanSummary{}
	for _, s := range t.spans {
		a := out[s.Name]
		a.Count++
		a.TotalMS += float64(s.End-s.Start) / 1e6
		a.SelfMS += float64(selfTime(s, children[s.SpanID])) / 1e6
		out[s.Name] = a
	}
	return out
}

// selfTime is the span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), s.Start
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			covered += v.hi - lo
			reach = v.hi
		}
	}
	return s.End - s.Start - covered
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// phaseSpans is a core.Observer that records each verifier phase as a span
// under the verification's span. Phases of one run never nest.
type phaseSpans struct {
	t       *tracer
	traceID uint64
	parent  uint64
	start   time.Time
}

func (o *phaseSpans) PhaseStart(core.Phase) { o.start = time.Now() }

func (o *phaseSpans) PhaseEnd(p core.Phase, _ core.PhaseStats) {
	o.t.record(o.traceID, o.parent, string(p), o.start, time.Now())
}

func (o *phaseSpans) Progress(core.ProgressEvent) {}
func (o *phaseSpans) Verdict(core.VerdictEvent)   {}
