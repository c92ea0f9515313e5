package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, kept in memory until the run ends.
type span struct {
	id, parent int
	name       string
	start, end time.Time
}

// tracer records spans around the benchmark's calls into each layer. Every
// traced call happens on the training goroutine, so a stack of open spans
// gives each new span its parent. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices into spans
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].id
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: time.Now()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].end = time.Now()
	t.open = t.open[:n-1]
}

// traceEvent is one Chrome trace-event "complete" event (ph "X"), the
// format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	evs := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, traceEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
