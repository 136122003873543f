package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanLog records one span around each call the driver makes into the
// program. Spans nest by time: a span opened while another is open is its
// child. They are kept in memory and written once, as Chrome trace-event
// JSON, which chrome://tracing and Perfetto load as they are.
type spanLog struct {
	origin time.Time
	events []traceEvent
}

type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TsUs float64 `json:"ts"`
	DuUs float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

type span struct {
	log   *spanLog
	name  string
	start time.Time
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(name string) span {
	return span{log: l, name: name, start: time.Now()}
}

// end closes the span and returns its duration in seconds.
func (s span) end() float64 {
	d := time.Since(s.start)
	s.log.events = append(s.log.events, traceEvent{
		Name: s.name,
		Ph:   "X",
		TsUs: float64(s.start.Sub(s.log.origin).Nanoseconds()) / 1e3,
		DuUs: float64(d.Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  1,
	})
	return d.Seconds()
}

// write saves the spans as a Chrome trace-event file.
func (l *spanLog) write(path string) error {
	js, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{l.events, "ms"})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, js, 0o644)
}
