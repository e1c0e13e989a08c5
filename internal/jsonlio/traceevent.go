package jsonlio

import (
	"bufio"
	"encoding/json"
	"io"
)

// TraceEvent is one Chrome trace_event object, loadable by chrome://tracing
// and Perfetto. Field order is the JSON output order (encoding/json emits
// struct fields in declaration order), which the pipetrace goldens pin.
type TraceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   uint64  `json:"ts"`
	Dur  *uint64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// TraceWriter streams one trace_event JSON object: the header when it is
// built, one array element per Emit, and the trailer at Finish. The
// pipetrace flight recorder and the telemetry counter exporter both write
// through it, so their traces merge cleanly in a viewer.
type TraceWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewTraceWriter starts a trace on w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n")
	return &TraceWriter{bw: bw, first: true}
}

// Emit appends one event.
func (t *TraceWriter) Emit(e TraceEvent) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if !t.first {
		t.bw.WriteString(",\n")
	}
	t.first = false
	_, err = t.bw.Write(data)
	return err
}

// Finish writes the trailer and flushes; it leaves w open.
func (t *TraceWriter) Finish() error {
	t.bw.WriteString("\n]}\n")
	return t.bw.Flush()
}
