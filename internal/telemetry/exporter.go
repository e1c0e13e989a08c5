package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"smtavf/internal/avf"
	"smtavf/internal/cpistack"
	"smtavf/internal/jsonlio"
)

// Exporter receives each completed window. Exporters are driven from the
// simulator's goroutine, one window at a time; they need no internal
// locking unless they are also read concurrently (the Ring is).
type Exporter interface {
	Export(w Window) error
	// Close flushes buffered output and releases the destination.
	Close() error
}

// Create opens a file exporter for path, picking the format from the
// extension: ".csv" writes CSV, ".json" Chrome trace_event counters,
// everything else JSONL (one JSON object per window per line). A ".gz"
// suffix (".jsonl.gz", ".csv.gz") gzip-compresses the stream — long
// sweeps and flight recordings are large.
func Create(path string) (Exporter, error) {
	w, err := jsonlio.OpenWriter(path)
	if err != nil {
		return nil, err
	}
	switch name := strings.TrimSuffix(strings.ToLower(path), ".gz"); {
	case strings.HasSuffix(name, ".csv"):
		return NewCSV(w), nil
	case strings.HasSuffix(name, ".json"):
		return NewChrome(w), nil
	}
	return NewJSONL(w), nil
}

// JSONL writes one JSON object per window per line — the schema of
// docs/telemetry.md, ready for jq or any log pipeline.
type JSONL struct {
	enc *json.Encoder
	c   io.Closer
}

// NewJSONL builds a JSONL exporter on w; if w is also an io.Closer it is
// closed by Close.
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{enc: json.NewEncoder(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Export writes the window as one JSON line.
func (j *JSONL) Export(w Window) error { return j.enc.Encode(w) }

// Close closes the underlying writer, if it is closable.
func (j *JSONL) Close() error {
	if j.c == nil {
		return nil
	}
	return j.c.Close()
}

// CSV writes one row per window with a fixed header: scalar columns, then
// <struct>_avf and cum_<struct>_avf for every instrumented structure in
// presentation order. When the first window carries a CPI stack, the
// header goes on with t<tid>.<component> cycles for every thread and
// <struct>.<fate> bit-cycles for every occupancy-tracked structure.
type CSV struct {
	w       *csv.Writer
	c       io.Closer
	structs []string
	threads int // stack columns per component; 0 without the observer
	wroteHd bool
}

// NewCSV builds a CSV exporter on w; if w is also an io.Closer it is
// closed by Close.
func NewCSV(w io.Writer) *CSV {
	e := &CSV{w: csv.NewWriter(w), structs: StructNames()}
	if c, ok := w.(io.Closer); ok {
		e.c = c
	}
	return e
}

// Export writes the window as one CSV row (emitting the header first).
func (e *CSV) Export(w Window) error {
	if !e.wroteHd {
		hd := []string{
			"v", "window", "warmup", "final", "start_cycle", "end_cycle",
			"committed", "ipc", "fetched", "wrong_path_fetch",
			"mispredicts", "flushes", "squashed_uops", "dispatch_stalls",
		}
		for _, s := range e.structs {
			hd = append(hd, strings.ToLower(s)+"_avf")
		}
		for _, s := range e.structs {
			hd = append(hd, "cum_"+strings.ToLower(s)+"_avf")
		}
		e.threads = stackThreads(w)
		for tid := 0; tid < e.threads; tid++ {
			for _, c := range cpistack.Components() {
				hd = append(hd, fmt.Sprintf("t%d.%s", tid, c))
			}
		}
		if e.threads > 0 {
			for _, s := range cpistack.OccupancyStructs() {
				for _, f := range avf.Fates() {
					hd = append(hd, s.String()+"."+f.String())
				}
			}
		}
		if err := e.w.Write(hd); err != nil {
			return err
		}
		e.wroteHd = true
	}
	row := []string{
		strconv.Itoa(w.V),
		strconv.Itoa(w.Index),
		strconv.FormatBool(w.Warmup),
		strconv.FormatBool(w.Final),
		strconv.FormatUint(w.StartCycle, 10),
		strconv.FormatUint(w.EndCycle, 10),
		strconv.FormatUint(w.Committed, 10),
		formatFloat(w.IPC),
		strconv.FormatUint(w.Fetched, 10),
		strconv.FormatUint(w.WrongPathFetch, 10),
		strconv.FormatUint(w.Mispredicts, 10),
		strconv.FormatUint(w.Flushes, 10),
		strconv.FormatUint(w.SquashedUops, 10),
		strconv.FormatUint(w.DispatchStalls, 10),
	}
	for _, s := range e.structs {
		row = append(row, formatFloat(w.AVF[s]))
	}
	for _, s := range e.structs {
		row = append(row, formatFloat(w.CumAVF[s]))
	}
	for tid := 0; tid < e.threads; tid++ {
		for _, c := range cpistack.Components() {
			var v uint64
			if col := w.Stack[c.String()]; tid < len(col) {
				v = col[tid]
			}
			row = append(row, strconv.FormatUint(v, 10))
		}
	}
	if e.threads > 0 {
		for _, s := range cpistack.OccupancyStructs() {
			for _, f := range avf.Fates() {
				row = append(row, strconv.FormatUint(w.Fates[s.String()][f.String()], 10))
			}
		}
	}
	return e.w.Write(row)
}

// Close flushes the CSV writer and closes the destination.
func (e *CSV) Close() error {
	e.w.Flush()
	err := e.w.Error()
	if e.c != nil {
		if cerr := e.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// stackThreads returns the thread count of w's CPI stack (0: no stack).
func stackThreads(w Window) int {
	return len(w.Stack[cpistack.CompBase.String()])
}

// Chrome writes the series as Chrome trace_event counter ("C") tracks,
// loadable by chrome://tracing and Perfetto: one "avf" track whose series
// are the window's per-structure AVFs, and, when the windows carry a CPI
// stack, one "cpi/t<tid>" track per thread whose series are its stack
// components (stacked by the viewer, so the track is the thread's CPI
// stack over time) and one "occupancy/<struct>" track per
// occupancy-tracked structure whose series are its fate bit-cycles. Each
// window's counters sit at its start cycle; one simulated cycle maps to
// one microsecond, as in the pipetrace exporter, so the two traces of one
// run line up.
type Chrome struct {
	tw      *jsonlio.TraceWriter
	c       io.Closer
	threads int
	started bool
}

// NewChrome builds a Chrome trace exporter on w; if w is also an
// io.Closer it is closed by Close.
func NewChrome(w io.Writer) *Chrome {
	e := &Chrome{tw: jsonlio.NewTraceWriter(w)}
	if c, ok := w.(io.Closer); ok {
		e.c = c
	}
	return e
}

// Export writes the window's counter events (naming the thread tracks
// first).
func (e *Chrome) Export(w Window) error {
	if !e.started {
		e.started = true
		e.threads = stackThreads(w)
		for tid := 0; tid < e.threads; tid++ {
			if err := e.tw.Emit(jsonlio.TraceEvent{
				Name: "process_name", Ph: "M", Pid: tid,
				Args: map[string]string{"name": fmt.Sprintf("hw thread %d", tid)},
			}); err != nil {
				return err
			}
		}
	}
	ts := w.StartCycle
	if err := e.tw.Emit(jsonlio.TraceEvent{Name: "avf", Cat: "avf", Ph: "C", Ts: ts, Args: w.AVF}); err != nil {
		return err
	}
	for tid := 0; tid < e.threads; tid++ {
		args := make(map[string]uint64, cpistack.NumComponents)
		for c, col := range w.Stack {
			if tid < len(col) {
				args[c] = col[tid]
			}
		}
		if err := e.tw.Emit(jsonlio.TraceEvent{
			Name: fmt.Sprintf("cpi/t%d", tid), Cat: "cpistack", Ph: "C", Ts: ts, Pid: tid, Args: args,
		}); err != nil {
			return err
		}
	}
	if e.threads > 0 {
		for _, s := range cpistack.OccupancyStructs() {
			if err := e.tw.Emit(jsonlio.TraceEvent{
				Name: "occupancy/" + s.String(), Cat: "occupancy", Ph: "C", Ts: ts, Args: w.Fates[s.String()],
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close ends the trace and closes the destination.
func (e *Chrome) Close() error {
	err := e.tw.Finish()
	if e.c != nil {
		if cerr := e.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Ring is a fixed-capacity in-memory window buffer retaining the most
// recent windows — the zero-dependency exporter behind the /telemetry
// endpoint and the examples. It is safe for concurrent push and read.
type Ring struct {
	mu   sync.Mutex
	buf  []Window
	next int
	full bool
}

// NewRing builds a ring retaining up to n windows (n must be positive).
func NewRing(n int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("telemetry: ring size must be positive, got %d", n))
	}
	return &Ring{buf: make([]Window, n)}
}

// Export implements Exporter.
func (r *Ring) Export(w Window) error {
	r.push(w)
	return nil
}

// Close implements Exporter; a ring has nothing to release.
func (r *Ring) Close() error { return nil }

func (r *Ring) push(w Window) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = w
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of retained windows.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Windows returns the retained windows, oldest first.
func (r *Ring) Windows() []Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Window(nil), r.buf[:r.next]...)
	}
	out := make([]Window, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
