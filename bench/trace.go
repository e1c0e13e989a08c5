package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Trace (workload/rep/op, or the campaign ID of a service point);
// Parent is 0 for a request's root. Start and End are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(parent int64, trace, layer, name string) int64 {
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start})
	return id
}

func (t *tracer) end(id int64) {
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// dur returns a closed span's duration.
func (t *tracer) dur(id int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id-1].dur())
}

// do runs fn inside a span, handing it the span's ID for children, and
// returns the span's duration.
func (t *tracer) do(parent int64, trace, layer, name string, fn func(id int64) error) (time.Duration, error) {
	id := t.begin(parent, trace, layer, name)
	err := fn(id)
	t.end(id)
	return t.dur(id), err
}

// timed runs a call that cannot fail inside a leaf span and returns the
// span's duration.
func (t *tracer) timed(parent int64, trace, layer, name string, fn func()) time.Duration {
	d, _ := t.do(parent, trace, layer, name, func(int64) error { fn(); return nil })
	return d
}

// add records a span timed elsewhere, such as a ledger manifest's
// execution window.
func (t *tracer) add(parent int64, trace, layer, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed like spans. Overlapping children (a worker
// pool) are merged first, so self time is never negative.
func selfTimes(spans []span) []int64 {
	pos := make(map[int64]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for id, i := range pos {
		p := spans[i]
		self[i] = p.dur() - covered(kids[id], p.Start, p.End)
	}
	return self
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s <= curE:
			curE = max(curE, e)
		default:
			total += curE - curS
			curS, curE = s, e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Layer] += float64(self[i]) / 1e9
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, microseconds). Each request gets its own process row; within
// it, spans that overlap without nesting go to separate thread rows so
// the viewer draws a worker pool side by side.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	ordered := append([]span(nil), spans...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Start < ordered[b].Start })
	pids := map[string]int{}
	lanes := map[string][][]span{} // per trace: stacks of open spans
	var events []event
	for _, s := range ordered {
		if _, ok := pids[s.Trace]; !ok {
			pids[s.Trace] = len(pids) + 1
		}
		tid := placeLane(lanes, s)
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: pids[s.Trace], Tid: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		})
	}
	for trace, pid := range pids {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": trace}})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// placeLane puts s on the first lane of its trace where it nests inside
// the innermost open span, or where no span is open.
func placeLane(lanes map[string][][]span, s span) int {
	ls := lanes[s.Trace]
	for i := range ls {
		st := ls[i]
		for len(st) > 0 && st[len(st)-1].End <= s.Start {
			st = st[:len(st)-1]
		}
		if len(st) == 0 || st[len(st)-1].End >= s.End {
			ls[i] = append(st, s)
			lanes[s.Trace] = ls
			return i + 1
		}
		ls[i] = st
	}
	lanes[s.Trace] = append(ls, []span{s})
	return len(ls) + 1
}

// layerOf names the layer of a dotted metric ("inject.strikes_s" →
// "inject").
func layerOf(metric string) string {
	l, _, _ := strings.Cut(metric, ".")
	return l
}
