package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
)

func window(i int) Window {
	w := Window{
		Index:      i,
		StartCycle: uint64(i) * 10_000,
		EndCycle:   uint64(i+1) * 10_000,
		Committed:  uint64(1000 * (i + 1)),
		IPC:        float64(i) + 0.5,
		AVF:        map[string]float64{},
		CumAVF:     map[string]float64{},
	}
	for _, s := range StructNames() {
		w.AVF[s] = 0.01 * float64(i+1)
		w.CumAVF[s] = 0.02 * float64(i+1)
	}
	return w
}

func TestNilCollectorIsDisabled(t *testing.T) {
	var c *Collector
	// None of these may panic.
	c.Record(window(0))
	c.Rebase(5)
	if c.WindowCycles() != DefaultWindowCycles {
		t.Fatalf("nil collector window = %d", c.WindowCycles())
	}
	if ws := c.Ring(); ws != nil {
		t.Fatalf("nil collector ring = %v", ws)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("nil collector close: %v", err)
	}
}

func TestCollectorRecordAndSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{WindowCycles: 10_000, Registry: reg})
	const n = ringSize + 2
	var committed, flushes uint64
	for i := 0; i < n; i++ {
		w := window(i)
		w.Flushes = uint64(i)
		committed += w.Committed
		flushes += w.Flushes
		c.Record(w)
	}
	if got := c.Windows(); got != n {
		t.Fatalf("windows = %d, want %d", got, n)
	}
	// The ring keeps only the last ringSize.
	ring := c.Ring()
	if len(ring) != ringSize {
		t.Fatalf("ring len = %d, want %d", len(ring), ringSize)
	}
	if ring[0].Index != 2 || ring[ringSize-1].Index != n-1 {
		t.Fatalf("ring order wrong: first=%d last=%d", ring[0].Index, ring[ringSize-1].Index)
	}
	last, ok := c.Last()
	if !ok || last.Index != n-1 {
		t.Fatalf("last = %+v ok=%v", last, ok)
	}
	s := c.Snapshot()
	if s.Windows != n || s.Cycle != n*10_000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// The sim.* metrics advance from the recorded windows (registering a
	// name again returns the live instrument).
	if got := reg.Counter("sim.committed", "").Value(); got != committed {
		t.Fatalf("sim.committed = %d, want %d", got, committed)
	}
	if got := reg.Counter("sim.flushes", "").Value(); got != flushes {
		t.Fatalf("sim.flushes = %d, want %d", got, flushes)
	}
	if got := reg.Gauge("sim.cycle", "").Value(); got != float64(last.EndCycle) {
		t.Fatalf("sim.cycle = %v, want %d", got, last.EndCycle)
	}
	if s.CumAVF[avf.IQ.String()] != last.CumAVF[avf.IQ.String()] {
		t.Fatalf("snapshot cum AVF mismatch")
	}
}

func TestJSONLExporterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewJSONL(&buf)
	for i := 0; i < 3; i++ {
		if err := e.Export(window(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var w Window
	if err := json.Unmarshal([]byte(lines[2]), &w); err != nil {
		t.Fatal(err)
	}
	if w.Index != 2 || w.EndCycle != 30_000 {
		t.Fatalf("decoded window = %+v", w)
	}
	if w.AVF[avf.ROB.String()] != 0.03 {
		t.Fatalf("decoded ROB AVF = %v", w.AVF[avf.ROB.String()])
	}
}

func TestCSVExporterShape(t *testing.T) {
	var buf bytes.Buffer
	e := NewCSV(&buf)
	for i := 0; i < 2; i++ {
		if err := e.Export(window(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + 2 windows
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	wantCols := 14 + 2*len(StructNames())
	for i, row := range rows {
		if len(row) != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), wantCols)
		}
	}
	if rows[0][0] != "v" || rows[0][1] != "window" || !strings.HasSuffix(rows[0][14], "_avf") {
		t.Fatalf("header = %v", rows[0][:15])
	}
}

type failingExporter struct{}

func (failingExporter) Export(Window) error { return fmt.Errorf("disk full") }
func (failingExporter) Close() error        { return nil }

func TestExporterErrorIsStickyNotFatal(t *testing.T) {
	c := New(Options{})
	c.AddExporter(failingExporter{})
	c.Record(window(0))
	c.Record(window(1)) // must not panic or stop
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Close(); err == nil {
		t.Fatal("close lost the sticky error")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		if err := r.Export(window(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	ws := r.Windows()
	for i, w := range ws {
		if w.Index != i+2 {
			t.Fatalf("ws[%d].Index = %d, want %d", i, w.Index, i+2)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "WARN": "WARN", "error": "ERROR",
	} {
		lv, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lv.String() != want {
			t.Fatalf("ParseLevel(%q) = %v", in, lv)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

func TestLoggerLevels(t *testing.T) {
	warn, err := ParseLevel("warn")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	lg := NewLogger(&buf, warn, false)
	lg.Info("hidden")
	lg.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Fatalf("log output = %q", out)
	}

	buf.Reset()
	info, err := ParseLevel("info")
	if err != nil {
		t.Fatal(err)
	}
	jl := NewLogger(&buf, info, true)
	jl.Info("m", "cycle", 7)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("JSON handler emitted non-JSON: %v", err)
	}
	if rec["cycle"] != float64(7) {
		t.Fatalf("record = %v", rec)
	}
}
