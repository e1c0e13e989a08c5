package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"smtavf/internal/avf"
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
	// None of these may panic, and the registry hands out nil metrics
	// whose methods are no-ops.
	c.Record(window(0))
	c.Rebase(5)
	ctr := c.Counter("commits")
	ctr.Inc()
	ctr.Add(41)
	if got := ctr.Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	g := c.Gauge("ipc")
	g.Set(3.5)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge value = %v, want 0", got)
	}
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
	c := New(Options{WindowCycles: 10_000, RingSize: 4})
	c.Counter("sim.committed").Add(7)
	c.Gauge("sim.cycle").SetUint(42)
	for i := 0; i < 6; i++ {
		c.Record(window(i))
	}
	if got := c.Windows(); got != 6 {
		t.Fatalf("windows = %d, want 6", got)
	}
	// The ring keeps only the last 4.
	ring := c.Ring()
	if len(ring) != 4 {
		t.Fatalf("ring len = %d, want 4", len(ring))
	}
	if ring[0].Index != 2 || ring[3].Index != 5 {
		t.Fatalf("ring order wrong: first=%d last=%d", ring[0].Index, ring[3].Index)
	}
	last, ok := c.Last()
	if !ok || last.Index != 5 {
		t.Fatalf("last = %+v ok=%v", last, ok)
	}
	s := c.Snapshot()
	if s.Windows != 6 || s.Cycle != 60_000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Counters["sim.committed"] != 7 {
		t.Fatalf("snapshot counter = %v", s.Counters)
	}
	if s.Gauges["sim.cycle"] != 42 {
		t.Fatalf("snapshot gauge = %v", s.Gauges)
	}
	if s.CumAVF[avf.IQ.String()] != last.CumAVF[avf.IQ.String()] {
		t.Fatalf("snapshot cum AVF mismatch")
	}
}

func TestCounterRegistryReturnsSameInstance(t *testing.T) {
	c := New(Options{})
	a := c.Counter("x")
	b := c.Counter("x")
	if a != b {
		t.Fatal("registry returned distinct counters for one name")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter value = %d", b.Value())
	}
	if names := c.CounterNames(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("counter names = %v", names)
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

func TestDebugServerEndpoints(t *testing.T) {
	c := New(Options{WindowCycles: 1000})
	c.Record(window(0))
	d, err := ServeDebug("127.0.0.1:0", c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/telemetry")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Windows != 1 || snap.Cycle != 10_000 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var ring []Window
	if err := json.Unmarshal([]byte(get("/telemetry/ring")), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring) != 1 {
		t.Fatalf("ring = %+v", ring)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Fatal("/debug/pprof/ index missing")
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

func TestConfigHashStable(t *testing.T) {
	type cfg struct{ A, B int }
	h1 := ConfigHash(cfg{1, 2})
	h2 := ConfigHash(cfg{1, 2})
	h3 := ConfigHash(cfg{1, 3})
	if h1 != h2 {
		t.Fatalf("hash unstable: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Fatal("hash ignores content")
	}
	if len(h1) != 12 {
		t.Fatalf("hash length = %d", len(h1))
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
