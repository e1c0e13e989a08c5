package cpistack

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

// testObserver builds a configured 2-thread observer with a small window.
func testObserver(window uint64) *Observer {
	o := New(Options{WindowCycles: window})
	var caps [avf.NumStructs]uint64
	for _, s := range OccupancyStructs() {
		caps[s] = 1000
	}
	o.Configure(pipeline.DefaultBits(), caps, 2, 0)
	return o
}

// aluSlot fills a fresh ALU slot of pl resident in the IQ over
// [iqStart, iqStart+iqCycles) and in the ROB over
// [robStart, robStart+robCycles).
func aluSlot(pl *pipeline.Pool, iqStart, iqCycles, robStart, robCycles uint64) pipeline.UID {
	u := pl.Alloc()
	pl.Reset(u, &isa.Instruction{Class: isa.IntALU}, 0, 0, 0, false, 0)
	r := &pl.Res[u]
	r.EnterIQ, r.IQCycles = iqStart, iqCycles
	r.EnterROB, r.ROBCycles = robStart, robCycles
	return u
}

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	o.Configure(pipeline.DefaultBits(), [avf.NumStructs]uint64{}, 2, 0)
	o.Tick(0, []Component{CompBase, CompIdle})
	o.Record(nil, 0, 0, false)
	o.Interval(avf.Reg, 0, 64, 0, 10, true)
	o.Rebase(5)
	o.PublishTelemetry(nil)
	if o.CycleCount(0) != 0 || o.Windows() != nil || o.FormatStack() != "" {
		t.Fatal("nil observer accumulated state")
	}
	if err := o.WriteFile("/nonexistent/should-not-be-written"); err != nil {
		t.Fatal("nil observer tried to write")
	}
}

func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Components() {
		n := c.String()
		if n == "" || strings.Contains(n, "component(") {
			t.Fatalf("component %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate component name %q", n)
		}
		seen[n] = true
	}
	if got := Component(NumComponents).String(); got != "component(11)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

// TestSpanSplitsAcrossWindows pins the window arithmetic: an interval
// spanning window boundaries lands in each window pro rata and the window
// sum equals the cumulative total.
func TestSpanSplitsAcrossWindows(t *testing.T) {
	o := testObserver(10)
	// 64 bits resident [5, 25): 5 cycles in window 0, 10 in window 1, 5 in
	// window 2.
	o.Interval(avf.Reg, 0, 64, 5, 25, true)
	o.Tick(29, []Component{CompBase, CompIdle}) // materialize 3 windows
	wins := o.Windows()
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3", len(wins))
	}
	wantPerWin := []uint64{64 * 5, 64 * 10, 64 * 5}
	for i, w := range wins {
		if got := w.Occupancy["Reg"]["committed"]; got != wantPerWin[i] {
			t.Errorf("window %d: Reg committed bit-cycles %d, want %d", i, got, wantPerWin[i])
		}
	}
	if got := o.ACEBitCycles(avf.Reg); got != 64*20 {
		t.Errorf("cumulative ACE bit-cycles %d, want %d", got, 64*20)
	}
	// Un-ACE register residency is dead-value time.
	o.Interval(avf.Reg, 1, 64, 0, 10, false)
	if got := o.FateBitCycles(avf.Reg, avf.FateDead); got != 64*10 {
		t.Errorf("dead bit-cycles %d, want %d", got, 64*10)
	}
	// Non-Reg structures arrive via Record, not the sink: dropped here.
	o.Interval(avf.IQ, 0, 80, 0, 10, true)
	if got := o.ACEBitCycles(avf.IQ); got != 0 {
		t.Errorf("sink IQ interval accepted: %d bit-cycles", got)
	}
}

// TestRecordUsesFateAndClipsAtRebase checks Record's residency split and
// that Rebase drops prior accounting and clips later spans, mirroring the
// tracker.
func TestRecordUsesFateAndClipsAtRebase(t *testing.T) {
	o := testObserver(10)
	pl := pipeline.NewPool(2)
	o.Record(pl, aluSlot(pl, 2, 6, 0, 0), 8, false) // committed fate
	if got := o.ACEBitCycles(avf.IQ); got != 80*6 {
		t.Fatalf("IQ ACE bit-cycles %d, want %d", got, 80*6)
	}
	o.Rebase(10)
	if o.ACEBitCycles(avf.IQ) != 0 || o.CycleCount(0) != 0 {
		t.Fatal("rebase kept prior accounting")
	}
	// An interval straddling the rebase point is clipped to the measured
	// side, exactly like avf.Tracker.AddInterval.
	o.Record(pl, aluSlot(pl, 6, 8, 0, 0), 14, true) // [6, 14) -> [10, 14), squashed fate, un-ACE
	if got := o.FateBitCycles(avf.IQ, avf.FateSquashed); got != 80*4 {
		t.Fatalf("clipped squashed bit-cycles %d, want %d", got, 80*4)
	}
	if got := o.ACEBitCycles(avf.IQ); got != 0 {
		t.Fatalf("squashed uop classified ACE: %d", got)
	}
}

func fillObserver(t *testing.T) *Observer {
	t.Helper()
	o := testObserver(10)
	comps := []Component{CompBase, CompL2Miss}
	for cyc := uint64(0); cyc < 25; cyc++ {
		o.Tick(cyc, comps)
	}
	o.Interval(avf.Reg, 0, 64, 0, 25, true)
	pl := pipeline.NewPool(1)
	o.Record(pl, aluSlot(pl, 3, 12, 3, 14), 17, false)
	return o
}

func TestJSONLRoundTripAndSchema(t *testing.T) {
	o := fillObserver(t)
	path := filepath.Join(t.TempDir(), "cpistack.jsonl")
	if err := o.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wins := o.Windows()
	if len(back) != len(wins) {
		t.Fatalf("round trip lost windows: %d != %d", len(back), len(wins))
	}
	for i := range back {
		if back[i].V != SchemaVersion {
			t.Fatalf("window %d schema v%d, want v%d", i, back[i].V, SchemaVersion)
		}
		if back[i].Stack["base"][0] != wins[i].Stack["base"][0] {
			t.Fatalf("window %d base cycles drifted through the round trip", i)
		}
	}
	// A future schema version must be rejected.
	newer := wins
	newer[0].V = SchemaVersion + 1
	if err := writeRaw(path, newer); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("reader accepted a newer schema version")
	}
}

func writeRaw(path string, wins []Window) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range wins {
		if err := enc.Encode(&wins[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func TestCSVExport(t *testing.T) {
	o := fillObserver(t)
	var buf bytes.Buffer
	if err := o.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+len(o.Windows()) {
		t.Fatalf("%d CSV lines for %d windows", len(lines), len(o.Windows()))
	}
	header := strings.Split(lines[0], ",")
	wantCols := 3 + o.Threads()*NumComponents + len(OccupancyStructs())*int(avf.NumFates)
	if len(header) != wantCols {
		t.Fatalf("%d header columns, want %d", len(header), wantCols)
	}
	for _, ln := range lines[1:] {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Fatalf("row has %d columns, header has %d", got, wantCols)
		}
	}
	if header[3] != "t0.base" || header[len(header)-1] != "Reg.squashed" {
		t.Fatalf("unexpected header shape: first data col %q, last %q", header[3], header[len(header)-1])
	}
}

func TestChromeExport(t *testing.T) {
	o := fillObserver(t)
	var buf bytes.Buffer
	if err := o.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var counters, meta int
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "C":
			counters++
			names[e.Name] = true
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	wantCounters := len(o.Windows()) * (o.Threads() + len(OccupancyStructs()))
	if counters != wantCounters {
		t.Fatalf("%d counter events, want %d", counters, wantCounters)
	}
	for _, n := range []string{"cpi/t0", "cpi/t1", "occupancy/IQ", "occupancy/Reg"} {
		if !names[n] {
			t.Fatalf("missing counter track %q", n)
		}
	}
}

// TestWriteFileDispatch checks the extension-driven format choice.
func TestWriteFileDispatch(t *testing.T) {
	o := fillObserver(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		prefix string // expected first byte(s)
	}{
		{"w.jsonl", `{"v":`},
		{"w.csv", "window,"},
		{"w.json", `{"displayTimeUnit"`},
	} {
		path := filepath.Join(dir, tc.name)
		if err := o.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(tc.prefix)) {
			t.Errorf("%s starts %q, want prefix %q", tc.name, data[:20], tc.prefix)
		}
	}
}
