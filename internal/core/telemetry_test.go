package core

import (
	"math"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
	"smtavf/internal/telemetry"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

func runWithTelemetry(t *testing.T, reg *obs.Registry, warmup uint64, window uint64, total uint64) (*Results, *telemetry.Collector) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.Warmup = warmup
	proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(telemetry.Options{WindowCycles: window, Registry: reg})
	proc.SetTelemetry(col)
	res, err := proc.Run(Limits{TotalInstructions: total})
	if err != nil {
		t.Fatal(err)
	}
	return res, col
}

func TestTelemetryWindowsMatchFinalReport(t *testing.T) {
	reg := obs.NewRegistry()
	res, col := runWithTelemetry(t, reg, 0, 2_000, 30_000)
	ws := col.Ring()
	if len(ws) < 2 {
		t.Fatalf("got %d windows, want >= 2", len(ws))
	}

	// Windows tile the run: contiguous, monotonically indexed, last one
	// flagged final.
	for i := 1; i < len(ws); i++ {
		if ws[i].StartCycle != ws[i-1].EndCycle {
			t.Fatalf("window %d starts at %d, previous ended at %d",
				i, ws[i].StartCycle, ws[i-1].EndCycle)
		}
		if ws[i].Index != ws[i-1].Index+1 {
			t.Fatalf("window indices not consecutive: %d then %d", ws[i-1].Index, ws[i].Index)
		}
	}
	last := ws[len(ws)-1]
	if !last.Final {
		t.Fatal("last window not flagged final")
	}

	// The committed totals of all windows add up to the run's total.
	var committed uint64
	for _, w := range ws {
		committed += w.Committed
	}
	if committed != res.Total {
		t.Fatalf("windows commit %d instructions, run committed %d", committed, res.Total)
	}

	// Per-structure AVF varies between windows (phase behaviour): at
	// least one structure must differ between the first and some later
	// window.
	varies := false
	for _, s := range avf.Structs() {
		if math.Abs(ws[0].AVF[s.String()]-ws[len(ws)-2].AVF[s.String()]) > 1e-12 {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("per-window AVF identical across windows — sampler not windowing")
	}

	// The final window's cumulative AVF equals the end-of-run report
	// within 1e-9 (acceptance criterion; it is the same computation).
	for _, s := range avf.Structs() {
		got := last.CumAVF[s.String()]
		want := res.AVF.AVF(s)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: final cumulative AVF %.12f, report %.12f", s, got, want)
		}
	}

	// The collector's sim.* metrics on the registry track the run totals
	// (registering a name again returns the live instrument).
	if got := reg.Counter("sim.committed", "").Value(); got != res.Total {
		t.Fatalf("live committed counter = %d, run total = %d", got, res.Total)
	}
	if got := reg.Gauge("sim.cycle", "").Value(); uint64(got) != res.Cycles {
		t.Fatalf("live cycle gauge = %v, run cycles = %d", got, res.Cycles)
	}
}

func TestTelemetryWarmupRebase(t *testing.T) {
	res, col := runWithTelemetry(t, nil, 8_000, 2_000, 20_000)
	ws := col.Ring()
	if len(ws) < 3 {
		t.Fatalf("got %d windows, want >= 3", len(ws))
	}

	// Warmup windows are flagged, measured windows are not, and the two
	// eras never share a window: the flag flips exactly once.
	flips := 0
	for i := 1; i < len(ws); i++ {
		if ws[i].Warmup != ws[i-1].Warmup {
			flips++
			if ws[i].Warmup {
				t.Fatalf("window %d re-enters warmup", i)
			}
			// The boundary window ends exactly where measurement starts.
			if ws[i].StartCycle != ws[i-1].EndCycle {
				t.Fatalf("warmup boundary not aligned: %d vs %d", ws[i].StartCycle, ws[i-1].EndCycle)
			}
		}
	}
	if !ws[0].Warmup {
		t.Fatal("first window not flagged warmup")
	}
	if flips != 1 {
		t.Fatalf("warmup flag flipped %d times, want 1", flips)
	}

	// Measured windows alone reproduce the report.
	last := ws[len(ws)-1]
	for _, s := range avf.Structs() {
		if math.Abs(last.CumAVF[s.String()]-res.AVF.AVF(s)) > 1e-9 {
			t.Fatalf("%s: post-warmup cumulative AVF diverged from report", s)
		}
	}
	// Measured windows commit exactly the measured instruction total.
	var measured uint64
	for _, w := range ws {
		if !w.Warmup {
			measured += w.Committed
		}
	}
	if measured != res.Total {
		t.Fatalf("measured windows commit %d, run measured %d", measured, res.Total)
	}
}

func TestTelemetryDisabledIsInert(t *testing.T) {
	cfg := DefaultConfig(2)
	proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	// No SetTelemetry: the nil registry handles must not panic anywhere
	// on the hot path, and results must be identical to a telemetry run.
	res, err := proc.Run(Limits{TotalInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}

	proc2, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	proc2.SetTelemetry(telemetry.New(telemetry.Options{WindowCycles: 1_000}))
	res2, err := proc2.Run(Limits{TotalInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != res2.Cycles || res.Total != res2.Total {
		t.Fatalf("telemetry changed the simulation: %d/%d vs %d/%d cycles/instructions",
			res.Cycles, res.Total, res2.Cycles, res2.Total)
	}
	for _, s := range avf.Structs() {
		if res.AVF.AVF(s) != res2.AVF.AVF(s) {
			t.Fatalf("telemetry changed %s AVF: %v vs %v", s, res.AVF.AVF(s), res2.AVF.AVF(s))
		}
	}
}

// benchProfiles resolves named workload profiles, failing the test on
// unknown names.
func benchProfiles(t *testing.T, names ...string) []trace.Profile {
	t.Helper()
	out := make([]trace.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.Profile(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}
