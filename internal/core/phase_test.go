package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/telemetry"
)

func TestPhaseSampling(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.PhaseInterval = 1_000
	proc, err := New(cfg, profilesFor(t, []string{"bzip2", "twolf"}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.Run(Limits{TotalInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) < 2 {
		t.Fatalf("only %d phases sampled over %d cycles", len(res.Phases), res.Cycles)
	}
	// Phases must cover the run: committed counts sum to the total, cycles
	// are strictly increasing and end at the run's end.
	var committed uint64
	prev := uint64(0)
	for _, ph := range res.Phases {
		if ph.Cycle <= prev {
			t.Fatalf("phase cycles not increasing: %d after %d", ph.Cycle, prev)
		}
		prev = ph.Cycle
		committed += ph.Committed
		for s := avf.Struct(0); s < avf.NumStructs; s++ {
			if ph.AVF[s] < 0 {
				t.Fatalf("negative phase AVF for %v", s)
			}
		}
	}
	if committed != res.Total {
		t.Fatalf("phase commits sum to %d, run total %d", committed, res.Total)
	}
	if res.Phases[len(res.Phases)-1].Cycle != res.Cycles {
		t.Fatalf("last phase ends at %d, run at %d", res.Phases[len(res.Phases)-1].Cycle, res.Cycles)
	}
	// The cycle-weighted mean of phase IPCs must equal the run IPC.
	var ipcw float64
	start := uint64(0)
	for _, ph := range res.Phases {
		ipcw += ph.IPC * float64(ph.Cycle-start)
		start = ph.Cycle
	}
	if got := ipcw / float64(res.Cycles); math.Abs(got-res.IPC()) > 1e-9 {
		t.Fatalf("phase-weighted IPC %v vs run IPC %v", got, res.IPC())
	}

	// The phases are the measured telemetry windows: these digests of the
	// whole Results JSON were taken when phases had a sampler of their
	// own, and hold with or without a collector on the same window.
	for _, tc := range []struct {
		benches  []string
		warmup   uint64
		interval uint64
		col      bool
		digest   string
	}{
		{[]string{"gcc", "mcf"}, 0, 1_000, false, "46dad2a981a65ff19e2b623009a48e5dd16399328d2d23caa853f74baa6cb01d"},
		{[]string{"gcc", "mcf"}, 5_000, 1_000, false, "c0c7fd9d5490b47deacffd0eeb1a2eb3ebcf405169b89442e58725e81557fc6c"},
		{[]string{"mcf", "equake", "vpr", "swim"}, 4_000, 2_500, false, "3c38db0a4adfba6f3ede292c36234124acf9ebce49066c0545c44f54c0ac4580"},
		{[]string{"mcf", "equake", "vpr", "swim"}, 4_000, 2_500, true, "3c38db0a4adfba6f3ede292c36234124acf9ebce49066c0545c44f54c0ac4580"},
	} {
		name := fmt.Sprintf("%s/warmup=%d/interval=%d/collector=%v", strings.Join(tc.benches, ","), tc.warmup, tc.interval, tc.col)
		cfg := DefaultConfig(len(tc.benches))
		cfg.Warmup = tc.warmup
		cfg.PhaseInterval = tc.interval
		proc, err := New(cfg, profilesFor(t, tc.benches))
		if err != nil {
			t.Fatal(err)
		}
		if tc.col {
			proc.SetTelemetry(telemetry.New(telemetry.Options{WindowCycles: tc.interval}))
		}
		res, err := proc.Run(Limits{TotalInstructions: 30_000})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.digest {
			t.Errorf("%s: Results digest %s, want %s", name, got, tc.digest)
		}
	}
}

// TestPhaseIntervalMustMatchTelemetryWindow: one roll feeds the collector
// and the phases, so Run refuses two different periods and names both.
func TestPhaseIntervalMustMatchTelemetryWindow(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PhaseInterval = 1_000
	proc, err := New(cfg, profilesFor(t, []string{"gcc"}))
	if err != nil {
		t.Fatal(err)
	}
	proc.SetTelemetry(telemetry.New(telemetry.Options{WindowCycles: 2_500}))
	_, err = proc.Run(Limits{TotalInstructions: 1_000})
	if err == nil {
		t.Fatal("Run accepted a phase interval unlike the telemetry window")
	}
	for _, v := range []string{"1000", "2500"} {
		if !strings.Contains(err.Error(), v) {
			t.Errorf("error %q does not name %s", err, v)
		}
	}
}

func TestPhaseSamplingDisabledByDefault(t *testing.T) {
	res := runMix(t, []string{"bzip2"}, "ICOUNT", 5_000)
	if len(res.Phases) != 0 {
		t.Fatalf("phases sampled without PhaseInterval: %d", len(res.Phases))
	}
}

func TestProcessorAVFWeighting(t *testing.T) {
	res := runMix(t, []string{"bzip2", "mcf"}, "ICOUNT", 20_000)
	p := res.ProcessorAVF()
	if p <= 0 || p > 1 {
		t.Fatalf("processor AVF %v", p)
	}
	// The whole-processor AVF must lie between the min and max structure
	// AVFs (it is a weighted average).
	lo, hi := 1.0, 0.0
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		v := res.AVF.Total[s]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if p < lo || p > hi {
		t.Fatalf("processor AVF %v outside [%v, %v]", p, lo, hi)
	}
	// The DL1 data array dominates the bit budget, so the processor AVF
	// must sit close to its AVF.
	if math.Abs(p-res.AVF.Total[avf.DL1Data]) > 0.2 {
		t.Errorf("processor AVF %v far from DL1-dominated expectation %v", p, res.AVF.Total[avf.DL1Data])
	}
}

func TestFITScalesLinearly(t *testing.T) {
	res := runMix(t, []string{"bzip2"}, "ICOUNT", 5_000)
	a := res.TotalFIT(1)
	b := res.TotalFIT(10)
	if a <= 0 {
		t.Fatal("zero FIT")
	}
	if math.Abs(b-10*a) > 1e-9*b {
		t.Fatalf("FIT not linear in raw rate: %v vs %v", b, 10*a)
	}
	// Per-structure FIT sums to the total.
	sum := 0.0
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		sum += res.FIT(s, 1)
	}
	if math.Abs(sum-a) > 1e-12 {
		t.Fatalf("per-structure FIT sums to %v, total %v", sum, a)
	}
}
