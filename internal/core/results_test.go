package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"smtavf/internal/avf"
)

// sampleResults builds a hand-crafted Results with round numbers so every
// derived metric has a closed-form expected value.
func sampleResults() *Results {
	rep := avf.Report{Cycles: 1000, Threads: 2}
	rep.PerThread = make([][avf.NumStructs]float64, 2)
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		rep.Total[s] = 0.25
		rep.PerThread[0][s] = 0.15
		rep.PerThread[1][s] = 0.10
	}
	var bits [avf.NumStructs]uint64
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		bits[s] = 1000
	}
	return &Results{
		Threads:   2,
		Policy:    "ICOUNT",
		Cycles:    1000,
		Committed: []uint64{600, 400},
		Total:     1000,
		AVF:       rep,
		Bits:      bits,
		Thread: []ThreadStats{
			{Workload: "mcf", Committed: 600, Branches: 100, Mispredicts: 10,
				DL1Loads: 200, DL1LoadMisses: 50},
			{Workload: "gcc", Committed: 400},
		},
		Machine: MachineStats{DL1MissRate: 0.25},
	}
}

func TestResultsIPC(t *testing.T) {
	r := sampleResults()
	if got := r.IPC(); got != 1.0 {
		t.Errorf("IPC = %v, want 1.0", got)
	}
	if got := r.ThreadIPC(0); got != 0.6 {
		t.Errorf("ThreadIPC(0) = %v, want 0.6", got)
	}
	if got := r.ThreadIPC(1); got != 0.4 {
		t.Errorf("ThreadIPC(1) = %v, want 0.4", got)
	}
	zero := &Results{Committed: []uint64{0}}
	if zero.IPC() != 0 || zero.ThreadIPC(0) != 0 {
		t.Error("zero-cycle Results must report IPC 0, not NaN")
	}
}

func TestThreadStructAVFScalesPrivateStructures(t *testing.T) {
	r := sampleResults()
	// Shared structures report the raw per-thread contribution.
	if got := r.ThreadStructAVF(avf.IQ, 0); got != 0.15 {
		t.Errorf("IQ thread AVF = %v, want 0.15", got)
	}
	// Private structures (per-thread ROB/LSQ copies) scale by thread count
	// so single-thread and SMT runs compare directly.
	for _, s := range []avf.Struct{avf.ROB, avf.LSQData, avf.LSQTag} {
		if got, want := r.ThreadStructAVF(s, 0), 0.15*2; math.Abs(got-want) > 1e-15 {
			t.Errorf("%s thread AVF = %v, want %v", s, got, want)
		}
	}
}

func TestProcessorAVF(t *testing.T) {
	r := sampleResults()
	// Equal bit weights: the bit-weighted mean equals the plain mean.
	if got := r.ProcessorAVF(); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("ProcessorAVF = %v, want 0.25", got)
	}
	// Doubling one structure's capacity shifts the weighted mean toward it.
	r.Bits[avf.IQ] = 11000
	r.AVF.Total[avf.IQ] = 0.45
	got := r.ProcessorAVF()
	want := (0.45*11000 + 0.25*9000) / 20000
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("weighted ProcessorAVF = %v, want %v", got, want)
	}
	var empty Results
	if empty.ProcessorAVF() != 0 {
		t.Error("zero-capacity Results must report ProcessorAVF 0")
	}
}

func TestFIT(t *testing.T) {
	r := sampleResults()
	// FIT = raw × bits/1e6 × AVF = 1000 × 0.001 × 0.25.
	if got := r.FIT(avf.IQ, 1000); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("FIT(IQ) = %v, want 0.25", got)
	}
	want := 0.25 * float64(avf.NumStructs)
	if got := r.TotalFIT(1000); math.Abs(got-want) > 1e-12 {
		t.Errorf("TotalFIT = %v, want %v", got, want)
	}
}

func TestEfficiency(t *testing.T) {
	r := sampleResults()
	if got := r.Efficiency(avf.IQ); got != 4.0 {
		t.Errorf("Efficiency(IQ) = %v, want 4.0", got)
	}
	if got := r.ThreadEfficiency(avf.IQ, 0); got != 0.6/0.15 {
		t.Errorf("ThreadEfficiency(IQ,0) = %v, want 4.0", got)
	}
	r.AVF.Total[avf.FU] = 0
	r.AVF.PerThread[0][avf.FU] = 0
	if r.Efficiency(avf.FU) != 0 || r.ThreadEfficiency(avf.FU, 0) != 0 {
		t.Error("zero-AVF efficiency must be 0, not +Inf")
	}
}

func TestThreadStatsRates(t *testing.T) {
	ts := ThreadStats{Branches: 100, Mispredicts: 10, DL1Loads: 200, DL1LoadMisses: 50}
	if got := ts.MispredictRate(); got != 0.1 {
		t.Errorf("MispredictRate = %v, want 0.1", got)
	}
	if got := ts.DL1LoadMissRate(); got != 0.25 {
		t.Errorf("DL1LoadMissRate = %v, want 0.25", got)
	}
	var empty ThreadStats
	if empty.MispredictRate() != 0 || empty.DL1LoadMissRate() != 0 {
		t.Error("zero-denominator rates must be 0, not NaN")
	}
}

func TestRate(t *testing.T) {
	if got := rate(1, 4); got != 0.25 {
		t.Errorf("rate(1,4) = %v, want 0.25", got)
	}
	if got := rate(1, 0); got != 0 {
		t.Errorf("rate(1,0) = %v, want 0", got)
	}
}

// TestThreadStatsMinus checks the warmup-baseline subtraction covers every
// counter field: each field set to 10 in the snapshot and 3 in the baseline
// must come out as 7. Reflection guards against new fields silently being
// skipped in minus.
func TestThreadStatsMinus(t *testing.T) {
	fill := func(v uint64) ThreadStats {
		var ts ThreadStats
		rv := reflect.ValueOf(&ts).Elem()
		for i := 0; i < rv.NumField(); i++ {
			if rv.Field(i).Kind() == reflect.Uint64 {
				rv.Field(i).SetUint(v)
			}
		}
		return ts
	}
	got := fill(10).minus(fill(3))
	rv := reflect.ValueOf(got)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Uint64 {
			continue
		}
		if f.Uint() != 7 {
			t.Errorf("minus left field %s = %d, want 7 (field not subtracted?)",
				rv.Type().Field(i).Name, f.Uint())
		}
	}
}

func TestResultsString(t *testing.T) {
	r := sampleResults()
	s := r.String()
	for _, want := range []string{
		"policy=ICOUNT threads=2 cycles=1000 instructions=1000 IPC=1.000",
		"thread 0 (mcf): committed=600 IPC=0.600 mispred=10.00% dl1miss=25.00%",
		"thread 1 (gcc): committed=400 IPC=0.400",
		"machine: dl1miss=25.00%",
		"structure AVFs:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	// Every instrumented structure appears with its AVF and efficiency.
	for _, st := range avf.Structs() {
		if !strings.Contains(s, st.String()) {
			t.Errorf("String() missing structure %s", st)
		}
	}
	if n := strings.Count(s, "AVF= 25.00%"); n != avf.NumStructs {
		t.Errorf("String() shows %d structures at 25%% AVF, want %d", n, avf.NumStructs)
	}
}
