package metrics

import (
	"math"
	"testing"
)

func TestWeightedSpeedup(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{1, 1}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ws-0.75) > 1e-12 {
		t.Fatalf("weighted speedup = %v, want 0.75", ws)
	}
}

func TestWeightedSpeedupErrors(t *testing.T) {
	if _, err := WeightedSpeedup([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{0}); err == nil {
		t.Error("zero single-thread IPC accepted")
	}
}

func TestHarmonicIPC(t *testing.T) {
	// Equal speedups of 0.5 each: harmonic mean is 0.5.
	h, err := HarmonicIPC([]float64{1, 2}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-0.5) > 1e-12 {
		t.Fatalf("harmonic = %v, want 0.5", h)
	}
}

func TestHarmonicPenalizesUnfairness(t *testing.T) {
	// Same total speedup, distributed unevenly: harmonic must be lower.
	fair, _ := HarmonicIPC([]float64{1, 1}, []float64{2, 2})
	unfair, _ := HarmonicIPC([]float64{1.8, 0.2}, []float64{2, 2})
	if unfair >= fair {
		t.Fatalf("harmonic did not penalize unfairness: %v >= %v", unfair, fair)
	}
	// Whereas weighted speedup is indifferent.
	a, _ := WeightedSpeedup([]float64{1, 1}, []float64{2, 2})
	b, _ := WeightedSpeedup([]float64{1.8, 0.2}, []float64{2, 2})
	if math.Abs(a-b) > 1e-12 {
		t.Fatal("weighted speedup should not change")
	}
}

func TestHarmonicErrors(t *testing.T) {
	if _, err := HarmonicIPC([]float64{0}, []float64{1}); err == nil {
		t.Error("zero SMT IPC accepted")
	}
	if _, err := HarmonicIPC([]float64{1}, []float64{0}); err == nil {
		t.Error("zero ST IPC accepted")
	}
	if _, err := HarmonicIPC([]float64{1, 1}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEfficiency(t *testing.T) {
	if Efficiency(2, 0.5) != 4 {
		t.Error("efficiency math wrong")
	}
	if Efficiency(2, 0) != 0 {
		t.Error("zero AVF must yield 0, not Inf")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean math wrong")
	}
}

// --- Edge cases: degenerate thread sets and non-finite inputs ---

// TestHarmonicZeroInstructionThread pins the zero-instruction-thread
// contract: a thread that committed nothing has IPC 0, which would put a
// division by zero inside the harmonic sum — the function must refuse it
// rather than return Inf/NaN into a figure.
func TestHarmonicZeroInstructionThread(t *testing.T) {
	if h, err := HarmonicIPC([]float64{1.2, 0}, []float64{2, 2}); err == nil {
		t.Fatalf("zero-IPC thread accepted, harmonic = %v", h)
	}
	// The same thread is fine for weighted speedup (it contributes 0).
	ws, err := WeightedSpeedup([]float64{1.2, 0}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ws-0.6) > 1e-12 {
		t.Fatalf("weighted speedup = %v, want 0.6", ws)
	}
}

// TestSingleThreadDegenerate pins the single-thread case: with one
// thread both fairness metrics collapse to the plain relative IPC.
func TestSingleThreadDegenerate(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{1.5}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	h, err := HarmonicIPC([]float64{1.5}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ws-0.75) > 1e-12 || math.Abs(h-0.75) > 1e-12 {
		t.Fatalf("single thread: weighted %v, harmonic %v, want 0.75 both", ws, h)
	}
}

// TestEmptyThreadSets pins the zero-thread case: an empty weighted
// speedup is 0 (an empty sum), and an empty harmonic is 0/0 — it must
// not come back NaN.
func TestEmptyThreadSets(t *testing.T) {
	ws, err := WeightedSpeedup(nil, nil)
	if err != nil || ws != 0 {
		t.Fatalf("empty weighted speedup = %v, %v", ws, err)
	}
	h, err := HarmonicIPC(nil, nil)
	if err == nil && math.IsNaN(h) {
		t.Fatalf("empty harmonic IPC returned NaN")
	}
}

// TestEfficiencyNonFinite pins the NaN/Inf guards on the IPC/AVF
// ratios: a negative or NaN AVF must not produce a plottable-looking
// garbage bar.
func TestEfficiencyNonFinite(t *testing.T) {
	if got := Efficiency(2, -0.1); got != 0 {
		t.Errorf("negative AVF: efficiency = %v, want 0", got)
	}
	if got := Efficiency(2, math.NaN()); got != 0 {
		t.Errorf("NaN AVF: efficiency = %v, want 0", got)
	}
	if got := Efficiency(math.Inf(1), 0); got != 0 {
		t.Errorf("Inf perf at zero AVF: efficiency = %v, want 0", got)
	}
}
