// Package metrics implements the performance and reliability-efficiency
// metrics of the paper's §3 and §4.3: IPC, weighted speedup and harmonic
// mean IPC (the fairness-aware metrics of Luo et al. and Raasch &
// Reinhardt, used in Figure 8), and the MITF-proportional IPC/AVF ratios.
package metrics

import (
	"fmt"
	"math"
)

// WeightedSpeedup is Σ_i IPC_smt(i) / IPC_st(i): the effective throughput
// of the multithreaded run relative to the same threads run alone.
func WeightedSpeedup(smtIPC, stIPC []float64) (float64, error) {
	if len(smtIPC) != len(stIPC) {
		return 0, fmt.Errorf("metrics: %d SMT IPCs vs %d single-thread IPCs", len(smtIPC), len(stIPC))
	}
	sum := 0.0
	for i := range smtIPC {
		if stIPC[i] <= 0 {
			return 0, fmt.Errorf("metrics: non-positive single-thread IPC for thread %d", i)
		}
		sum += smtIPC[i] / stIPC[i]
	}
	return sum, nil
}

// HarmonicIPC is the harmonic mean of the per-thread weighted IPCs,
// N / Σ_i (IPC_st(i) / IPC_smt(i)) — it rewards both throughput and
// fairness: starving any one thread collapses the mean.
func HarmonicIPC(smtIPC, stIPC []float64) (float64, error) {
	if len(smtIPC) != len(stIPC) {
		return 0, fmt.Errorf("metrics: %d SMT IPCs vs %d single-thread IPCs", len(smtIPC), len(stIPC))
	}
	sum := 0.0
	for i := range smtIPC {
		if smtIPC[i] <= 0 {
			return 0, fmt.Errorf("metrics: non-positive SMT IPC for thread %d", i)
		}
		if stIPC[i] <= 0 {
			return 0, fmt.Errorf("metrics: non-positive single-thread IPC for thread %d", i)
		}
		sum += stIPC[i] / smtIPC[i]
	}
	if sum == 0 {
		// Zero threads: 0/0 would be NaN; an empty harmonic mean is 0.
		return 0, nil
	}
	return float64(len(smtIPC)) / sum, nil
}

// Efficiency returns perf/avf, the reliability-efficiency ratio
// (proportional to mean instructions to failure at fixed frequency and raw
// error rate). A zero, negative, or NaN AVF yields 0 rather than ±Inf or
// NaN so that bars for untouched structures plot sanely.
func Efficiency(perf, avf float64) float64 {
	if avf <= 0 || math.IsNaN(avf) {
		return 0
	}
	return perf / avf
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
