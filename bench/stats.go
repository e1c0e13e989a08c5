package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is a sample reduced to its median and quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// summarize reduces xs to its median and quartiles. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the same values there.
func summarize(xs []float64, unit string) summary {
	s := summary{N: len(xs), Unit: unit}
	if len(xs) == 0 {
		return s
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s.Median = median(d)
	if len(d) == 1 {
		s.Q1, s.Q3 = d[0], d[0]
		return s
	}
	s.Q1, s.Q3 = quartile(d, 1), quartile(d, 3)
	return s
}

// median of sorted values.
func median(d []float64) float64 {
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartile i (1 or 3) of sorted values, at least two of them, by
// Python's exclusive method: position i*(n+1)/4, interpolated, clamped to
// the first and last gaps.
func quartile(d []float64, i int) float64 {
	n := len(d)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (d[j-1]*(4-delta) + d[j]*delta) / 4
}

// tailLadder lists the candidate tail percentiles in tenths of a percent,
// highest first.
var tailLadder = []int{999, 990, 975, 950, 900, 750}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, by nearest rank, with its label ("p99"). ok is false when no
// candidate qualifies (fewer than 40 samples).
func tail(xs []float64) (label string, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		rank := (p*n + 999) / 1000 // ceil(p/1000 * n)
		if rank < 1 || n-rank < 10 {
			continue
		}
		d := append([]float64(nil), xs...)
		sort.Float64s(d)
		return fmt.Sprintf("p%g", float64(p)/10), d[rank-1], true
	}
	return "", 0, false
}
