// Package inject implements statistical fault injection, the validation
// methodology the paper's §2 and §6 discuss as the (much more expensive)
// alternative to ACE analysis: strike random state bits at random cycles
// and observe the fraction of strikes that corrupt the program.
//
// A Campaign samples the machine on a systematic grid of cycles (every
// Every-th cycle, with a random phase). At each sample cycle the
// probability that a uniformly random bit strike corrupts the program is
//
//	P(corrupt | strike at cycle c) = ACE bits resident at c / total bits
//
// so the campaign's mean over sample cycles is an unbiased estimate of the
// structure's AVF — computed from an entirely different direction than the
// Tracker's residency accumulators. Agreement between the two validates
// the interval accounting end to end (intervals that overlapped,
// double-counted, or leaked past the end of the run would split the
// estimates apart). Campaign implements avf.Sink; attach it to a tracker
// before the run.
//
// The statistics layer (stats.go) turns the recorded grid into a
// confidence-bounded instrument: sequential strike sampling with a
// Wilson-score stopping rule, a per-structure / per-thread strike-outcome
// taxonomy, and live progress published through internal/telemetry.
package inject

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
	"smtavf/internal/rng"
	"smtavf/internal/telemetry"
)

// grid is the state recorded on one structure's sample grid: per sample
// index, the occupied bits, the ACE bits, and each thread's share of the
// ACE bits (strike outcomes are attributed to the thread that owned the
// struck state).
//
// Interval books difference-encoded — +bits at the first covered sample
// index and -bits one past the last — so booking costs O(1) whatever the
// interval's length. The first read resolves every column with one prefix
// sum. The arithmetic wraps mod 2^64, so resolved values equal the plain
// per-sample sums exactly. Memory is (2 + threads) words per sample up to
// the last sample any interval covers, rounded up to whole blocks, so the
// run's sample count bounds it.
type grid struct {
	occ, ace column
	// thread[tid] is thread tid's share of the ACE bits, one column per
	// thread id seen; at every index the shares sum to ace.
	thread []column
	// resolved reports the columns hold per-sample values (after a read)
	// rather than differences (while intervals are booked).
	resolved bool
}

// setResolved converts the grid between differences and per-sample
// values. The two are exact inverses, so an Interval booked after a read
// (reads normally follow the run) stays exact.
func (g *grid) setResolved(resolved bool) {
	if g.resolved == resolved {
		return
	}
	g.resolved = resolved
	for _, c := range append([]column{g.occ, g.ace}, g.thread...) {
		if resolved {
			c.prefixSum()
		} else {
			c.difference()
		}
	}
}

// blockLen is the number of samples per column block. Columns grow a
// block at a time, so booking never copies what is already recorded.
const blockLen = 1 << 10

// column holds one per-sample quantity of a grid in fixed-size blocks;
// samples past the last block are zero.
type column [][]uint64

// book adds bits over sample indices [first, last] as differences: +bits
// at first and -bits one past last.
func (c *column) book(first, last, bits uint64) {
	c.add(first, bits)
	c.add(last+1, -bits)
}

func (c *column) add(idx, v uint64) {
	b := idx / blockLen
	for uint64(len(*c)) <= b {
		*c = append(*c, make([]uint64, blockLen))
	}
	(*c)[b][idx%blockLen] += v
}

// at returns the value at sample index idx.
func (c column) at(idx uint64) uint64 {
	if b := idx / blockLen; b < uint64(len(c)) {
		return c[b][idx%blockLen]
	}
	return 0
}

// sumBelow sums the values at sample indices below n.
func (c column) sumBelow(n uint64) uint64 {
	var sum uint64
	for _, blk := range c {
		if n < blockLen {
			blk = blk[:n]
		}
		for _, v := range blk {
			sum += v
		}
		if n <= blockLen {
			break
		}
		n -= blockLen
	}
	return sum
}

// prefixSum turns differences into per-sample values.
func (c column) prefixSum() {
	var run uint64
	for _, blk := range c {
		for i := range blk {
			run += blk[i]
			blk[i] = run
		}
	}
}

// difference turns per-sample values back into differences, the exact
// inverse of prefixSum.
func (c column) difference() {
	var prev uint64
	for _, blk := range c {
		for i, v := range blk {
			blk[i] = v - prev
			prev = v
		}
	}
}

// Campaign collects strike samples. Create with NewCampaign, attach via
// Tracker.AddSink, run the simulation, then call Estimate/Outcomes (or
// RunStrikes for the confidence-bounded sequential experiment).
//
// Campaign implements avf.RebaseObserver: when the tracker rebases at the
// end of a warmup period, the campaign drops every sample collected so
// far and re-anchors its grid at the rebase cycle, so the estimates cover
// exactly the measurement window the tracker covers (pass the measured
// cycle count — Results.Cycles — to Estimate/Occupancy/Outcomes).
//
// A nil *Campaign is a valid detached campaign: the hot-path methods
// (Interval, Rebase) are nil-receiver no-ops, matching the pipetrace
// recorder convention, so call sites need no branching.
//
// A Campaign is not safe for concurrent use: reads resolve the grid in
// place, and strikes advance the shared rng stream.
type Campaign struct {
	every      uint64 // sample grid pitch in cycles
	phase      uint64 // grid offset, drawn in [0, every)
	origin     uint64 // cycle the grid is anchored at (nonzero after a rebase)
	bits       [avf.NumStructs]uint64
	grids      [avf.NumStructs]grid
	protection [avf.NumStructs]Detection
	rnd        *rng.Source
	events     uint64

	// Live progress handles (PublishTelemetry); nil-receiver no-ops when
	// telemetry is not attached.
	telEvents  *telemetry.Counter
	telStrikes *telemetry.Gauge
	telRounds  *telemetry.Gauge
	telETA     *telemetry.Gauge
	telHW      [avf.NumStructs]*telemetry.Gauge
	telLogger  logger
	prog       *obs.Progress
}

// logger is the slog subset the campaign emits progress on.
type logger interface {
	Info(msg string, args ...any)
}

// NewCampaign builds a campaign sampling every 'every' cycles. bits gives
// each structure's total capacity (use the same values the Tracker was
// built with). seed fixes the grid phase and the Bernoulli outcome draws.
func NewCampaign(bits [avf.NumStructs]uint64, every uint64, seed uint64) (*Campaign, error) {
	if every == 0 {
		return nil, fmt.Errorf("inject: sampling pitch must be positive")
	}
	c := &Campaign{every: every, bits: bits, rnd: rng.New(seed)}
	c.phase = c.rnd.Uint64n(every)
	return c, nil
}

var (
	_ avf.Sink           = (*Campaign)(nil)
	_ avf.RebaseObserver = (*Campaign)(nil)
)

// Phase returns the random grid offset in [0, every) drawn at construction
// — the first value consumed from the campaign's seed (the seed-stability
// golden test pins it).
func (c *Campaign) Phase() uint64 { return c.phase }

// SetProtection declares per-structure error protection: strikes on ACE
// state in a protected structure are detected (parity: a detected
// unrecoverable error) or corrected (ECC) instead of silently corrupting
// the program. core/protection.go maps its ProtectionMode values onto
// Detection. Call before RunStrikes; the default is unprotected.
func (c *Campaign) SetProtection(p [avf.NumStructs]Detection) { c.protection = p }

// Protection returns the per-structure detection configuration.
func (c *Campaign) Protection() [avf.NumStructs]Detection { return c.protection }

// Rebase implements avf.RebaseObserver: warmup-era samples are discarded
// and the sample grid re-anchors at the rebase cycle, mirroring the
// tracker's accumulator reset.
func (c *Campaign) Rebase(cycle uint64) {
	if c == nil {
		return
	}
	c.origin = cycle
	c.grids = [avf.NumStructs]grid{}
}

// Interval implements avf.Sink: it books the interval's bits into every
// sample cycle the interval covers, in O(1) (see grid). Cycles are
// re-expressed relative to the grid origin (the last rebase), matching
// the measured cycle counts the estimate queries use.
func (c *Campaign) Interval(s avf.Struct, tid int, bits, start, end uint64, ace bool) {
	if c == nil {
		return
	}
	if start < c.origin {
		start = c.origin
	}
	if end <= start {
		return
	}
	start -= c.origin
	end -= c.origin
	c.events++
	c.telEvents.Inc() // nil-receiver no-op without telemetry
	if end <= c.phase {
		return // ends before the first sample cycle
	}
	// First sample index at or after start, last one before end.
	var first uint64
	if start > c.phase {
		first = (start - c.phase + c.every - 1) / c.every
	}
	last := (end - 1 - c.phase) / c.every
	if first > last {
		return
	}
	g := &c.grids[s]
	g.setResolved(false)
	g.occ.book(first, last, bits)
	if ace {
		g.ace.book(first, last, bits)
		for len(g.thread) <= tid {
			g.thread = append(g.thread, nil)
		}
		g.thread[tid].book(first, last, bits)
	}
}

// values returns structure s's grid resolved into per-sample values.
func (c *Campaign) values(s avf.Struct) *grid {
	g := &c.grids[s]
	g.setResolved(true)
	return g
}

// Samples returns the number of sample cycles within a run of 'cycles'
// cycles.
func (c *Campaign) Samples(cycles uint64) uint64 {
	if cycles <= c.phase {
		return 0
	}
	return (cycles-c.phase-1)/c.every + 1
}

// Estimate returns the fault-injection AVF estimate for structure s over a
// run of 'cycles' cycles: the mean, over sample cycles, of the fraction of
// the structure's bits whose corruption would have mattered.
func (c *Campaign) Estimate(s avf.Struct, cycles uint64) float64 {
	n := c.Samples(cycles)
	if n == 0 || c.bits[s] == 0 {
		return 0
	}
	return float64(c.values(s).ace.sumBelow(n)) / (float64(n) * float64(c.bits[s]))
}

// Occupancy returns the estimated fraction of (bits × cycles) holding any
// tracked state — the analogue of Tracker.Occupancy.
func (c *Campaign) Occupancy(s avf.Struct, cycles uint64) float64 {
	n := c.Samples(cycles)
	if n == 0 || c.bits[s] == 0 {
		return 0
	}
	return float64(c.values(s).occ.sumBelow(n)) / (float64(n) * float64(c.bits[s]))
}

// Overbooked reports sample cycles where the recorded occupancy exceeds
// the structure's capacity — impossible in a correct accounting, so any
// hit indicates overlapping or double-counted intervals.
func (c *Campaign) Overbooked(s avf.Struct) int {
	n := 0
	for _, blk := range c.values(s).occ {
		for _, occ := range blk {
			if occ > c.bits[s] {
				n++
			}
		}
	}
	return n
}

// Strike is one simulated fault injection: the struck structure, where and
// when the particle landed, and who owned the state it hit. It is the one
// public record every strike consumer shares — the statistics layer
// (RunStrikes) folds strikes into the outcome taxonomy, and the
// propagation tracer (internal/propagation) resolves each strike's victim
// uop and taint-tracks the corruption onward.
type Strike struct {
	// Struct is the struck structure.
	Struct avf.Struct
	// SampleIdx is the grid sample index the strike landed on, relative
	// to the campaign's origin (the last rebase).
	SampleIdx uint64
	// Cycle is the absolute simulation cycle of the strike:
	// origin + phase + SampleIdx*every.
	Cycle uint64
	// Bit is the struck bit's offset within the structure's capacity.
	Bit uint64
	// TID is the thread owning the struck ACE state, or -1 when the bit
	// held idle or un-ACE state (a masked strike).
	TID int
	// ThreadBit is the struck bit's offset within the owning thread's
	// ACE share at the sample cycle (meaningful only when TID >= 0) —
	// the deterministic handle victim resolution keys on.
	ThreadBit uint64
	// Outcome classifies the strike under the structure's configured
	// protection: Masked, SDC, DUE, or Corrected.
	Outcome Outcome
}

// Outcomes simulates 'strikes' actual fault injections into structure s:
// for each strike a sample cycle and a bit are drawn uniformly, and the
// strike corrupts the program if the bit holds ACE state. It returns the
// number of corrupting strikes. With many strikes, corrupted/strikes
// converges to Estimate. The draw order (sample index, then bit) is part
// of the campaign's deterministic contract — see the seed-stability
// golden test.
func (c *Campaign) Outcomes(s avf.Struct, cycles uint64, strikes int) (corrupted int) {
	n := c.Samples(cycles)
	if n == 0 || c.bits[s] == 0 {
		return 0
	}
	for i := 0; i < strikes; i++ {
		if c.strike(s, n).Outcome.Corrupting() {
			corrupted++
		}
	}
	return corrupted
}

// SampleStrikes draws n fault injections into structure s over a recorded
// run of 'cycles' cycles and returns the full Strike records. Each strike
// consumes exactly two rng values (sample index, then bit) from the
// campaign's stream — the same draws RunStrikes and Outcomes make — so a
// given seed produces one deterministic strike sequence across all three
// entry points; call SampleStrikes after RunStrikes to extend the stream,
// not to replay it. Structures with no recorded samples (zero capacity or
// an empty grid) return nil.
func (c *Campaign) SampleStrikes(s avf.Struct, cycles uint64, n int) []Strike {
	samples := c.Samples(cycles)
	if samples == 0 || c.bits[s] == 0 || n <= 0 {
		return nil
	}
	out := make([]Strike, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.strike(s, samples))
	}
	return out
}

// strike draws one (sample cycle, bit) pair for structure s — consuming
// exactly two rng values — and classifies the outcome, attributing ACE
// hits to the owning thread (TID -1 when no thread owns the struck bit).
func (c *Campaign) strike(s avf.Struct, samples uint64) Strike {
	idx := c.rnd.Uint64n(samples)
	bit := c.rnd.Uint64n(c.bits[s])
	st := Strike{
		Struct:    s,
		SampleIdx: idx,
		Cycle:     c.origin + c.phase + idx*c.every,
		Bit:       bit,
		TID:       -1,
		Outcome:   Masked,
	}
	g := c.values(s)
	if bit >= g.ace.at(idx) {
		return st // idle or un-ACE state: the strike is masked
	}
	// The shares sum to ace, so the walk stops at the owning thread;
	// trailing zero shares of threads seen elsewhere are never reached.
	tid := 0
	for _, share := range g.thread {
		v := share.at(idx)
		if bit < v {
			break
		}
		bit -= v
		tid++
	}
	if tid >= len(g.thread) {
		tid = len(g.thread) - 1 // unreachable unless shares disagree with ace
	}
	st.TID = tid
	st.ThreadBit = bit
	st.Outcome = c.protection[s].outcome()
	return st
}

// Events returns the number of intervals observed (diagnostics).
func (c *Campaign) Events() uint64 { return c.events }
