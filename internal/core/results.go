package core

import (
	"fmt"
	"strings"

	"smtavf/internal/avf"
)

// ThreadStats summarizes one context's run.
type ThreadStats struct {
	Workload       string
	Committed      uint64
	Fetched        uint64
	WrongPathFetch uint64
	Branches       uint64
	Mispredicts    uint64
	Flushes        uint64
	SquashedUops   uint64
	LoadForwards   uint64
	DL1Loads       uint64
	DL1LoadMisses  uint64
	L2LoadMisses   uint64
	RenameStalls   uint64
	IQFullStalls   uint64
	ROBFullStalls  uint64
	LSQFullStalls  uint64
}

// MispredictRate returns mispredicted branches / branches.
func (t ThreadStats) MispredictRate() float64 {
	if t.Branches == 0 {
		return 0
	}
	return float64(t.Mispredicts) / float64(t.Branches)
}

// DL1LoadMissRate returns load misses / loads.
func (t ThreadStats) DL1LoadMissRate() float64 {
	if t.DL1Loads == 0 {
		return 0
	}
	return float64(t.DL1LoadMisses) / float64(t.DL1Loads)
}

// MachineStats summarizes shared-resource behaviour.
type MachineStats struct {
	DL1MissRate   float64
	L2MissRate    float64
	IL1MissRate   float64
	DTLBMissRate  float64
	ITLBMissRate  float64
	FUUtilization float64
}

// Phase is one sampled interval of a run (Config.PhaseInterval): the IPC
// and per-structure AVF of that interval alone, read from the measured
// telemetry window that covers it.
type Phase struct {
	Cycle     uint64 // end cycle of the interval, counted from the end of warmup
	Committed uint64 // instructions committed within the interval
	IPC       float64
	AVF       [avf.NumStructs]float64
}

// Results is the output of one simulation run: performance, the AVF report,
// and diagnostics.
type Results struct {
	Threads   int
	Policy    string
	Cycles    uint64
	Committed []uint64
	Total     uint64
	AVF       avf.Report
	Bits      [avf.NumStructs]uint64 // structure capacities (AVF denominators)
	Thread    []ThreadStats
	Machine   MachineStats
	Counters  MachineCounters // raw counts behind Machine
	Phases    []Phase         // nonempty only when Config.PhaseInterval is set
}

// IPC returns aggregate committed instructions per cycle.
func (r *Results) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Total) / float64(r.Cycles)
}

// ThreadIPC returns thread tid's committed instructions per cycle.
func (r *Results) ThreadIPC(tid int) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed[tid]) / float64(r.Cycles)
}

// StructAVF returns the whole-structure AVF of s.
func (r *Results) StructAVF(s avf.Struct) float64 { return r.AVF.AVF(s) }

// ThreadStructAVF returns thread tid's AVF on structure s. For shared
// structures this is the thread's contribution to the shared array's AVF;
// for per-thread private structures (ROB, LSQ) it is the AVF of the
// thread's own copy, so single-thread and SMT runs compare directly
// (Figures 3 and 4).
func (r *Results) ThreadStructAVF(s avf.Struct, tid int) float64 {
	v := r.AVF.ThreadAVF(s, tid)
	if isPrivate(s) {
		return v * float64(r.Threads)
	}
	return v
}

func isPrivate(s avf.Struct) bool {
	switch s {
	case avf.ROB, avf.LSQData, avf.LSQTag:
		return true
	}
	return false
}

// ProcessorAVF aggregates the per-structure AVFs into a whole-processor
// estimate, weighting each structure by its bit capacity (the paper's §2:
// "add the AVF values of all of the hardware structures together by
// weighting them by the number of bits within each structure").
func (r *Results) ProcessorAVF() float64 {
	var num, den float64
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		num += r.AVF.Total[s] * float64(r.Bits[s])
		den += float64(r.Bits[s])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// FIT estimates the failure-in-time contribution of structure s given a
// raw (circuit-level) error rate in FIT per megabit: FIT = raw × bits ×
// AVF. The raw rate cancels in comparisons, which is why the paper reports
// AVF alone; FIT is offered for absolute what-if studies.
func (r *Results) FIT(s avf.Struct, rawFITPerMbit float64) float64 {
	return rawFITPerMbit * float64(r.Bits[s]) / 1e6 * r.AVF.Total[s]
}

// TotalFIT sums FIT over all instrumented structures.
func (r *Results) TotalFIT(rawFITPerMbit float64) float64 {
	sum := 0.0
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		sum += r.FIT(s, rawFITPerMbit)
	}
	return sum
}

// Efficiency returns the reliability-efficiency metric IPC/AVF for
// structure s (proportional to MITF at fixed frequency and raw error
// rate). It returns +Inf-free 0 when the AVF is zero.
func (r *Results) Efficiency(s avf.Struct) float64 {
	a := r.StructAVF(s)
	if a == 0 {
		return 0
	}
	return r.IPC() / a
}

// ThreadEfficiency returns thread tid's IPC over its AVF on structure s.
func (r *Results) ThreadEfficiency(s avf.Struct, tid int) float64 {
	a := r.ThreadStructAVF(s, tid)
	if a == 0 {
		return 0
	}
	return r.ThreadIPC(tid) / a
}

// String renders a human-readable report.
func (r *Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s threads=%d cycles=%d instructions=%d IPC=%.3f\n",
		r.Policy, r.Threads, r.Cycles, r.Total, r.IPC())
	for tid, ts := range r.Thread {
		fmt.Fprintf(&b, "  thread %d (%s): committed=%d IPC=%.3f mispred=%.2f%% dl1miss=%.2f%%\n",
			tid, ts.Workload, ts.Committed, r.ThreadIPC(tid),
			100*ts.MispredictRate(), 100*ts.DL1LoadMissRate())
		fmt.Fprintf(&b, "    fetched=%d wrongpath=%d squashed=%d flushes=%d fwd=%d stalls[ren=%d iq=%d rob=%d lsq=%d]\n",
			ts.Fetched, ts.WrongPathFetch, ts.SquashedUops, ts.Flushes,
			ts.LoadForwards, ts.RenameStalls, ts.IQFullStalls, ts.ROBFullStalls, ts.LSQFullStalls)
	}
	fmt.Fprintf(&b, "  machine: dl1miss=%.2f%% l2miss=%.2f%% il1miss=%.2f%% dtlbmiss=%.2f%% itlbmiss=%.2f%% fuutil=%.2f%%\n",
		100*r.Machine.DL1MissRate, 100*r.Machine.L2MissRate, 100*r.Machine.IL1MissRate,
		100*r.Machine.DTLBMissRate, 100*r.Machine.ITLBMissRate, 100*r.Machine.FUUtilization)
	b.WriteString("  structure AVFs:\n")
	for _, s := range avf.Structs() {
		fmt.Fprintf(&b, "    %-9s AVF=%6.2f%%  IPC/AVF=%8.2f\n",
			s, 100*r.StructAVF(s), r.Efficiency(s))
	}
	return b.String()
}

// threadStats snapshots thread t's raw counters.
func (p *Processor) threadStats(t *thread) ThreadStats {
	return ThreadStats{
		Workload:       t.stream.Name(),
		Committed:      t.committed,
		Fetched:        t.fetched,
		WrongPathFetch: t.wrongPathFetch,
		Branches:       t.branches,
		Mispredicts:    t.mispredicts,
		Flushes:        t.flushes,
		SquashedUops:   t.squashedUops,
		LoadForwards:   t.loadForwards,
		DL1Loads:       t.dl1Loads,
		DL1LoadMisses:  t.dl1LoadMisses,
		L2LoadMisses:   t.l2LoadMisses,
		RenameStalls:   t.renameStalls,
		IQFullStalls:   t.iqFullStalls,
		ROBFullStalls:  t.robFullStalls,
		LSQFullStalls:  t.lsqFullStalls,
	}
}

// minus subtracts a warmup baseline from a counter snapshot.
func (a ThreadStats) minus(b ThreadStats) ThreadStats {
	a.Committed -= b.Committed
	a.Fetched -= b.Fetched
	a.WrongPathFetch -= b.WrongPathFetch
	a.Branches -= b.Branches
	a.Mispredicts -= b.Mispredicts
	a.Flushes -= b.Flushes
	a.SquashedUops -= b.SquashedUops
	a.LoadForwards -= b.LoadForwards
	a.DL1Loads -= b.DL1Loads
	a.DL1LoadMisses -= b.DL1LoadMisses
	a.L2LoadMisses -= b.L2LoadMisses
	a.RenameStalls -= b.RenameStalls
	a.IQFullStalls -= b.IQFullStalls
	a.ROBFullStalls -= b.ROBFullStalls
	a.LSQFullStalls -= b.LSQFullStalls
	return a
}

// MachineCounters holds the raw shared-resource event counts behind
// MachineStats, over the measurement window only.
type MachineCounters struct {
	DL1Accesses, DL1Misses   uint64
	L2Accesses, L2Misses     uint64
	IL1Accesses, IL1Misses   uint64
	DTLBAccesses, DTLBMisses uint64
	ITLBAccesses, ITLBMisses uint64
	FUBusy                   uint64 // unit-cycles any function unit was busy
	FUUnits                  uint64 // total function units (for utilization)
}

func (p *Processor) counters() MachineCounters {
	return MachineCounters{
		DL1Accesses: p.dl1.Accesses, DL1Misses: p.dl1.Misses,
		L2Accesses: p.l2.Accesses, L2Misses: p.l2.Misses,
		IL1Accesses: p.il1.Accesses, IL1Misses: p.il1.Misses,
		DTLBAccesses: p.dtlb.Accesses, DTLBMisses: p.dtlb.Misses,
		ITLBAccesses: p.itlb.Accesses, ITLBMisses: p.itlb.Misses,
		FUBusy: p.fus.BusyAll,
	}
}

// minus subtracts a warmup baseline (the count-valued fields only; FUUnits
// is a capacity, not a count).
func (a MachineCounters) minus(b MachineCounters) MachineCounters {
	a.DL1Accesses -= b.DL1Accesses
	a.DL1Misses -= b.DL1Misses
	a.L2Accesses -= b.L2Accesses
	a.L2Misses -= b.L2Misses
	a.IL1Accesses -= b.IL1Accesses
	a.IL1Misses -= b.IL1Misses
	a.DTLBAccesses -= b.DTLBAccesses
	a.DTLBMisses -= b.DTLBMisses
	a.ITLBAccesses -= b.ITLBAccesses
	a.ITLBMisses -= b.ITLBMisses
	a.FUBusy -= b.FUBusy
	return a
}

// Stats derives the rate view over a window of cycles.
func (c MachineCounters) Stats(cycles uint64) MachineStats {
	fu := 0.0
	if c.FUUnits > 0 && cycles > 0 {
		fu = float64(c.FUBusy) / float64(c.FUUnits*cycles)
	}
	return MachineStats{
		DL1MissRate:   rate(c.DL1Misses, c.DL1Accesses),
		L2MissRate:    rate(c.L2Misses, c.L2Accesses),
		IL1MissRate:   rate(c.IL1Misses, c.IL1Accesses),
		DTLBMissRate:  rate(c.DTLBMisses, c.DTLBAccesses),
		ITLBMissRate:  rate(c.ITLBMisses, c.ITLBAccesses),
		FUUtilization: fu,
	}
}

func rate(m, a uint64) float64 {
	if a == 0 {
		return 0
	}
	return float64(m) / float64(a)
}

// results assembles the Results after a finished run, reporting only the
// measurement window (post-warmup).
func (p *Processor) results() *Results {
	meas := p.now - p.measureStart
	r := &Results{
		Threads:   p.cfg.Threads,
		Policy:    p.policy.Name(),
		Cycles:    meas,
		Committed: make([]uint64, len(p.threads)),
		Total:     p.totalCommitted - p.warmCommitted,
		AVF:       p.trk.Snapshot(meas),
		Bits:      StructBits(p.cfg),
		Phases:    p.phases,
	}
	for i, t := range p.threads {
		ts := p.threadStats(t)
		if p.warmThread != nil {
			ts = ts.minus(p.warmThread[i])
		}
		r.Committed[i] = ts.Committed
		r.Thread = append(r.Thread, ts)
	}
	d := p.counters().minus(p.warmCounters)
	d.FUUnits = uint64(p.fus.TotalUnits())
	r.Counters = d
	r.Machine = d.Stats(meas)
	return r
}
