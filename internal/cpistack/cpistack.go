// Package cpistack is the explainability observer: per-thread cycle
// accounting joined with an occupancy-by-fate decomposition of the
// AVF-tracked structures.
//
// The AVF report says *how vulnerable* each structure was; this package
// says *why*. Every thread-cycle is attributed to exactly one stack
// component (committing, icache miss, dcache/L2 miss, branch-mispredict
// recovery, a full IQ/ROB/LSQ, register starvation, fetch-policy gating,
// or idle), so per-thread components sum to the measured cycles — a CPI
// stack in the cycle-accounting tradition. Alongside, every classified
// residency interval of the occupancy-tracked structures (IQ, ROB, LSQ
// tag/data, FU, Reg) is booked by its avf.Fate when it is classified,
// using the tracker's exact clipped-interval arithmetic, so the
// occupancy-by-fate bit-cycles sum to the tracker's ACE/un-ACE totals bit
// for bit.
//
// The observer keeps run totals only. The windowed series is the
// telemetry collector's: with the observer attached, every telemetry
// window carries the interval's stack and fate split, diffed from these
// totals at each roll, so a window reads "the IQ was 78% occupied, 61%
// of that ACE, while thread 1 spent 70% of its cycles L2-miss-stalled" —
// the causal chain (fetch policy → occupancy → ACE composition → AVF) the
// paper argues, observable per interval.
//
// Like every observer (docs/observability.md), a detached observer is
// free: the processor skips the attribution pass behind one nil check per
// cycle and calls only attached observers, pinned by
// BenchmarkCPIStackOverhead.
package cpistack

import (
	"fmt"
	"strings"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
	"smtavf/internal/pipeline"
)

// Component is one CPI-stack cycle class. Each thread-cycle is attributed
// to exactly one component, so a thread's components sum to its cycles.
type Component uint8

// Stack components, in stack order (work first, back-end stalls, front-end
// stalls, idle last).
const (
	// CompBase covers productive cycles: the thread committed this cycle,
	// or its ROB head is executing without an outstanding data miss (the
	// classic "base + execution latency" component).
	CompBase Component = iota
	// CompICacheMiss: the front end is stalled on an IL1/ITLB miss with
	// nothing left in flight to hide it.
	CompICacheMiss
	// CompDCacheMiss: the oldest instruction is blocked behind a DL1 miss.
	CompDCacheMiss
	// CompL2Miss: the oldest instruction is blocked behind an L2 miss —
	// the long-latency stall the STALL/FLUSH/DG policies act on.
	CompL2Miss
	// CompBranchMispredict covers wrong-path mode and the squash-recovery
	// redirect bubble.
	CompBranchMispredict
	// CompIQFull: dispatch stalled this cycle because the shared issue
	// queue had no slot for the thread.
	CompIQFull
	// CompROBFull: dispatch stalled on a full reorder buffer.
	CompROBFull
	// CompLSQFull: dispatch stalled on a full load/store queue.
	CompLSQFull
	// CompRegStarved: dispatch stalled because renaming found no free
	// physical register.
	CompRegStarved
	// CompFetchGated: the thread was runnable but fetched nothing — the
	// fetch policy gave the bandwidth elsewhere or gated the thread
	// (STALL/DG/PDG predicted-miss gating, ICOUNT priority loss).
	CompFetchGated
	// CompIdle: the thread has finished its quota.
	CompIdle

	// NumComponents is the component count; every per-component array is
	// indexed [0, NumComponents).
	NumComponents = 11
)

var componentNames = [NumComponents]string{
	"base", "icache_miss", "dcache_miss", "l2_miss", "branch_mispredict",
	"iq_full", "rob_full", "lsq_full", "reg_starved", "fetch_gated", "idle",
}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Components lists every stack component in stack order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// OccupancyStructs lists the structures whose occupancy the observer
// decomposes by fate: the uop-tracked pipeline structures plus the
// register file (whose intervals arrive through the tracker's sink).
func OccupancyStructs() []avf.Struct {
	return []avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU, avf.Reg}
}

// DefaultWindowCycles is the default live-gauge period, matching
// telemetry's default window.
const DefaultWindowCycles = 10_000

// Options parameterizes an Observer.
type Options struct {
	// WindowCycles is the period of the live component-share gauges
	// (Publish; default 10k cycles). It sets no series: the windowed
	// stack is the telemetry window's.
	WindowCycles uint64
}

// Observer accumulates the per-thread CPI stack and the occupancy-by-fate
// totals. Attach with the facade's WithCPIStack
// (campaign.Options.CPIStack); all methods are nil-receiver no-ops so a
// detached observer costs nothing.
//
// Ownership: Record copies everything it keeps out of the pool slot
// before returning (docs/performance.md).
type Observer struct {
	window  uint64
	bits    pipeline.Bits
	caps    [avf.NumStructs]uint64 // structure capacities (AVF denominators)
	threads int

	base uint64 // measurement origin: spans clip here
	max  uint64 // one past the last accounted cycle

	stack [][NumComponents]uint64              // [tid][comp] cycles
	occ   [avf.NumStructs][avf.NumFates]uint64 // bit-cycles by fate

	// Live gauges (Publish); nil-receiver no-ops when unpublished. Only a
	// published observer keeps live, the all-thread component cycles of
	// the gauge window that ends at liveEnd; liveWins counts the windows
	// begun.
	gComp    [NumComponents]*obs.Gauge
	gOcc     [avf.NumStructs]*obs.Gauge
	gACE     [avf.NumStructs]*obs.Gauge
	gWins    *obs.Gauge
	live     [NumComponents]uint64
	liveEnd  uint64
	liveWins uint64
}

// New builds an observer. A zero WindowCycles selects DefaultWindowCycles.
func New(o Options) *Observer {
	if o.WindowCycles == 0 {
		o.WindowCycles = DefaultWindowCycles
	}
	return &Observer{window: o.WindowCycles}
}

// Configure binds the observer to a machine: per-entry bit widths for the
// residency split, structure capacities for the occupancy denominators,
// the thread count, and the cycle accounting starts at. The processor
// calls it from SetCPIStack.
func (o *Observer) Configure(bits pipeline.Bits, caps [avf.NumStructs]uint64, threads int, start uint64) {
	if o == nil {
		return
	}
	o.bits = bits
	o.caps = caps
	o.threads = threads
	o.stack = make([][NumComponents]uint64, threads)
	o.Rebase(start)
}

// Threads returns the configured thread count.
func (o *Observer) Threads() int {
	if o == nil {
		return 0
	}
	return o.threads
}

// Tick accounts one cycle: comps[tid] is the component thread tid's cycle
// `now` was attributed to. The processor calls it once per simulated cycle
// with a reused scratch slice; Tick copies what it keeps.
func (o *Observer) Tick(now uint64, comps []Component) {
	if o == nil {
		return
	}
	for tid, c := range comps {
		o.stack[tid][c]++
	}
	if o.gWins != nil {
		if now >= o.liveEnd {
			o.publish(now)
		}
		for _, c := range comps {
			o.live[c]++
		}
	}
	if now+1 > o.max {
		o.max = now + 1
	}
}

// Record accounts classified pool slot id's structure residencies by
// fate. It is fed at the same commit/squash/end-of-run sites as the AVF
// tracker and uses the tracker's clipped-interval arithmetic, so the
// per-fate sums reconcile with the tracker bit for bit.
// The retire cycle is unused: residencies carry their own positions.
func (o *Observer) Record(pl *pipeline.Pool, id pipeline.UID, _ uint64, squashed bool) {
	if o == nil {
		return
	}
	fate := pl.Fate(id, squashed)
	for _, r := range pl.Residencies(id, o.bits) {
		o.addSpan(r.Struct, fate, r.Bits, r.Start, r.End)
	}
}

// Interval implements avf.Sink for the register file: the tracker forwards
// every positioned interval here, and the observer keeps the Reg ones (the
// uop-tracked structures already arrive through Record — accepting them
// twice would double-count). Register state has no per-uop fate, so ACE
// residency maps to the committed fate and un-ACE residency to dead (a
// register's un-ACE time is exactly its dead-value time).
func (o *Observer) Interval(s avf.Struct, tid int, bits, start, end uint64, ace bool) {
	if o == nil || s != avf.Reg {
		return
	}
	_ = tid
	fate := avf.FateDead
	if ace {
		fate = avf.FateCommitted
	}
	o.addSpan(s, fate, bits, start, end)
}

// Rebase drops all warmup-era accounting and restarts the accounts at
// cycle, mirroring the tracker's rebase (avf.RebaseObserver). The
// processor calls it at the end of warmup; the tracker's sink notification
// arrives too, and a second call with the same cycle is a no-op by
// construction.
func (o *Observer) Rebase(cycle uint64) {
	if o == nil {
		return
	}
	o.base = cycle
	o.max = cycle
	for tid := range o.stack {
		o.stack[tid] = [NumComponents]uint64{}
	}
	o.occ = [avf.NumStructs][avf.NumFates]uint64{}
	o.live = [NumComponents]uint64{}
	o.liveEnd = cycle
	o.liveWins = 0
}

// addSpan books bits×cycles of structure s's fate-f residency over
// [start, end), clipping at the measurement origin exactly as
// avf.Tracker.AddInterval clips at its rebase point.
func (o *Observer) addSpan(s avf.Struct, f avf.Fate, bits, start, end uint64) {
	if start < o.base {
		start = o.base
	}
	if end <= start || bits == 0 {
		return
	}
	if end > o.max {
		o.max = end
	}
	o.occ[s][f] += bits * (end - start)
}

// CycleCount returns thread tid's accounted cycles — the sum of its stack
// components, which the reconciliation contract pins to the simulated
// measurement-window cycles.
func (o *Observer) CycleCount(tid int) uint64 {
	if o == nil || tid >= len(o.stack) {
		return 0
	}
	var sum uint64
	for _, v := range o.stack[tid] {
		sum += v
	}
	return sum
}

// ComponentCycles returns thread tid's cycles attributed to component c.
func (o *Observer) ComponentCycles(tid int, c Component) uint64 {
	if o == nil || tid >= len(o.stack) {
		return 0
	}
	return o.stack[tid][c]
}

// FateBitCycles returns the accumulated bit-cycles of structure s resident
// with fate f.
func (o *Observer) FateBitCycles(s avf.Struct, f avf.Fate) uint64 {
	if o == nil {
		return 0
	}
	return o.occ[s][f]
}

// ACEBitCycles returns structure s's ACE bit-cycles — residency with the
// committed fate, the only ACE fate. Equals avf.Tracker.ACEBitCycles(s)
// for the occupancy-tracked structures.
func (o *Observer) ACEBitCycles(s avf.Struct) uint64 {
	return o.FateBitCycles(s, avf.FateCommitted)
}

// ResidentBitCycles returns structure s's total occupied bit-cycles over
// all fates. Equals avf.Tracker.OccupiedBitCycles(s) for the
// occupancy-tracked structures.
func (o *Observer) ResidentBitCycles(s avf.Struct) uint64 {
	if o == nil {
		return 0
	}
	var sum uint64
	for _, v := range o.occ[s] {
		sum += v
	}
	return sum
}

// Capacity returns the configured bit capacity of structure s.
func (o *Observer) Capacity(s avf.Struct) uint64 {
	if o == nil {
		return 0
	}
	return o.caps[s]
}

// Span returns the accounted cycle range [start, end).
func (o *Observer) Span() (start, end uint64) {
	if o == nil {
		return 0, 0
	}
	return o.base, o.max
}

// Publish registers the observer's live gauges on reg:
// smtavf_cpistack_<component> (share of the last closed gauge window's
// thread-cycles, refreshed as each Options.WindowCycles window closes),
// smtavf_cpistack_windows (gauge windows begun), and smtavf_occupancy_<S>
// / smtavf_occupancy_<S>_ace (cumulative occupied fraction of structure S
// and the ACE share of that occupancy, classified-so-far). A nil registry
// leaves the gauges detached.
func (o *Observer) Publish(reg *obs.Registry) {
	if o == nil {
		return
	}
	for c := Component(0); c < NumComponents; c++ {
		o.gComp[c] = reg.Gauge("cpistack."+c.String(), "")
	}
	o.gWins = reg.Gauge("cpistack.windows", "")
	for _, s := range OccupancyStructs() {
		o.gOcc[s] = reg.Gauge("occupancy."+s.String(), "")
		o.gACE[s] = reg.Gauge("occupancy."+s.String()+".ace", "")
	}
}

// publish closes the gauge window at cycle now and refreshes the live
// gauges: component shares from the window just closed, occupancy
// fractions from the cumulative accounts. Runs once per gauge window,
// never per cycle.
func (o *Observer) publish(now uint64) {
	o.liveWins++
	o.gWins.SetUint(o.liveWins)
	var total uint64
	for _, v := range o.live {
		total += v
	}
	if total > 0 {
		for c, v := range o.live {
			o.gComp[c].Set(float64(v) / float64(total))
		}
	}
	o.live = [NumComponents]uint64{}
	o.liveEnd = now + o.window
	span := o.max - o.base
	if span == 0 {
		return
	}
	for _, s := range OccupancyStructs() {
		den := float64(o.caps[s]) * float64(span)
		if den == 0 {
			continue
		}
		resident := o.ResidentBitCycles(s)
		o.gOcc[s].Set(float64(resident) / den)
		if resident > 0 {
			o.gACE[s].Set(float64(o.occ[s][avf.FateCommitted]) / float64(resident))
		}
	}
}

// FormatStack renders the per-thread CPI stack as an aligned percent
// table: one column per thread plus the all-thread aggregate, components
// summing to 100% of the accounted cycles.
func (o *Observer) FormatStack() string {
	if o == nil {
		return ""
	}
	var b strings.Builder
	start, end := o.Span()
	fmt.Fprintf(&b, "CPI stack (%% of thread-cycles, cycles %d..%d):\n", start, end)
	fmt.Fprintf(&b, "  %-18s", "component")
	for tid := 0; tid < o.threads; tid++ {
		fmt.Fprintf(&b, "%9s", fmt.Sprintf("t%d", tid))
	}
	fmt.Fprintf(&b, "%9s\n", "all")
	var totals []uint64
	var grand uint64
	for tid := 0; tid < o.threads; tid++ {
		c := o.CycleCount(tid)
		totals = append(totals, c)
		grand += c
	}
	for c := Component(0); c < NumComponents; c++ {
		fmt.Fprintf(&b, "  %-18s", c)
		var all uint64
		for tid := 0; tid < o.threads; tid++ {
			all += o.stack[tid][c]
			b.WriteString(pct(o.stack[tid][c], totals[tid]))
		}
		b.WriteString(pct(all, grand))
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatOccupancy renders the occupancy-by-fate decomposition: per
// structure, the occupied fraction of its bit-cycles and how that
// occupancy splits across fates (only the committed fate is ACE).
func (o *Observer) FormatOccupancy() string {
	if o == nil {
		return ""
	}
	var b strings.Builder
	span := o.max - o.base
	b.WriteString("occupancy x fate (occupied % of capacity; fate columns % of occupied):\n")
	fmt.Fprintf(&b, "  %-10s%9s", "struct", "occupied")
	for _, f := range avf.Fates() {
		fmt.Fprintf(&b, "%11s", f)
	}
	b.WriteByte('\n')
	for _, s := range OccupancyStructs() {
		fmt.Fprintf(&b, "  %-10s", s)
		resident := o.ResidentBitCycles(s)
		b.WriteString(pct(resident, o.caps[s]*span))
		for _, f := range avf.Fates() {
			fmt.Fprintf(&b, "%10.2f%%", 100*ratio(o.occ[s][f], resident))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pct(num, den uint64) string {
	return fmt.Sprintf("%8.2f%%", 100*ratio(num, den))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
