// Package avf implements the Architectural Vulnerability Factor accounting
// of Mukherjee et al. (MICRO 2003) and Biswas et al. (ISCA 2005), extended
// for SMT as in the paper: every residency interval of processor state is
// classified ACE (a soft-error strike would corrupt the program result) or
// un-ACE, and attributed to the thread that owns it.
//
// The simulator logs bit-cycle products: when state leaves a structure (an
// instruction issues from the IQ, a register is freed, a cache word is
// evicted), its residency interval is added to the ACE or un-ACE
// accumulator of that structure. At the end of a run,
//
//	AVF(s) = ACE-bit-cycles(s) / (bits(s) × total-cycles)
//
// and the per-thread AVF contributions partition the numerator.
package avf

import "fmt"

// Struct identifies an instrumented microarchitecture structure. The set
// matches the paper's Figures 1–8, plus the TLBs the paper's framework
// covers (§3).
type Struct int

// Instrumented structures.
const (
	IQ Struct = iota
	ROB
	FU
	Reg
	LSQData
	LSQTag
	DL1Data
	DL1Tag
	DTLB
	ITLB
	NumStructs = 10
)

var structNames = [NumStructs]string{
	"IQ", "ROB", "FU", "Reg", "LSQ_data", "LSQ_tag",
	"DL1_data", "DL1_tag", "DTLB", "ITLB",
}

func (s Struct) String() string {
	if int(s) < len(structNames) {
		return structNames[s]
	}
	return fmt.Sprintf("struct(%d)", int(s))
}

// ParseStruct inverts Struct.String: it returns the structure with the
// given name, e.g. "IQ" or "LSQ_data" — the name a serialized campaign
// spec or protection map carries.
func ParseStruct(name string) (Struct, error) {
	for s, n := range structNames {
		if n == name {
			return Struct(s), nil
		}
	}
	return 0, fmt.Errorf("avf: unknown structure %q", name)
}

// Structs lists every instrumented structure in presentation order
// (shared pipeline, shared memory, non-shared — the grouping of Figure 1).
func Structs() []Struct {
	return []Struct{IQ, FU, Reg, DL1Data, DL1Tag, ROB, LSQData, LSQTag, DTLB, ITLB}
}

// PipelineStructs lists the structures whose residency is tracked per
// in-flight instruction.
func PipelineStructs() []Struct { return []Struct{IQ, ROB, FU, LSQData, LSQTag} }

// Tracker accumulates ACE and un-ACE bit-cycles per structure and thread.
type Tracker struct {
	threads int
	bits    [NumStructs]uint64 // capacity in bits of each structure
	ace     [NumStructs][]uint64
	unace   [NumStructs][]uint64
	sinks   []Sink
	rebase  uint64 // intervals are clipped to start no earlier than this

	// pend holds batched occupancy deltas not yet folded into ace/unace:
	// bit-cycle products indexed (s×threads+tid)×2, +1 for ACE. AddSpan
	// accumulates here with no accumulator dispatch and no sink check;
	// every reader drains first, so totals stay exact — uint64 additions
	// commute, making the deferral invisible (docs/performance.md).
	pend []uint64
}

// NewTracker builds a tracker for the given thread count; bits[s] is the
// total bit capacity of structure s (entries × bits per entry).
func NewTracker(threads int, bits [NumStructs]uint64) *Tracker {
	t := &Tracker{threads: threads, bits: bits, pend: make([]uint64, NumStructs*threads*2)}
	for s := 0; s < NumStructs; s++ {
		t.ace[s] = make([]uint64, threads)
		t.unace[s] = make([]uint64, threads)
	}
	return t
}

// AddSpan records 'bits' bits of structure s resident over [start, end)
// into the pending batch: the fast path of the no-sink classification. It
// clips against the rebase point and forms the same bits×cycles product as
// AddInterval, but defers the accumulator dispatch to the next drain.
// Callers must route spans through AddInterval instead whenever a sink is
// attached (HasSink) — the batch carries totals only, never interval
// positions.
func (t *Tracker) AddSpan(s Struct, tid int, bits, start, end uint64, ace bool) {
	if start < t.rebase {
		start = t.rebase
	}
	if end <= start {
		return
	}
	i := (int(s)*t.threads + tid) * 2
	if ace {
		i++
	}
	t.pend[i] += bits * (end - start)
}

// HasSink reports whether any positioned-interval sink is attached. Batched
// call sites check it to fall back to AddInterval, which forwards interval
// positions the batch cannot carry.
func (t *Tracker) HasSink() bool { return len(t.sinks) > 0 }

// drain folds the pending batched bit-cycles into the accumulators.
// Every reader calls it first, so the batch is never observable.
func (t *Tracker) drain() {
	for s := 0; s < NumStructs; s++ {
		base := s * t.threads * 2
		for tid := 0; tid < t.threads; tid++ {
			i := base + tid*2
			if c := t.pend[i]; c != 0 {
				t.unace[s][tid] += c
				t.pend[i] = 0
			}
			if c := t.pend[i+1]; c != 0 {
				t.ace[s][tid] += c
				t.pend[i+1] = 0
			}
		}
	}
}

// Threads returns the number of thread contexts tracked.
func (t *Tracker) Threads() int { return t.threads }

// Bits returns the bit capacity configured for structure s.
func (t *Tracker) Bits(s Struct) uint64 { return t.bits[s] }

// Add records bits×cycles of residency in structure s owned by thread tid,
// classified as ACE or un-ACE. Residency by state not owned by any thread
// (e.g. idle entries, which are un-ACE by definition) need not be recorded:
// the denominator already covers every bit of every cycle.
func (t *Tracker) Add(s Struct, tid int, bits, cycles uint64, ace bool) {
	if cycles == 0 || bits == 0 {
		return
	}
	bc := bits * cycles
	if ace {
		t.ace[s][tid] += bc
	} else {
		t.unace[s][tid] += bc
	}
}

// AVF returns the architectural vulnerability factor of structure s over a
// run of totalCycles cycles.
func (t *Tracker) AVF(s Struct, totalCycles uint64) float64 {
	t.drain()
	den := float64(t.bits[s]) * float64(totalCycles)
	if den == 0 {
		return 0
	}
	var num uint64
	for _, v := range t.ace[s] {
		num += v
	}
	return float64(num) / den
}

// ThreadAVF returns the AVF contribution of thread tid to structure s; the
// contributions over all threads sum to AVF(s).
func (t *Tracker) ThreadAVF(s Struct, tid int, totalCycles uint64) float64 {
	t.drain()
	den := float64(t.bits[s]) * float64(totalCycles)
	if den == 0 {
		return 0
	}
	return float64(t.ace[s][tid]) / den
}

// Occupancy returns the fraction of (bits × cycles) of structure s holding
// any tracked state, ACE or not — a utilization diagnostic.
func (t *Tracker) Occupancy(s Struct, totalCycles uint64) float64 {
	t.drain()
	den := float64(t.bits[s]) * float64(totalCycles)
	if den == 0 {
		return 0
	}
	var num uint64
	for tid := 0; tid < t.threads; tid++ {
		num += t.ace[s][tid] + t.unace[s][tid]
	}
	return float64(num) / den
}

// ThreadACEBitCycles returns the raw ACE numerator of structure s
// contributed by thread tid (vulnerability feedback for the VAware fetch
// policy).
func (t *Tracker) ThreadACEBitCycles(s Struct, tid int) uint64 {
	t.drain()
	return t.ace[s][tid]
}

// ACEBitCycles returns the raw ACE numerator of structure s (all threads).
func (t *Tracker) ACEBitCycles(s Struct) uint64 {
	t.drain()
	var num uint64
	for _, v := range t.ace[s] {
		num += v
	}
	return num
}

// OccupiedBitCycles returns the raw occupancy numerator of structure s —
// ACE plus un-ACE bit-cycles over all threads. Telemetry windows diff it
// between samples to report per-interval occupancy.
func (t *Tracker) OccupiedBitCycles(s Struct) uint64 {
	t.drain()
	var num uint64
	for tid := 0; tid < t.threads; tid++ {
		num += t.ace[s][tid] + t.unace[s][tid]
	}
	return num
}
