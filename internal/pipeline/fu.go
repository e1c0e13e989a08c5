package pipeline

import "smtavf/internal/isa"

// FUPool models the function units (paper Table 1: 8 I-ALU, 4 I-MUL/DIV,
// 4 load/store, 8 FP-ALU, 4 FP-MUL/DIV/SQRT). Pipelined units accept one
// operation per cycle; divide units are iterative and stay busy for the
// whole operation.
type FUPool struct {
	counts [isa.NumFUKinds]int
	busy   [isa.NumFUKinds][]uint64 // per-unit busy-until cycle

	// BusyAll accumulates unit-occupancy cycles, the numerator of the
	// FU utilization in MachineStats (AVF is charged through the uop's
	// ResLog.FUCycles).
	BusyAll uint64
}

// DefaultFUCounts returns the paper's Table 1 pool sizes.
func DefaultFUCounts() [isa.NumFUKinds]int {
	return [isa.NumFUKinds]int{
		isa.FUIntALU:    8,
		isa.FUIntMulDiv: 4,
		isa.FULoadStore: 4,
		isa.FUFPALU:     8,
		isa.FUFPMulDiv:  4,
	}
}

// NewFUPool builds a pool with the given unit counts.
func NewFUPool(counts [isa.NumFUKinds]int) *FUPool {
	p := &FUPool{counts: counts}
	for k := 0; k < isa.NumFUKinds; k++ {
		p.busy[k] = make([]uint64, counts[k])
	}
	return p
}

// Count returns the number of units of kind k.
func (p *FUPool) Count(k isa.FUKind) int { return p.counts[k] }

// TotalUnits returns the number of units across all kinds.
func (p *FUPool) TotalUnits() int {
	n := 0
	for _, c := range p.counts {
		n += c
	}
	return n
}

// TryIssue reserves a unit for an instruction of class c at cycle now,
// reporting success. On success the unit is occupied for the class's issue
// interval (1 cycle when pipelined, the full latency otherwise) and the
// uop should charge Latency() cycles of FU residency.
func (p *FUPool) TryIssue(c isa.Class, now uint64) bool {
	k := c.FU()
	units := p.busy[k]
	for i := range units {
		if units[i] <= now {
			if c.Pipelined() {
				units[i] = now + 1
			} else {
				units[i] = now + uint64(c.Latency())
			}
			p.BusyAll += uint64(c.Latency())
			return true
		}
	}
	return false
}
