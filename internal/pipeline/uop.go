// Package pipeline implements the microarchitecture structures of the
// simulated SMT machine — instruction queue, per-thread reorder buffers and
// load/store queues, the shared physical register file with renaming, and
// the function-unit pools — each instrumented for ACE/un-ACE residency
// accounting.
package pipeline

import (
	"smtavf/internal/avf"
	"smtavf/internal/isa"
)

// Bits is the per-entry bit widths used for AVF numerators and
// denominators. The absolute values scale both numerator and denominator
// of a structure's AVF identically, so AVF is insensitive to them; they
// matter only when structures are compared bit-for-bit.
type Bits struct {
	IQEntry      uint64 // opcode, two source tags, dest tag, immediate, flags
	ROBEntry     uint64 // PC, dest, exception/complete state
	LSQTagEntry  uint64 // address + control
	LSQDataEntry uint64 // 64-bit datum
	RegEntry     uint64 // 64-bit register
	FUUnit       uint64 // datapath latches of one function unit
}

// DefaultBits returns the bit widths used throughout the paper
// reproduction.
func DefaultBits() Bits {
	return Bits{
		IQEntry:      80,
		ROBEntry:     76,
		LSQTagEntry:  52,
		LSQDataEntry: 64,
		RegEntry:     64,
		FUUnit:       256,
	}
}

// Fate returns the classification reason of slot id's residency for the
// given squash outcome (squash fate is passed by the caller because the
// slot itself cannot know it). Committed is the only ACE fate: the uop
// committed, is not a NOP, and its result is consumed (not dynamically
// dead).
func (p *Pool) Fate(id UID, squashed bool) avf.Fate {
	switch {
	case p.Flags[id]&FWrongPath != 0:
		return avf.FateWrongPath
	case squashed:
		return avf.FateSquashed
	case p.Ins[id].Class == isa.NOP:
		return avf.FateNOP
	case p.Ins[id].Dead:
		return avf.FateDead
	}
	return avf.FateCommitted
}

// Residency is one structure-occupancy interval [Start, End) of a uop,
// carrying the per-entry bit width the interval is weighted with.
type Residency struct {
	Struct avf.Struct
	Bits   uint64
	Start  uint64
	End    uint64
}

// Residencies returns slot id's accumulated per-structure residency
// intervals. Classification and every retire observer consume this, so
// their accounting can never diverge. Intervals with End <= Start are
// empty (the structure was never occupied).
func (p *Pool) Residencies(id UID, bits Bits) [5]Residency {
	r := &p.Res[id]
	return [5]Residency{
		{avf.IQ, bits.IQEntry, r.EnterIQ, r.EnterIQ + r.IQCycles},
		{avf.ROB, bits.ROBEntry, r.EnterROB, r.EnterROB + r.ROBCycles},
		{avf.LSQTag, bits.LSQTagEntry, r.EnterLSQ, r.EnterLSQ + r.LSQTagCycles},
		{avf.LSQData, bits.LSQDataEntry, r.DataAt, r.DataAt + r.LSQDataCycles},
		{avf.FU, bits.FUUnit, r.IssuedAt, r.IssuedAt + r.FUCycles},
	}
}
