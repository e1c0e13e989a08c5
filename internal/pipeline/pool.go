package pipeline

import (
	"smtavf/internal/avf"
	"smtavf/internal/isa"
)

// UID indexes a uop slot in a Pool. The pipeline containers (IQ, ROB,
// LSQ, register-file waiter lists) and the core's scan state hold UIDs
// instead of *Uop pointers, so the per-cycle hot loop walks pointer-free
// parallel slices: the garbage collector never scans or write-barriers
// them, and each field sweep touches one densely packed array.
type UID int32

// NoUID marks an absent uop reference.
const NoUID UID = -1

// Uop flag bits (Pool.Flags). They pack the booleans of the classic Uop
// struct into one word per slot so a squash or reset touches one store.
const (
	FWrongPath uint32 = 1 << iota // fetched down a mispredicted path
	FPredTaken
	FMispred
	FInIQ
	FInReady
	FIssued
	FExecuted
	FFlushLoad
	FSquashed
	FSrc1Wait
	FSrc2Wait
	FCountedL1
	FCountedL2
	FPredL1
	FPredL2
	FForwarded
	FSleeping // parked out of the ready set awaiting a store execution
)

// Meta packs a uop's rename, container-index, and timing fields into one
// 64-byte record — exactly a cache line. A single uop touch (dispatch,
// issue, commit) reads one Meta line instead of a dozen scattered arrays;
// see docs/performance.md for the layout rationale.
type Meta struct {
	PhysSrc1, PhysSrc2    int32
	PhysDest, OldPhysDest int32
	IQIdx, LSQIdx         int32
	WaitCount, DL1Kind    int32
	FetchedAt, PredTarget uint64
	FrontReady, ReadyAt   uint64
}

// ResLog is a uop's residency record: the cycle it entered each tracked
// structure and the cycles it accumulated there. These feed the AVF
// classification itself, so they are hot state, packed into two cache
// lines per uop.
type ResLog struct {
	EnterIQ, IQCycles      uint64
	EnterROB, ROBCycles    uint64
	EnterLSQ, LSQTagCycles uint64
	DataAt, LSQDataCycles  uint64
	IssuedAt, FUCycles     uint64
}

// Pool is the structure-of-arrays uop store (docs/performance.md): hot
// per-uop state lives in parallel slices indexed by UID — scan-critical
// scalars (GSeq for age ordering, Flags for state tests, TID) in their own
// dense arrays, and the remaining per-uop fields grouped by access pattern
// into the cache-line-sized Meta and ResLog records. Slots are recycled by
// the core's per-thread free lists; Alloc only grows the arrays when a
// thread's free list is empty.
//
// The classic Uop struct remains as the observer-facing view: Materialize
// copies a slot into one, and is called only at classification sites and
// only when a pipetrace/propagation/cpistack observer is attached — the
// side-table rule that keeps the no-observer path free of per-uop struct
// traffic.
type Pool struct {
	// Instruction identity, written once at fetch. isa.Instruction is
	// pointer-free, so this slice costs the collector nothing.
	Ins []isa.Instruction

	TID   []int32
	GSeq  []uint64 // global fetch order, for age-based selection
	Flags []uint32

	Meta []Meta
	Res  []ResLog
}

// NewPool builds a pool with room reserved for capacity slots (it still
// grows on demand past that).
func NewPool(capacity int) *Pool {
	return &Pool{
		Ins:   make([]isa.Instruction, 0, capacity),
		TID:   make([]int32, 0, capacity),
		GSeq:  make([]uint64, 0, capacity),
		Flags: make([]uint32, 0, capacity),
		Meta:  make([]Meta, 0, capacity),
		Res:   make([]ResLog, 0, capacity),
	}
}

// Len returns the number of allocated slots.
func (p *Pool) Len() int { return len(p.GSeq) }

// Alloc returns a fresh slot. Its fields are unspecified until Reset.
func (p *Pool) Alloc() UID {
	id := UID(len(p.GSeq))
	p.Ins = append(p.Ins, isa.Instruction{})
	p.TID = append(p.TID, 0)
	p.GSeq = append(p.GSeq, 0)
	p.Flags = append(p.Flags, 0)
	p.Meta = append(p.Meta, Meta{PhysSrc1: -1, PhysSrc2: -1, PhysDest: -1, OldPhysDest: -1, IQIdx: -1, LSQIdx: -1})
	p.Res = append(p.Res, ResLog{})
	return id
}

// Reset gives slot id a new identity: instruction in, owning thread tid,
// global sequence gseq, fetched at cycle now with the given wrong-path
// mode and front-end-ready cycle. Every other field returns to its zero
// state, exactly like the classic full-struct assignment at fetch.
func (p *Pool) Reset(id UID, in *isa.Instruction, tid int32, gseq, now uint64, wrongPath bool, frontReady uint64) {
	p.Ins[id] = *in
	p.ResetState(id, tid, gseq, now, wrongPath, frontReady)
}

// ResetState is Reset without the instruction write: the fetch hot path
// materializes the instruction directly into Ins[id] (trace NextInto) and
// then re-initializes the remaining fields here, avoiding a second struct
// copy per fetched instruction.
func (p *Pool) ResetState(id UID, tid int32, gseq, now uint64, wrongPath bool, frontReady uint64) {
	p.TID[id] = tid
	p.GSeq[id] = gseq
	if wrongPath {
		p.Flags[id] = FWrongPath
	} else {
		p.Flags[id] = 0
	}
	p.Meta[id] = Meta{
		PhysSrc1: -1, PhysSrc2: -1, PhysDest: -1, OldPhysDest: -1,
		IQIdx: -1, LSQIdx: -1,
		FetchedAt: now, FrontReady: frontReady,
	}
	p.Res[id] = ResLog{}
}

// Has reports whether slot id carries flag f.
func (p *Pool) Has(id UID, f uint32) bool { return p.Flags[id]&f != 0 }

// Set sets flag f on slot id.
func (p *Pool) Set(id UID, f uint32) { p.Flags[id] |= f }

// ACE reports whether slot id's state was Architecturally required for
// Correct Execution — the SoA equivalent of Uop.ACE.
func (p *Pool) ACE(id UID, squashed bool) bool {
	return !squashed && p.Flags[id]&FWrongPath == 0 &&
		p.Ins[id].Class != isa.NOP && !p.Ins[id].Dead
}

// Classify adds slot id's accumulated residencies to the tracker with the
// given fate, in the exact structure order of Uop.Classify. It must be
// called exactly once per uop, at commit or squash time.
func (p *Pool) Classify(trk *avf.Tracker, bits Bits, id UID, squashed bool) {
	ace := p.ACE(id, squashed)
	tid := int(p.TID[id])
	r := &p.Res[id]
	trk.AddInterval(avf.IQ, tid, bits.IQEntry, r.EnterIQ, r.EnterIQ+r.IQCycles, ace)
	trk.AddInterval(avf.ROB, tid, bits.ROBEntry, r.EnterROB, r.EnterROB+r.ROBCycles, ace)
	trk.AddInterval(avf.LSQTag, tid, bits.LSQTagEntry, r.EnterLSQ, r.EnterLSQ+r.LSQTagCycles, ace)
	trk.AddInterval(avf.LSQData, tid, bits.LSQDataEntry, r.DataAt, r.DataAt+r.LSQDataCycles, ace)
	trk.AddInterval(avf.FU, tid, bits.FUUnit, r.IssuedAt, r.IssuedAt+r.FUCycles, ace)
}

// ClassifyBatch is the batched form of Classify: it accumulates slot id's
// residencies into the tracker's pending occupancy batch (Tracker.AddSpan)
// instead of emitting positioned intervals. The totals are identical —
// bit-cycle additions commute — but the no-sink hot path skips the
// per-interval sink dispatch entirely. Callers must use Classify whenever
// Tracker.HasSink reports an attached interval consumer.
func (p *Pool) ClassifyBatch(trk *avf.Tracker, bits Bits, id UID, squashed bool) {
	ace := p.ACE(id, squashed)
	tid := int(p.TID[id])
	r := &p.Res[id]
	trk.AddSpan(avf.IQ, tid, bits.IQEntry, r.EnterIQ, r.EnterIQ+r.IQCycles, ace)
	trk.AddSpan(avf.ROB, tid, bits.ROBEntry, r.EnterROB, r.EnterROB+r.ROBCycles, ace)
	trk.AddSpan(avf.LSQTag, tid, bits.LSQTagEntry, r.EnterLSQ, r.EnterLSQ+r.LSQTagCycles, ace)
	trk.AddSpan(avf.LSQData, tid, bits.LSQDataEntry, r.DataAt, r.DataAt+r.LSQDataCycles, ace)
	trk.AddSpan(avf.FU, tid, bits.FUUnit, r.IssuedAt, r.IssuedAt+r.FUCycles, ace)
}

// Materialize copies slot id into the observer-facing Uop view. The
// flight recorder, propagation tracer, and CPI-stack observer all consume
// the classic struct; the core fills one scratch Uop per Record call, and
// only while such an observer is attached.
func (p *Pool) Materialize(id UID, u *Uop) {
	fl := p.Flags[id]
	m := &p.Meta[id]
	r := &p.Res[id]
	*u = Uop{
		Instruction:   p.Ins[id],
		TID:           int(p.TID[id]),
		GSeq:          p.GSeq[id],
		WrongPath:     fl&FWrongPath != 0,
		PredTaken:     fl&FPredTaken != 0,
		PredTarget:    m.PredTarget,
		Mispred:       fl&FMispred != 0,
		FetchedAt:     m.FetchedAt,
		PhysSrc1:      int(m.PhysSrc1),
		PhysSrc2:      int(m.PhysSrc2),
		PhysDest:      int(m.PhysDest),
		OldPhysDest:   int(m.OldPhysDest),
		InIQ:          fl&FInIQ != 0,
		IQIdx:         int(m.IQIdx),
		InReady:       fl&FInReady != 0,
		Issued:        fl&FIssued != 0,
		Executed:      fl&FExecuted != 0,
		FrontReady:    m.FrontReady,
		ReadyAt:       m.ReadyAt,
		LSQIdx:        int(m.LSQIdx),
		FlushLoad:     fl&FFlushLoad != 0,
		Squashed:      fl&FSquashed != 0,
		WaitCount:     int(m.WaitCount),
		Src1Wait:      fl&FSrc1Wait != 0,
		Src2Wait:      fl&FSrc2Wait != 0,
		CountedL1:     fl&FCountedL1 != 0,
		CountedL2:     fl&FCountedL2 != 0,
		PredL1:        fl&FPredL1 != 0,
		PredL2:        fl&FPredL2 != 0,
		DL1Kind:       int(m.DL1Kind),
		Forwarded:     fl&FForwarded != 0,
		EnterIQ:       r.EnterIQ,
		IQCycles:      r.IQCycles,
		EnterROB:      r.EnterROB,
		ROBCycles:     r.ROBCycles,
		EnterLSQ:      r.EnterLSQ,
		LSQTagCycles:  r.LSQTagCycles,
		DataAt:        r.DataAt,
		LSQDataCycles: r.LSQDataCycles,
		IssuedAt:      r.IssuedAt,
		FUCycles:      r.FUCycles,
	}
}
