package pipeline

import (
	"fmt"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/isa"
)

// newUop allocates a pool slot with the given identity, the test analogue
// of the fetch stage's acquire+Reset.
func newUop(p *Pool, tid int, gseq uint64, class isa.Class) UID {
	u := p.Alloc()
	in := isa.Instruction{Class: class, Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.RegNone}
	p.Reset(u, &in, int32(tid), gseq, 0, false, 0)
	return u
}

func trackerFor(threads int) *avf.Tracker {
	var bits [avf.NumStructs]uint64
	for i := range bits {
		bits[i] = 1 << 20
	}
	return avf.NewTracker(threads, bits)
}

// --- IQ ---

func TestIQInsertRemoveResidency(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 4, 1, 0)
	u := newUop(p, 0, 1, isa.IntALU)
	q.Insert(u, 10)
	if !p.Has(u, FInIQ) || q.Len() != 1 || q.ThreadCount(0) != 1 {
		t.Fatal("insert bookkeeping wrong")
	}
	q.Remove(u, 25)
	if p.Has(u, FInIQ) || q.Len() != 0 || q.ThreadCount(0) != 0 {
		t.Fatal("remove bookkeeping wrong")
	}
	if p.Res[u].IQCycles != 15 {
		t.Fatalf("IQ residency %d, want 15", p.Res[u].IQCycles)
	}
}

func TestIQCapacity(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 2, 1, 0)
	q.Insert(newUop(p, 0, 1, isa.IntALU), 0)
	q.Insert(newUop(p, 0, 2, isa.IntALU), 0)
	if q.CanInsert(0) {
		t.Fatal("full IQ accepts inserts")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-insert did not panic")
		}
	}()
	q.Insert(newUop(p, 0, 3, isa.IntALU), 0)
}

func TestIQPartition(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 8, 2, 2)
	q.Insert(newUop(p, 0, 1, isa.IntALU), 0)
	q.Insert(newUop(p, 0, 2, isa.IntALU), 0)
	if q.CanInsert(0) {
		t.Fatal("partition cap not enforced")
	}
	if !q.CanInsert(1) {
		t.Fatal("partition must be per thread")
	}
}

func TestIQReadyOldestFirst(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 8, 1, 0)
	u3 := newUop(p, 0, 3, isa.IntALU)
	u1 := newUop(p, 0, 1, isa.IntALU)
	u2 := newUop(p, 0, 2, isa.IntALU)
	q.Insert(u3, 0)
	q.Insert(u1, 0)
	q.Insert(u2, 0)
	// Wakeup order must not matter: the ready set sorts by GSeq.
	q.MarkReady(u3)
	q.MarkReady(u1)
	cand := q.AppendReady(nil)
	if len(cand) != 2 || cand[0] != u1 || cand[1] != u3 {
		t.Fatalf("ready set wrong: %v", cand)
	}
}

func TestIQReadyTieAcrossThreads(t *testing.T) {
	// Oldest-first selection is global: with equal per-thread ages the
	// unique GSeq (global fetch order) breaks the tie, so thread 1's
	// earlier-fetched uop outranks thread 0's later one.
	p := NewPool(8)
	q := NewIQ(p, 8, 2, 0)
	t1a := newUop(p, 1, 4, isa.IntALU)
	t0a := newUop(p, 0, 5, isa.IntALU)
	t1b := newUop(p, 1, 6, isa.IntALU)
	t0b := newUop(p, 0, 7, isa.IntALU)
	for _, u := range []UID{t0b, t1b, t0a, t1a} {
		q.Insert(u, 0)
		q.MarkReady(u)
	}
	cand := q.AppendReady(nil)
	want := []UID{t1a, t0a, t1b, t0b}
	for i, u := range want {
		if cand[i] != u {
			t.Fatalf("ready[%d] = GSeq %d (tid %d), want GSeq %d (tid %d)",
				i, p.GSeq[cand[i]], p.TID[cand[i]], p.GSeq[u], p.TID[u])
		}
	}
}

func TestIQMarkReadyMisusePanics(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 4, 1, 0)
	u := newUop(p, 0, 1, isa.IntALU)
	mustPanic(t, func() { q.MarkReady(u) }) // not resident
	q.Insert(u, 0)
	q.MarkReady(u)
	mustPanic(t, func() { q.MarkReady(u) }) // already ready
}

func TestIQRemoveDropsReady(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 8, 1, 0)
	u1 := newUop(p, 0, 1, isa.IntALU)
	u2 := newUop(p, 0, 2, isa.IntALU)
	q.Insert(u1, 0)
	q.Insert(u2, 0)
	q.MarkReady(u1)
	q.MarkReady(u2)
	q.Remove(u1, 5)
	if p.Has(u1, FInReady) || q.ReadyLen() != 1 {
		t.Fatal("Remove left the entry in the ready set")
	}
	if cand := q.AppendReady(nil); len(cand) != 1 || cand[0] != u2 {
		t.Fatalf("ready set after remove: %v", cand)
	}
	// The slot swap must keep IQIdx coherent for the survivor.
	q.Remove(u2, 6)
	if q.Len() != 0 || q.ReadyLen() != 0 {
		t.Fatal("queue not empty after removing both entries")
	}
}

func TestIQPartitionReleasedOnRemove(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 8, 2, 1)
	u := newUop(p, 0, 1, isa.IntALU)
	q.Insert(u, 0)
	if q.CanInsert(0) {
		t.Fatal("partition cap of 1 not enforced")
	}
	q.Remove(u, 3)
	if !q.CanInsert(0) {
		t.Fatal("partition slot not released by Remove")
	}
}

func TestIQRemoveAbsentPanics(t *testing.T) {
	p := NewPool(8)
	q := NewIQ(p, 4, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	q.Remove(newUop(p, 0, 1, isa.IntALU), 0)
}

// --- ROB ---

func TestROBFIFO(t *testing.T) {
	p := NewPool(8)
	r := NewROB(p, 3)
	u1, u2, u3 := newUop(p, 0, 1, isa.IntALU), newUop(p, 0, 2, isa.IntALU), newUop(p, 0, 3, isa.IntALU)
	r.Push(u1, 0)
	r.Push(u2, 0)
	r.Push(u3, 0)
	if !r.Full() {
		t.Fatal("ROB should be full")
	}
	if r.Head() != u1 || r.Tail() != u3 || r.At(1) != u2 {
		t.Fatal("ordering wrong")
	}
	if got := r.PopHead(10); got != u1 || p.Res[u1].ROBCycles != 10 {
		t.Fatal("pop head wrong")
	}
	if got := r.PopTail(20); got != u3 || p.Res[u3].ROBCycles != 20 {
		t.Fatal("pop tail wrong")
	}
	if r.Len() != 1 {
		t.Fatal("length wrong")
	}
}

func TestROBWrapAround(t *testing.T) {
	p := NewPool(16)
	r := NewROB(p, 2)
	for i := uint64(0); i < 10; i++ {
		u := newUop(p, 0, i, isa.IntALU)
		r.Push(u, 0)
		if got := r.PopHead(1); got != u {
			t.Fatalf("wrap iteration %d broken", i)
		}
	}
}

func TestROBPanics(t *testing.T) {
	p := NewPool(8)
	r := NewROB(p, 1)
	mustPanic(t, func() { r.PopHead(0) })
	mustPanic(t, func() { r.PopTail(0) })
	r.Push(newUop(p, 0, 1, isa.IntALU), 0)
	mustPanic(t, func() { r.Push(newUop(p, 0, 2, isa.IntALU), 0) })
	mustPanic(t, func() { r.At(1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// --- LSQ ---

func TestLSQResidencyAccounting(t *testing.T) {
	p := NewPool(8)
	q := NewLSQ(p, 4)
	ld := newUop(p, 0, 1, isa.Load)
	q.Push(ld, 10)
	p.Res[ld].DataAt = 30 // datum arrives
	q.PopHead(ld, 50)
	if p.Res[ld].LSQTagCycles != 40 {
		t.Fatalf("tag residency %d, want 40", p.Res[ld].LSQTagCycles)
	}
	if p.Res[ld].LSQDataCycles != 20 {
		t.Fatalf("data residency %d, want 20", p.Res[ld].LSQDataCycles)
	}
}

func TestLSQPopOrderEnforced(t *testing.T) {
	p := NewPool(8)
	q := NewLSQ(p, 4)
	a, b := newUop(p, 0, 1, isa.Load), newUop(p, 0, 2, isa.Store)
	q.Push(a, 0)
	q.Push(b, 0)
	mustPanic(t, func() { q.PopHead(b, 10) })
}

func TestLSQForwarding(t *testing.T) {
	p := NewPool(8)
	q := NewLSQ(p, 8)
	st := newUop(p, 0, 1, isa.Store)
	p.Ins[st].Addr = 0x1000
	ld := newUop(p, 0, 2, isa.Load)
	p.Ins[ld].Addr = 0x1000
	q.Push(st, 0)
	q.Push(ld, 0)
	// Store not yet executed: the load must wait.
	if _, wait := q.ForwardCheck(ld); !wait {
		t.Fatal("load did not wait for an unresolved older store")
	}
	p.Set(st, FExecuted)
	fwd, wait := q.ForwardCheck(ld)
	if wait || !fwd {
		t.Fatalf("forward=%v wait=%v, want forwarding", fwd, wait)
	}
	// A different address: no forwarding, no wait.
	ld2 := newUop(p, 0, 3, isa.Load)
	p.Ins[ld2].Addr = 0x2000
	q.Push(ld2, 0)
	fwd, wait = q.ForwardCheck(ld2)
	if fwd || wait {
		t.Fatal("unrelated load affected by store")
	}
}

func TestLSQForwardOnlyOlderStores(t *testing.T) {
	p := NewPool(8)
	q := NewLSQ(p, 8)
	ld := newUop(p, 0, 1, isa.Load)
	p.Ins[ld].Addr = 0x1000
	st := newUop(p, 0, 2, isa.Store) // younger than the load
	p.Ins[st].Addr = 0x1000
	p.Set(st, FExecuted)
	q.Push(ld, 0)
	q.Push(st, 0)
	if fwd, wait := q.ForwardCheck(ld); fwd || wait {
		t.Fatal("younger store affected an older load")
	}
}

func TestLSQPopTail(t *testing.T) {
	p := NewPool(8)
	q := NewLSQ(p, 4)
	a, b := newUop(p, 0, 1, isa.Load), newUop(p, 0, 2, isa.Store)
	q.Push(a, 0)
	q.Push(b, 5)
	if got := q.PopTail(15); got != b || p.Res[b].LSQTagCycles != 10 {
		t.Fatal("pop tail wrong")
	}
	if q.Tail() != a {
		t.Fatal("tail after pop wrong")
	}
}

// --- RegFile ---

// renameUop builds a pool slot with the given architectural operands and
// renames it.
func renameUop(p *Pool, rf *RegFile, gseq uint64, class isa.Class, src1, src2, dest isa.RegID, now uint64) UID {
	u := p.Alloc()
	in := isa.Instruction{Class: class, Src1: src1, Src2: src2, Dest: dest}
	p.Reset(u, &in, 0, gseq, now, false, now)
	rf.Rename(u, now)
	return u
}

func TestRenameAndReadiness(t *testing.T) {
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, nil, DefaultBits())
	u := renameUop(p, rf, 1, isa.IntALU, 1, 2, 3, 0)
	if p.Meta[u].PhysSrc1 < 0 || p.Meta[u].PhysSrc2 < 0 || p.Meta[u].PhysDest < 0 {
		t.Fatal("rename incomplete")
	}
	// Initial architectural registers are ready; the new dest is not.
	if !rf.Ready(int(p.Meta[u].PhysSrc1)) || rf.Ready(int(p.Meta[u].PhysDest)) {
		t.Fatal("readiness wrong after rename")
	}
	rf.Write(int(p.Meta[u].PhysDest), 5)
	if !rf.Ready(int(p.Meta[u].PhysDest)) {
		t.Fatal("writeback did not set ready")
	}
	// A consumer renamed later must see the new mapping.
	v := renameUop(p, rf, 2, isa.IntALU, 3, isa.RegNone, 4, 6)
	if p.Meta[v].PhysSrc1 != p.Meta[u].PhysDest {
		t.Fatal("consumer not mapped to producer's register")
	}
}

func TestRegFileWakeup(t *testing.T) {
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, nil, DefaultBits())
	var woken []UID
	rf.SetWake(func(u UID) { woken = append(woken, u) })

	prod := renameUop(p, rf, 1, isa.IntALU, isa.RegNone, isa.RegNone, 3, 0)

	// Both sources name the producer's unready register: two waiter-list
	// slots, one wake when the single write drains both.
	cons := renameUop(p, rf, 2, isa.IntALU, 3, 3, isa.RegNone, 0)
	if n := rf.WatchSources(cons); n != 2 {
		t.Fatalf("WatchSources = %d, want 2", n)
	}
	rf.Write(int(p.Meta[prod].PhysDest), 5)
	if len(woken) != 1 || woken[0] != cons {
		t.Fatalf("woken = %v, want exactly [cons]", woken)
	}
	if p.Meta[cons].WaitCount != 0 || p.Has(cons, FSrc1Wait) || p.Has(cons, FSrc2Wait) {
		t.Fatal("wait state not cleared by wakeup")
	}

	// Ready operands need no watch: the caller marks the uop ready itself.
	imm := renameUop(p, rf, 3, isa.IntALU, 1, isa.RegNone, isa.RegNone, 6)
	if n := rf.WatchSources(imm); n != 0 {
		t.Fatalf("WatchSources of ready operands = %d, want 0", n)
	}
}

func TestRegFileUnwatch(t *testing.T) {
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, nil, DefaultBits())
	woken := 0
	rf.SetWake(func(UID) { woken++ })

	prod := renameUop(p, rf, 1, isa.IntALU, isa.RegNone, isa.RegNone, 3, 0)
	stay := renameUop(p, rf, 2, isa.IntALU, 3, isa.RegNone, isa.RegNone, 0)
	gone := renameUop(p, rf, 3, isa.IntALU, 3, isa.RegNone, isa.RegNone, 0)
	rf.WatchSources(stay)
	rf.WatchSources(gone)

	// A squash drops gone from the list; the write must wake only stay.
	rf.Unwatch(gone)
	if p.Meta[gone].WaitCount != 0 || p.Has(gone, FSrc1Wait) {
		t.Fatal("Unwatch left wait state set")
	}
	rf.Unwatch(gone) // idempotent on a non-watching uop
	rf.Write(int(p.Meta[prod].PhysDest), 5)
	if woken != 1 {
		t.Fatalf("woken %d uops, want 1", woken)
	}
}

func TestRenameExhaustionAndCommitFree(t *testing.T) {
	p := NewPool(8)
	rf := NewRegFile(p, 33, 32, 1, nil, DefaultBits()) // one spare int reg
	if !rf.CanRename(isa.RegID(5)) {
		t.Fatal("one spare register should allow a rename")
	}
	u := renameUop(p, rf, 1, isa.IntALU, isa.RegNone, isa.RegNone, 5, 0)
	if rf.CanRename(isa.RegID(6)) {
		t.Fatal("pool exhausted but rename allowed")
	}
	// Committing u frees the old mapping of r5.
	rf.CommitFree(int(p.Meta[u].OldPhysDest), 10)
	if !rf.CanRename(isa.RegID(6)) {
		t.Fatal("commit did not free a register")
	}
}

func TestRollbackRestoresMapping(t *testing.T) {
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, nil, DefaultBits())
	before := rf.Mapping(0, 7)
	u := renameUop(p, rf, 1, isa.IntALU, isa.RegNone, isa.RegNone, 7, 0)
	if rf.Mapping(0, 7) == before {
		t.Fatal("rename did not change mapping")
	}
	rf.Rollback(u, 5)
	if rf.Mapping(0, 7) != before {
		t.Fatal("rollback did not restore mapping")
	}
	if rf.FreeCount(false) != 64-32 {
		t.Fatal("rollback did not free the register")
	}
}

func TestRegisterAVFLifetime(t *testing.T) {
	trk := trackerFor(1)
	bits := DefaultBits()
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, trk, bits)
	u := renameUop(p, rf, 1, isa.IntALU, isa.RegNone, isa.RegNone, 3, 100) // alloc at 100
	rf.Write(int(p.Meta[u].PhysDest), 150)
	rf.Read(int(p.Meta[u].PhysDest), 180)
	rf.Read(int(p.Meta[u].PhysDest), 220) // last read
	// Free it by committing an overwriting instruction.
	v := renameUop(p, rf, 2, isa.IntALU, isa.RegNone, isa.RegNone, 3, 230)
	rf.CommitFree(int(p.Meta[v].OldPhysDest), 300) // frees u's register
	// ACE interval: write(150) → last read(220) = 70 cycles.
	if got := trk.ACEBitCycles(avf.Reg); got != 70*bits.RegEntry {
		t.Fatalf("register ACE bit-cycles = %d, want %d", got, 70*bits.RegEntry)
	}
}

func TestSquashedRegisterEntirelyUnACE(t *testing.T) {
	trk := trackerFor(1)
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, trk, DefaultBits())
	u := renameUop(p, rf, 1, isa.IntALU, isa.RegNone, isa.RegNone, 3, 100)
	rf.Write(int(p.Meta[u].PhysDest), 150)
	rf.Read(int(p.Meta[u].PhysDest), 180)
	rf.Rollback(u, 200)
	if got := trk.ACEBitCycles(avf.Reg); got != 0 {
		t.Fatalf("squashed register counted ACE: %d", got)
	}
}

func TestNeverReadRegisterUnACEAfterWrite(t *testing.T) {
	trk := trackerFor(1)
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, trk, DefaultBits())
	u := renameUop(p, rf, 1, isa.IntALU, isa.RegNone, isa.RegNone, 3, 100)
	rf.Write(int(p.Meta[u].PhysDest), 150)
	v := renameUop(p, rf, 2, isa.IntALU, isa.RegNone, isa.RegNone, 3, 160)
	rf.CommitFree(int(p.Meta[v].OldPhysDest), 300)
	if got := trk.ACEBitCycles(avf.Reg); got != 0 {
		t.Fatalf("never-read register counted ACE: %d", got)
	}
}

func TestRegFileTooSmallPanics(t *testing.T) {
	p := NewPool(8)
	mustPanic(t, func() { NewRegFile(p, 63, 64, 2, nil, DefaultBits()) })
}

func TestFPBankSeparate(t *testing.T) {
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, nil, DefaultBits())
	u := renameUop(p, rf, 1, isa.FPALU, isa.RegNone, isa.RegNone, isa.FirstFPReg+3, 0)
	if p.Meta[u].PhysDest < 64 {
		t.Fatal("FP destination allocated from the integer bank")
	}
	if rf.FreeCount(true) != 31 || rf.FreeCount(false) != 32 {
		t.Fatalf("free counts %d/%d", rf.FreeCount(false), rf.FreeCount(true))
	}
}

func TestCloseAccountingCoversLiveRegisters(t *testing.T) {
	trk := trackerFor(1)
	bits := DefaultBits()
	p := NewPool(8)
	rf := NewRegFile(p, 64, 64, 1, trk, bits)
	// Architectural register read late in the run: ACE from 0 to the read.
	pr := rf.Mapping(0, 9)
	rf.Read(pr, 500)
	rf.CloseAccounting(1000)
	if got := trk.ACEBitCycles(avf.Reg); got != 500*bits.RegEntry {
		t.Fatalf("live register ACE = %d, want %d", got, 500*bits.RegEntry)
	}
}

// --- FUPool ---

func TestFUPoolPipelined(t *testing.T) {
	p := NewFUPool(DefaultFUCounts())
	// Eight IALUs: eight issues in one cycle, the ninth fails.
	for i := 0; i < 8; i++ {
		if !p.TryIssue(isa.IntALU, 10) {
			t.Fatalf("issue %d failed", i)
		}
	}
	if p.TryIssue(isa.IntALU, 10) {
		t.Fatal("ninth IALU issue granted")
	}
	if !p.TryIssue(isa.IntALU, 11) {
		t.Fatal("pipelined unit not free next cycle")
	}
}

func TestFUPoolUnpipelinedDivide(t *testing.T) {
	p := NewFUPool(DefaultFUCounts())
	for i := 0; i < 4; i++ {
		if !p.TryIssue(isa.IntDiv, 0) {
			t.Fatalf("divide issue %d failed", i)
		}
	}
	// All four divide units busy for the full latency.
	if p.TryIssue(isa.IntDiv, 5) {
		t.Fatal("busy divider granted")
	}
	if !p.TryIssue(isa.IntDiv, uint64(isa.IntDiv.Latency())) {
		t.Fatal("divider not free after latency")
	}
}

func TestFUPoolSharedMulDiv(t *testing.T) {
	p := NewFUPool(DefaultFUCounts())
	// Divides occupy the IMULDIV units multiplies need.
	for i := 0; i < 4; i++ {
		p.TryIssue(isa.IntDiv, 0)
	}
	if p.TryIssue(isa.IntMul, 1) {
		t.Fatal("multiply granted while dividers hold the pool")
	}
}

func TestFUUtilization(t *testing.T) {
	p := NewFUPool(DefaultFUCounts())
	p.TryIssue(isa.IntALU, 0)
	if want := uint64(isa.IntALU.Latency()); p.BusyAll != want {
		t.Fatalf("busy unit-cycles after one issue = %d, want %d", p.BusyAll, want)
	}
}

// --- Classification ---

func TestClassifyACE(t *testing.T) {
	trk := trackerFor(1)
	bits := DefaultBits()
	p := NewPool(8)
	u := newUop(p, 0, 1, isa.IntALU)
	p.Res[u].IQCycles, p.Res[u].ROBCycles, p.Res[u].FUCycles = 10, 20, 1
	p.Classify(trk, bits, u, false)
	if trk.ACEBitCycles(avf.IQ) != 10*bits.IQEntry {
		t.Fatal("IQ classification wrong")
	}
	if trk.ACEBitCycles(avf.ROB) != 20*bits.ROBEntry {
		t.Fatal("ROB classification wrong")
	}
	if trk.ACEBitCycles(avf.FU) != 1*bits.FUUnit {
		t.Fatal("FU classification wrong")
	}
}

func TestClassifyUnACECases(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(p *Pool, u UID)
		sq   bool
	}{
		{"nop", func(p *Pool, u UID) { p.Ins[u].Class = isa.NOP }, false},
		{"dead", func(p *Pool, u UID) { p.Ins[u].Dead = true }, false},
		{"wrongpath", func(p *Pool, u UID) { p.Set(u, FWrongPath) }, false},
		{"squashed", func(p *Pool, u UID) {}, true},
	} {
		trk := trackerFor(1)
		p := NewPool(8)
		u := newUop(p, 0, 1, isa.IntALU)
		p.Res[u].IQCycles = 10
		tc.mod(p, u)
		p.Classify(trk, DefaultBits(), u, tc.sq)
		if trk.ACEBitCycles(avf.IQ) != 0 {
			t.Errorf("%s counted ACE", tc.name)
		}
		if trk.Occupancy(avf.IQ, 100) == 0 {
			t.Errorf("%s residency lost entirely", tc.name)
		}
	}
}

func TestClassifyMemResidencies(t *testing.T) {
	trk := trackerFor(1)
	bits := DefaultBits()
	p := NewPool(8)
	u := newUop(p, 0, 1, isa.Load)
	p.Res[u].LSQTagCycles, p.Res[u].LSQDataCycles = 30, 12
	p.Classify(trk, bits, u, false)
	if trk.ACEBitCycles(avf.LSQTag) != 30*bits.LSQTagEntry {
		t.Fatal("LSQ tag classification wrong")
	}
	if trk.ACEBitCycles(avf.LSQData) != 12*bits.LSQDataEntry {
		t.Fatal("LSQ data classification wrong")
	}
}

// --- Fate ---

// TestFateMatchesACE walks every wrong-path × NOP × dead × squashed
// combination: Fate applies its precedence (wrong-path, then squashed,
// NOP, dead), and ACE agrees with both Fate.ACE and the ACE rule itself —
// a uop is ACE only when it commits on the correct path, is not a NOP,
// and its result is not dynamically dead.
func TestFateMatchesACE(t *testing.T) {
	p := NewPool(1)
	u := p.Alloc()
	for mask := 0; mask < 16; mask++ {
		wrongPath, nop, dead, squashed := mask&1 != 0, mask&2 != 0, mask&4 != 0, mask&8 != 0
		in := isa.Instruction{Class: isa.IntALU, Dead: dead}
		if nop {
			in.Class = isa.NOP
		}
		p.Reset(u, &in, 0, 1, 0, wrongPath, 0)
		want := avf.FateCommitted
		switch {
		case wrongPath:
			want = avf.FateWrongPath
		case squashed:
			want = avf.FateSquashed
		case nop:
			want = avf.FateNOP
		case dead:
			want = avf.FateDead
		}
		name := fmt.Sprintf("wrongPath=%v nop=%v dead=%v squashed=%v", wrongPath, nop, dead, squashed)
		fate := p.Fate(u, squashed)
		if fate != want {
			t.Errorf("%s: fate = %s, want %s", name, fate, want)
		}
		ace := !wrongPath && !squashed && !nop && !dead
		if got := p.ACE(u, squashed); got != ace || fate.ACE() != ace {
			t.Errorf("%s: ACE = %v, Fate.ACE() = %v, want %v", name, got, fate.ACE(), ace)
		}
	}
}
