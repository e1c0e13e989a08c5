package pipeline

import (
	"smtavf/internal/avf"
	"smtavf/internal/digest"
	"smtavf/internal/isa"
)

type physReg struct {
	ready    bool
	written  bool
	allocAt  uint64
	writeAt  uint64
	lastRead uint64
	owner    int
}

// RegFile is the shared physical register pool with per-thread rename
// tables. Both the integer and floating-point banks live here; physical
// indices 0..NInt-1 are integer, NInt..NInt+NFP-1 floating point.
//
// AVF lifetime rule (paper §4.2): a register is un-ACE from allocation
// (rename) until writeback — it holds no valid data and will be overwritten
// — ACE from writeback to its last read, and un-ACE from the last read
// until it is freed.
type RegFile struct {
	pool      *Pool
	nInt, nFP int
	regs      []physReg
	freeInt   []int
	freeFP    []int
	rename    [][]int // [thread][arch] -> phys

	trk  *avf.Tracker
	bits Bits

	// Event-driven wakeup (docs/performance.md): waiters[p] holds the IQ
	// entries blocked on physical register p. Write drains the list and
	// calls wake on every entry whose WaitCount reaches zero, so the issue
	// stage never polls operand readiness. The lists hold pool ids.
	waiters [][]UID
	wake    func(UID)
}

// NewRegFile builds a pool of nInt+nFP physical registers shared by
// 'threads' contexts and maps every architectural register to an initial
// physical register holding architectural state (ready at cycle 0).
// The pool must hold at least threads×64 registers.
func NewRegFile(pool *Pool, nInt, nFP, threads int, trk *avf.Tracker, bits Bits) *RegFile {
	if nInt < threads*isa.NumIntRegs || nFP < threads*isa.NumFPRegs {
		panic("pipeline: physical register pool smaller than architectural state")
	}
	rf := &RegFile{
		pool:    pool,
		nInt:    nInt,
		nFP:     nFP,
		regs:    make([]physReg, nInt+nFP),
		trk:     trk,
		bits:    bits,
		waiters: make([][]UID, nInt+nFP),
	}
	next := 0
	nextFP := nInt
	for t := 0; t < threads; t++ {
		m := make([]int, isa.NumRegs)
		for a := 0; a < isa.NumIntRegs; a++ {
			m[a] = next
			rf.regs[next] = physReg{ready: true, written: true, owner: t}
			next++
		}
		for a := isa.NumIntRegs; a < isa.NumRegs; a++ {
			m[a] = nextFP
			rf.regs[nextFP] = physReg{ready: true, written: true, owner: t}
			nextFP++
		}
		rf.rename = append(rf.rename, m)
	}
	for p := next; p < nInt; p++ {
		rf.freeInt = append(rf.freeInt, p)
	}
	for p := nextFP; p < nInt+nFP; p++ {
		rf.freeFP = append(rf.freeFP, p)
	}
	return rf
}

// FreeCount returns the number of free registers in the selected bank.
func (rf *RegFile) FreeCount(fp bool) int {
	if fp {
		return len(rf.freeFP)
	}
	return len(rf.freeInt)
}

// CanRename reports whether a destination register of the given bank can be
// allocated now.
func (rf *RegFile) CanRename(dest isa.RegID) bool {
	if !dest.Valid() {
		return true
	}
	return rf.FreeCount(dest.IsFP()) > 0
}

// Rename maps u's sources through the thread's rename table and allocates a
// physical destination. The caller must have checked CanRename.
func (rf *RegFile) Rename(u UID, now uint64) {
	pl := rf.pool
	in := &pl.Ins[u]
	m := rf.rename[pl.TID[u]]
	pl.Meta[u].PhysSrc1, pl.Meta[u].PhysSrc2 = -1, -1
	if in.Src1.Valid() {
		pl.Meta[u].PhysSrc1 = int32(m[in.Src1])
	}
	if in.Src2.Valid() {
		pl.Meta[u].PhysSrc2 = int32(m[in.Src2])
	}
	pl.Meta[u].PhysDest, pl.Meta[u].OldPhysDest = -1, -1
	if !in.Dest.Valid() {
		return
	}
	var p int
	if in.Dest.IsFP() {
		p = rf.freeFP[len(rf.freeFP)-1]
		rf.freeFP = rf.freeFP[:len(rf.freeFP)-1]
	} else {
		p = rf.freeInt[len(rf.freeInt)-1]
		rf.freeInt = rf.freeInt[:len(rf.freeInt)-1]
	}
	pl.Meta[u].PhysDest = int32(p)
	pl.Meta[u].OldPhysDest = int32(m[in.Dest])
	m[in.Dest] = p
	rf.regs[p] = physReg{allocAt: now, owner: int(pl.TID[u])}
}

// Ready reports whether physical register p holds its value (p < 0 counts
// as an absent operand, always ready).
func (rf *RegFile) Ready(p int) bool {
	return p < 0 || rf.regs[p].ready
}

// SetWake installs the callback invoked when a waiting uop's last
// outstanding source operand is written (normally IQ.MarkReady).
func (rf *RegFile) SetWake(fn func(UID)) { rf.wake = fn }

// WatchSources registers u on the waiter list of each source operand that
// is not yet ready and returns the number of operands u now waits on. A
// return of 0 means u is register-ready immediately and the caller must
// mark it ready itself; otherwise the wake callback fires once the last
// watched register is written. A uop whose two sources name the same
// unready register takes two list slots and both drain on the same Write.
func (rf *RegFile) WatchSources(u UID) int {
	pl := rf.pool
	pl.Meta[u].WaitCount = 0
	pl.Flags[u] &^= FSrc1Wait | FSrc2Wait
	if p := pl.Meta[u].PhysSrc1; p >= 0 && !rf.regs[p].ready {
		rf.waiters[p] = append(rf.waiters[p], u)
		pl.Flags[u] |= FSrc1Wait
		pl.Meta[u].WaitCount++
	}
	if p := pl.Meta[u].PhysSrc2; p >= 0 && !rf.regs[p].ready {
		rf.waiters[p] = append(rf.waiters[p], u)
		pl.Flags[u] |= FSrc2Wait
		pl.Meta[u].WaitCount++
	}
	return int(pl.Meta[u].WaitCount)
}

// Unwatch drops u from any waiter lists it still sits on (a squash removed
// it from the IQ before its operands arrived).
func (rf *RegFile) Unwatch(u UID) {
	pl := rf.pool
	if pl.Meta[u].WaitCount == 0 {
		return
	}
	if pl.Flags[u]&FSrc1Wait != 0 {
		rf.dropWaiter(int(pl.Meta[u].PhysSrc1), u)
		pl.Flags[u] &^= FSrc1Wait
	}
	if pl.Flags[u]&FSrc2Wait != 0 {
		rf.dropWaiter(int(pl.Meta[u].PhysSrc2), u)
		pl.Flags[u] &^= FSrc2Wait
	}
	pl.Meta[u].WaitCount = 0
}

func (rf *RegFile) dropWaiter(p int, u UID) {
	ws := rf.waiters[p]
	for i, w := range ws {
		if w == u {
			last := len(ws) - 1
			ws[i] = ws[last]
			rf.waiters[p] = ws[:last]
			return
		}
	}
	panic("pipeline: Unwatch of a uop not on the waiter list")
}

// Write records writeback of physical register p at cycle now and wakes
// any uops whose last outstanding operand this write satisfies.
func (rf *RegFile) Write(p int, now uint64) {
	if p < 0 {
		return
	}
	r := &rf.regs[p]
	r.ready = true
	r.written = true
	r.writeAt = now
	if r.lastRead < now {
		r.lastRead = now
	}
	ws := rf.waiters[p]
	if len(ws) == 0 {
		return
	}
	pl := rf.pool
	rf.waiters[p] = ws[:0]
	for _, u := range ws {
		if pl.Flags[u]&FSrc1Wait != 0 && int(pl.Meta[u].PhysSrc1) == p {
			pl.Flags[u] &^= FSrc1Wait
		} else {
			pl.Flags[u] &^= FSrc2Wait
		}
		pl.Meta[u].WaitCount--
		if pl.Meta[u].WaitCount == 0 && rf.wake != nil {
			rf.wake(u)
		}
	}
}

// Read records an operand read of physical register p at cycle now. Only
// correct-path consumers should be recorded (wrong-path reads do not extend
// an ACE lifetime).
func (rf *RegFile) Read(p int, now uint64) {
	if p < 0 {
		return
	}
	if r := &rf.regs[p]; now > r.lastRead {
		r.lastRead = now
	}
}

// CommitFree releases the previous mapping of a committed uop's
// architectural destination and closes its AVF lifetime.
func (rf *RegFile) CommitFree(oldPhys int, now uint64) {
	if oldPhys < 0 {
		return
	}
	rf.closeLifetime(oldPhys, now, false)
	rf.pushFree(oldPhys)
}

// Rollback undoes u's rename during a squash at cycle now: the thread's
// table is restored and the allocated register is freed with an entirely
// un-ACE lifetime.
func (rf *RegFile) Rollback(u UID, now uint64) {
	pl := rf.pool
	d := int(pl.Meta[u].PhysDest)
	if d < 0 {
		return
	}
	rf.rename[pl.TID[u]][pl.Ins[u].Dest] = int(pl.Meta[u].OldPhysDest)
	rf.closeLifetime(d, now, true)
	rf.pushFree(d)
	pl.Meta[u].PhysDest = -1
}

func (rf *RegFile) pushFree(p int) {
	if p >= rf.nInt {
		rf.freeFP = append(rf.freeFP, p)
	} else {
		rf.freeInt = append(rf.freeInt, p)
	}
}

// closeLifetime books the AVF intervals of register p ending at cycle now.
func (rf *RegFile) closeLifetime(p int, now uint64, squashed bool) {
	if rf.trk == nil {
		return
	}
	r := &rf.regs[p]
	b := rf.bits.RegEntry
	if squashed || !r.written {
		// Never held committed data: the whole residency is un-ACE.
		rf.trk.AddInterval(avf.Reg, r.owner, b, r.allocAt, now, false)
		return
	}
	rf.trk.AddInterval(avf.Reg, r.owner, b, r.allocAt, r.writeAt, false)
	rf.trk.AddInterval(avf.Reg, r.owner, b, r.writeAt, r.lastRead, true)
	rf.trk.AddInterval(avf.Reg, r.owner, b, r.lastRead, now, false)
}

// CloseAccounting finalizes lifetimes of registers still allocated at the
// end of a run (architectural state and in-flight renames).
func (rf *RegFile) CloseAccounting(now uint64) {
	if rf.trk == nil {
		return
	}
	free := make(map[int]bool, len(rf.freeInt)+len(rf.freeFP))
	for _, p := range rf.freeInt {
		free[p] = true
	}
	for _, p := range rf.freeFP {
		free[p] = true
	}
	for p := range rf.regs {
		if !free[p] {
			rf.closeLifetime(p, now, false)
		}
	}
}

// Mapping returns thread tid's current physical mapping of arch (tests).
func (rf *RegFile) Mapping(tid int, arch isa.RegID) int { return rf.rename[tid][arch] }

// RenameDigest digests every thread's architectural→physical rename table
// for checkpoint identification.
func (rf *RegFile) RenameDigest() uint64 {
	h := digest.New()
	for tid := range rf.rename {
		for arch, phys := range rf.rename[tid] {
			h = digest.Mix(h, uint64(tid)<<32|uint64(arch))
			h = digest.Mix(h, uint64(phys))
		}
	}
	return h
}
