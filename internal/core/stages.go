package core

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/fetch"
	"smtavf/internal/isa"
	"smtavf/internal/mem"
	"smtavf/internal/pipeline"
)

// commit retires up to CommitWidth instructions across threads in
// round-robin order, each thread committing in program order from its ROB
// head. Stores write the DL1 here (write-back point); committed uops free
// their previous register mapping and classify their residencies as ACE or
// un-ACE.
func (p *Processor) commit() {
	pl := p.pool
	budget := p.cfg.CommitWidth
	n := len(p.threads)
	start := p.commitRR
	p.commitRR = rr(start+1, n)
	for i := 0; i < n && budget > 0; i++ {
		t := p.threads[rr(start+i, n)]
		for budget > 0 && !t.finished {
			u := t.rob.Head()
			if u == pipeline.NoUID || pl.Flags[u]&pipeline.FExecuted == 0 {
				break
			}
			in := &pl.Ins[u]
			if in.Class == isa.Store {
				if !p.dl1.TryPort(p.now) {
					break // store port busy: retry next cycle
				}
				p.dl1.Access(p.now, in.Addr, int(in.Size), true, t.id)
			}
			if in.Seq != t.nextCommit || pl.Flags[u]&pipeline.FWrongPath != 0 {
				// The commit stream must be exactly the program's dynamic
				// instruction order; any gap means squash/refetch broke.
				panic(fmt.Sprintf("core: thread %d commits seq %d (wrongPath=%v), want %d",
					t.id, in.Seq, pl.Flags[u]&pipeline.FWrongPath != 0, t.nextCommit))
			}
			t.nextCommit++
			if pl.Meta[u].LSQIdx >= 0 {
				t.lsq.PopHead(u, p.now)
			}
			t.rob.PopHead(p.now)
			if pl.Meta[u].PhysDest >= 0 {
				p.rf.CommitFree(int(pl.Meta[u].OldPhysDest), p.now)
			}
			p.classifyUop(u, false)
			p.recordObservers(u, false)
			t.committed++
			p.totalCommitted++
			p.lastCommitCycle = p.now
			t.stream.Release(in.Seq + 1)
			t.releaseUop(u) // committed: out of every structure; recycle
			budget--
			if t.quota > 0 && t.committed >= t.quota {
				t.finished = true
				break
			}
		}
	}
}

// writeback completes executions whose results arrive this cycle: results
// become visible to consumers, outstanding-miss counters resolve, and
// mispredicted branches trigger recovery.
func (p *Processor) writeback() {
	// Event-driven skip: no in-flight result is due before wbMinReady, and
	// squashed uops awaiting release are counted, so a cycle with neither
	// touches nothing the scan below would change.
	if p.wbSquashed == 0 && p.now < p.wbMinReady {
		return
	}
	pl := p.pool
	keep := p.inflight[:0]
	minReady := ^uint64(0)
	for _, u := range p.inflight {
		if pl.Flags[u]&pipeline.FSquashed != 0 {
			// The squash classified and recorded it already, but it was
			// mid-execution then, so its release was deferred to here.
			p.threads[pl.TID[u]].releaseUop(u)
			p.wbSquashed--
			continue
		}
		if r := pl.Meta[u].ReadyAt; r > p.now {
			keep = append(keep, u)
			if r < minReady {
				minReady = r
			}
			continue
		}
		pl.Flags[u] |= pipeline.FExecuted
		t := p.threads[pl.TID[u]]
		if d := pl.Meta[u].PhysDest; d >= 0 {
			p.rf.Write(int(d), p.now)
		}
		switch pl.Ins[u].Class {
		case isa.Load:
			pl.Res[u].DataAt = p.now // datum lands in the LSQ data array
			p.resolveMissCounters(t, u)
		case isa.Store:
			p.wakeSleepers(t)
		}
		if t.wpBranch == u {
			p.recoverMispredict(t, u)
		}
	}
	p.inflight = keep
	// A recovery above may have squashed entries already kept this scan;
	// wbSquashed counts them, so the next cycle still scans and releases
	// them — minReady only has to be a lower bound on undisturbed results.
	p.wbMinReady = minReady
}

// wakeSleepers returns thread t's parked loads to the IQ ready set after a
// store execution — the only event that can clear their disambiguation
// block. Loads still blocked simply park again at their next selection;
// stale entries (squashed loads, recycled slots) are filtered by the flag
// guard, so a spurious wake costs one recheck and nothing else.
func (p *Processor) wakeSleepers(t *thread) {
	s := t.lsq.Sleepers()
	if len(s) == 0 {
		return
	}
	pl := p.pool
	for _, ld := range s {
		fl := pl.Flags[ld]
		if fl&pipeline.FSleeping != 0 && fl&pipeline.FInIQ != 0 && fl&pipeline.FInReady == 0 {
			pl.Flags[ld] = fl &^ pipeline.FSleeping
			p.iq.MarkReady(ld)
		}
	}
	t.lsq.ClearSleepers()
}

// resolveMissCounters drops the outstanding/predicted miss counts a load
// contributed, at resolution or squash.
func (p *Processor) resolveMissCounters(t *thread, u pipeline.UID) {
	fl := p.pool.Flags[u]
	if fl&pipeline.FCountedL1 != 0 {
		t.outL1--
	}
	if fl&pipeline.FCountedL2 != 0 {
		t.outL2--
	}
	if fl&pipeline.FPredL1 != 0 {
		t.predL1--
	}
	if fl&pipeline.FPredL2 != 0 {
		t.predL2--
	}
	p.pool.Flags[u] = fl &^ (pipeline.FCountedL1 | pipeline.FCountedL2 |
		pipeline.FPredL1 | pipeline.FPredL2)
}

// issue selects up to IssueWidth ready instructions from the IQ, oldest
// first, subject to function-unit and cache-port availability. Loads access
// the DL1 (or forward from an older store); the FLUSH policy's squash
// triggers here, when a load discovers an L2 miss.
func (p *Processor) issue() {
	if p.iq.ReadyLen() == 0 {
		p.flushBuf = p.flushBuf[:0]
		return
	}
	pl := p.pool
	// Snapshot the ready set (register operands available, oldest first):
	// issuing removes entries from the set mid-loop, so iterate a copy in
	// the reusable scratch buffer.
	p.issueBuf = p.iq.AppendReady(p.issueBuf[:0])
	budget := p.cfg.IssueWidth
	flushLoads := p.flushBuf[:0]
	for _, u := range p.issueBuf {
		if budget == 0 {
			break
		}
		t := p.threads[pl.TID[u]]
		class := pl.Ins[u].Class
		forwarded := false
		if class == isa.Load {
			// One disambiguation check per load per cycle: a wait keeps
			// the load in the ready set without consuming issue budget.
			// ForwardCheck only reads Executed flags and LSQ membership,
			// neither of which changes inside this loop, so checking at
			// selection time equals the old check-then-recheck.
			fwd, wait := t.lsq.ForwardCheck(u)
			if wait {
				// Older store address/data unknown. Park the load out of
				// the ready set: only a store execution in this thread can
				// unblock it, so writeback re-wakes it then instead of
				// this loop re-checking it every cycle.
				p.iq.Unready(u)
				pl.Flags[u] |= pipeline.FSleeping
				t.lsq.AddSleeper(u)
				continue
			}
			forwarded = fwd
			if !forwarded && !p.dl1.TryPort(p.now) {
				continue // no load port this cycle
			}
		}
		if !p.fus.TryIssue(class, p.now) {
			continue
		}
		p.iq.Remove(u, p.now)
		pl.Flags[u] |= pipeline.FIssued
		pl.Res[u].IssuedAt = p.now
		if pl.Flags[u]&pipeline.FWrongPath == 0 {
			p.rf.Read(int(pl.Meta[u].PhysSrc1), p.now)
			p.rf.Read(int(pl.Meta[u].PhysSrc2), p.now)
		}
		lat := uint64(class.Latency())
		switch class {
		case isa.Load:
			addr := pl.Ins[u].Addr
			pen, _ := p.dtlb.Access(p.now, addr, t.id)
			if forwarded {
				pl.Meta[u].ReadyAt = p.now + lat + uint64(pen)
				pl.Flags[u] |= pipeline.FForwarded
				t.loadForwards++
			} else {
				res := p.dl1.Access(p.now+lat+uint64(pen), addr, int(pl.Ins[u].Size), false, t.id)
				pl.Meta[u].ReadyAt = res.Ready
				pl.Meta[u].DL1Kind = int32(res.Kind)
				t.dl1Loads++
				if res.Kind != mem.Hit {
					pl.Flags[u] |= pipeline.FCountedL1
					t.outL1++
					t.dl1LoadMisses++
				}
				if res.Kind == mem.L2Miss {
					pl.Flags[u] |= pipeline.FCountedL2
					t.outL2++
					t.l2LoadMisses++
					if p.policy.FlushOnL2Miss() && pl.Flags[u]&pipeline.FWrongPath == 0 {
						flushLoads = append(flushLoads, u)
					}
				}
				pc := pl.Ins[u].PC
				p.l1MissPred.Update(pc, res.Kind != mem.Hit)
				p.l2MissPred.Update(pc, res.Kind == mem.L2Miss)
			}
		case isa.Store:
			pen, _ := p.dtlb.Access(p.now, pl.Ins[u].Addr, t.id)
			pl.Meta[u].ReadyAt = p.now + lat + uint64(pen)
			pl.Res[u].DataAt = pl.Meta[u].ReadyAt // store datum waits in the LSQ data array
		default:
			pl.Meta[u].ReadyAt = p.now + lat
		}
		pl.Res[u].FUCycles += lat
		p.inflight = append(p.inflight, u)
		if pl.Meta[u].ReadyAt < p.wbMinReady {
			p.wbMinReady = pl.Meta[u].ReadyAt
		}
		budget--
	}
	p.flushBuf = flushLoads
	// FLUSH: squash everything younger than the L2-missing load; the
	// thread refetches it when the miss returns (fetch is gated by the
	// policy while outL2 > 0). Oldest flush per thread wins.
	for _, u := range flushLoads {
		t := p.threads[pl.TID[u]]
		if pl.Flags[u]&pipeline.FSquashed != 0 {
			continue // an older flush already removed it
		}
		pl.Flags[u] |= pipeline.FFlushLoad
		t.flushes++
		p.squashThread(t, pl.GSeq[u])
	}
}

// dispatch renames and inserts front-end instructions into the IQ, ROB,
// and LSQ, round-robin across threads up to DispatchWidth.
func (p *Processor) dispatch() {
	pl := p.pool
	budget := p.cfg.DispatchWidth
	n := len(p.threads)
	start := p.dispatchRR
	p.dispatchRR = rr(start+1, n)
	for i := 0; i < n && budget > 0; i++ {
		t := p.threads[rr(start+i, n)]
		for budget > 0 && t.fetchQ.Len() > 0 {
			u := t.fetchQ.Front()
			if pl.Meta[u].FrontReady > p.now {
				break
			}
			class := pl.Ins[u].Class
			if t.rob.Full() {
				t.robFullStalls++
				break
			}
			if class.IsMem() && t.lsq.Full() {
				t.lsqFullStalls++
				break
			}
			if !p.iq.CanInsert(t.id) {
				t.iqFullStalls++
				break
			}
			if !p.rf.CanRename(pl.Ins[u].Dest) {
				t.renameStalls++
				break
			}
			p.rf.Rename(u, p.now)
			t.rob.Push(u, p.now)
			if class.IsMem() {
				t.lsq.Push(u, p.now)
			}
			p.iq.Insert(u, p.now)
			// Register on the waiter lists of any unready operands; a uop
			// with none is ready the moment it enters the queue (issue
			// precedes dispatch in step(), so it still cannot issue before
			// the next cycle — exactly the polled scheduler's behavior).
			if p.rf.WatchSources(u) == 0 {
				p.iq.MarkReady(u)
			}
			t.fetchQ.PopFront()
			budget--
		}
	}
}

// fetchStage asks the policy which threads may fetch and distributes the
// fetch bandwidth over them (ICOUNT2.8: up to MaxFetchThreads threads, up
// to FetchWidth instructions in total).
func (p *Processor) fetchStage() {
	if p.now&(vulnWindow-1) == 0 {
		p.updateVulnFeedback()
	}
	// Event-driven skip: when no thread could fetch this cycle, building
	// the policy snapshot is pure overhead. Stateful policies (RR's turn
	// counter) still need their Order call every cycle.
	if p.policyPure {
		fetchable := false
		for _, t := range p.threads {
			if !t.done() && p.now >= t.stallUntil && t.fetchQ.Len() < p.cfg.FetchQueue {
				fetchable = true
				break
			}
		}
		if !fetchable {
			return
		}
	}
	states := p.fetchStates
	for i, t := range p.threads {
		states[i] = fetch.ThreadState{
			Active:        !t.done(),
			InFlight:      t.icount(p.iq),
			OutstandingL1: t.outL1,
			OutstandingL2: t.outL2,
			PredictedL1:   t.predL1,
			PredictedL2:   t.predL2,
			RecentACE:     t.recentACE,
		}
	}
	p.fetchOrder = p.policy.Order(states, p.fetchOrder[:0])
	budget := p.cfg.FetchWidth
	used := 0
	for _, tid := range p.fetchOrder {
		if budget == 0 || used == p.cfg.MaxFetchThreads {
			break
		}
		t := p.threads[tid]
		if t.done() || p.now < t.stallUntil || t.fetchQ.Len() >= p.cfg.FetchQueue {
			continue
		}
		n := p.fetchThread(t, budget)
		budget -= n
		used++
	}
}

// vulnWindow is the cycle period (a power of two) of the vulnerability
// feedback refresh that drives the VAware policy.
const vulnWindow = 512

// updateVulnFeedback refreshes each thread's moving-average ACE
// contribution to the shared pipeline structures. Classification happens
// at commit/squash, so the signal lags residency by the pipeline depth —
// fine for a fetch-throttling heuristic.
func (p *Processor) updateVulnFeedback() {
	for i, t := range p.threads {
		var cur uint64
		for _, s := range [...]avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData} {
			cur += p.trk.ThreadACEBitCycles(s, i)
		}
		delta := float64(cur - t.vaLastACE)
		t.vaLastACE = cur
		t.recentACE = 0.7*t.recentACE + 0.3*delta
	}
}

// fetchThread pulls up to max instructions for thread t, stopping at a
// predicted-taken branch, a front-end stall, or the fetch-queue limit.
func (p *Processor) fetchThread(t *thread, max int) int {
	pl := p.pool
	fetched := 0
	for fetched < max && t.fetchQ.Len() < p.cfg.FetchQueue {
		// Address of the next instruction, in this thread's address space.
		var pc uint64
		if t.wrongPath {
			pc = t.wrongPathPC
		} else {
			pc = t.stream.PeekPC() + t.offset
		}

		// Instruction-fetch memory access, once per cache line.
		line := pc &^ (uint64(p.cfg.IL1.LineSize) - 1)
		if line != t.lastFetchLine {
			if !p.il1.TryPort(p.now) {
				break
			}
			pen, _ := p.itlb.Access(p.now, pc, t.id)
			res := p.il1.Access(p.now, pc, 4, false, t.id)
			t.lastFetchLine = line
			ready := res.Ready + uint64(pen)
			if ready > p.now+uint64(p.cfg.IL1.Latency) {
				t.stallUntil = ready
				t.stallICache = true
				break
			}
		}

		// Recycle a pool slot from the thread's free list and materialize
		// the instruction straight into its record; ResetState then zeroes
		// every other stale field before the new identity lands.
		u := t.acquireUop(pl)
		in := &pl.Ins[u]
		if t.wrongPath {
			t.wrong.NextInto(t.wrongPathPC, in)
			if in.Class.IsMem() {
				in.Addr += t.offset
			}
		} else {
			t.stream.NextInto(in)
			in.PC += t.offset
			if in.Class.IsMem() {
				in.Addr += t.offset
			}
			if in.Class.IsCTI() && in.Taken {
				in.Target += t.offset
			}
		}
		pl.ResetState(u, int32(t.id), p.gseq, p.now, t.wrongPath,
			p.now+uint64(p.cfg.FrontEndDepth))
		p.gseq++

		if in.Class.IsCTI() {
			p.predictCTI(t, u)
		}
		if in.Class == isa.Load && !t.wrongPath {
			if p.l1MissPred.Predict(in.PC) {
				pl.Flags[u] |= pipeline.FPredL1
				t.predL1++
			}
			if p.l2MissPred.Predict(in.PC) {
				pl.Flags[u] |= pipeline.FPredL2
				t.predL2++
			}
		}

		t.fetchQ.PushBack(u)
		t.fetched++
		if t.wrongPath {
			t.wrongPathFetch++
		}
		fetched++

		if !in.Class.IsCTI() {
			if t.wrongPath {
				t.wrongPathPC = in.PC + 4
			}
			continue
		}
		// Control transfer: steer the fetch PC and end the fetch group on
		// a predicted-taken branch.
		fl := pl.Flags[u]
		if fl&pipeline.FMispred != 0 {
			// Oracle says the prediction is wrong: everything younger is
			// wrong-path until this branch resolves.
			t.wrongPath = true
			t.wpBranch = u
			if fl&pipeline.FPredTaken != 0 && pl.Meta[u].PredTarget != 0 {
				t.wrongPathPC = pl.Meta[u].PredTarget
			} else {
				t.wrongPathPC = in.PC + 4
			}
			break
		}
		if t.wrongPath {
			if fl&pipeline.FPredTaken != 0 && pl.Meta[u].PredTarget != 0 {
				t.wrongPathPC = pl.Meta[u].PredTarget
			} else {
				t.wrongPathPC = in.PC + 4
			}
		}
		if fl&pipeline.FPredTaken != 0 {
			break // taken branch ends the fetch group
		}
	}
	return fetched
}

// predictCTI runs the front-end predictors for a control-transfer uop:
// gshare direction (conditional branches), BTB target, RAS for
// calls/returns. For correct-path uops the oracle outcome decides Mispred
// and trains the predictors; wrong-path CTIs only steer the wrong-path PC.
func (p *Processor) predictCTI(t *thread, u pipeline.UID) {
	pl := p.pool
	in := &pl.Ins[u]
	wrongPath := pl.Flags[u]&pipeline.FWrongPath != 0
	btb := p.btbs[t.id]
	switch in.Class {
	case isa.Branch:
		pred := p.gshares[t.id].Predict(0, in.PC)
		if pred {
			if tgt, ok := btb.Lookup(in.PC); ok {
				pl.Flags[u] |= pipeline.FPredTaken
				pl.Meta[u].PredTarget = tgt
			}
			// Predicted taken with no target: the front end cannot
			// redirect, so it behaves as a not-taken prediction.
		}
	case isa.Call:
		if tgt, ok := btb.Lookup(in.PC); ok {
			pl.Flags[u] |= pipeline.FPredTaken
			pl.Meta[u].PredTarget = tgt
		}
		// Wrong-path calls do not touch the RAS: hardware checkpoints the
		// stack at each branch and restores it on a squash, which this
		// models without the checkpoint bookkeeping.
		if !wrongPath {
			t.ras.Push(in.PC + 4)
		}
	case isa.Return:
		if wrongPath {
			pl.Flags[u] |= pipeline.FPredTaken
			pl.Meta[u].PredTarget = in.PC + 4 // arbitrary; the uop is squashed anyway
			break
		}
		if tgt, ok := t.ras.Pop(); ok {
			pl.Flags[u] |= pipeline.FPredTaken
			pl.Meta[u].PredTarget = tgt
		}
	}
	if wrongPath {
		return
	}
	predTaken := pl.Flags[u]&pipeline.FPredTaken != 0
	if predTaken != in.Taken || (in.Taken && pl.Meta[u].PredTarget != in.Target) {
		pl.Flags[u] |= pipeline.FMispred
		t.mispredicts++
	}
	t.branches++
	if in.Class == isa.Branch {
		p.gshares[t.id].Update(0, in.PC, in.Taken)
	}
	if in.Taken && in.Class != isa.Return {
		btb.Insert(in.PC, in.Target)
	}
}

// recoverMispredict squashes thread t's wrong path once the mispredicted
// branch u resolves and redirects fetch to the correct path.
func (p *Processor) recoverMispredict(t *thread, u pipeline.UID) {
	t.wrongPath = false
	t.wpBranch = pipeline.NoUID
	p.squashThread(t, p.pool.GSeq[u])
	if next := p.now + 1; next > t.stallUntil {
		t.stallUntil = next // redirect bubble
		t.stallICache = false
	}
}

// squashThread removes every uop of thread t younger than afterGSeq from
// the front end, IQ, ROB, and LSQ; rolls back its renames youngest-first;
// classifies its residencies un-ACE; and rewinds the trace stream so the
// squashed correct-path instructions are refetched.
func (p *Processor) squashThread(t *thread, afterGSeq uint64) {
	pl := p.pool
	// Front end: drop queued uops (no structure residency yet).
	var rewindTo uint64
	haveRewind := false
	note := func(u pipeline.UID) {
		if pl.Flags[u]&pipeline.FWrongPath == 0 &&
			(!haveRewind || pl.Ins[u].Seq < rewindTo) {
			rewindTo = pl.Ins[u].Seq
			haveRewind = true
		}
	}
	for t.fetchQ.Len() > 0 {
		u := t.fetchQ.Back()
		if pl.GSeq[u] <= afterGSeq {
			break
		}
		t.fetchQ.PopBack()
		note(u)
		pl.Flags[u] |= pipeline.FSquashed
		p.recordObservers(u, true)
		if pl.Flags[u]&pipeline.FPredL1 != 0 {
			t.predL1--
		}
		if pl.Flags[u]&pipeline.FPredL2 != 0 {
			t.predL2--
		}
		if u == t.wpBranch {
			// The pending mispredicted branch itself was squashed (a
			// FLUSH landed underneath it); leave wrong-path mode.
			t.wrongPath = false
			t.wpBranch = pipeline.NoUID
		}
		t.releaseUop(u) // never dispatched: in no structure
	}
	// Back end: roll the ROB back from the tail.
	for t.rob.Len() > 0 && pl.GSeq[t.rob.Tail()] > afterGSeq {
		u := t.rob.PopTail(p.now)
		if pl.Flags[u]&pipeline.FInIQ != 0 {
			p.iq.Remove(u, p.now)
			p.rf.Unwatch(u)
		}
		if pl.Meta[u].LSQIdx >= 0 {
			t.lsq.PopTail(p.now)
		}
		p.rf.Rollback(u, p.now)
		p.resolveMissCounters(t, u)
		note(u)
		pl.Flags[u] |= pipeline.FSquashed
		p.classifyUop(u, true)
		p.recordObservers(u, true)
		t.squashedUops++
		if u == t.wpBranch {
			t.wrongPath = false
			t.wpBranch = pipeline.NoUID
		}
		if pl.Flags[u]&pipeline.FIssued == 0 || pl.Flags[u]&pipeline.FExecuted != 0 {
			t.releaseUop(u)
		} else {
			// Mid-execution uops (issued, result pending) stay on
			// p.inflight; writeback releases them when it drops them.
			p.wbSquashed++
		}
	}
	if haveRewind {
		t.stream.Rewind(rewindTo)
	}
}
