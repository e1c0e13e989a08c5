package core

import (
	"smtavf/internal/cpistack"
	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

// cpiPrev snapshots one thread's cumulative counters so the per-cycle
// attribution pass can blame a cycle on whatever advanced (or refused to)
// since the previous cycle. The counters are cumulative and never reset,
// so deltas stay correct across a warmup rebase.
type cpiPrev struct {
	committed uint64
	robFull   uint64
	iqFull    uint64
	lsqFull   uint64
	rename    uint64
	fetched   uint64
}

// SetCPIStack attaches the CPI-stack/occupancy observer: the per-cycle
// attribution pass runs while it is set, uop residencies feed it at the
// same classification sites as the AVF tracker, and register-file
// intervals reach it through the tracker's sink list. Call before Run;
// nil attaches nothing.
func (p *Processor) SetCPIStack(o *cpistack.Observer) {
	if o == nil {
		return
	}
	o.Configure(p.cfg.Bits, StructBits(p.cfg), p.cfg.Threads, p.now)
	p.cpi = o
	p.trk.AddSink(o)
	p.AttachObserver(o)
	p.cpiComps = make([]cpistack.Component, p.cfg.Threads)
	p.cpiPrev = make([]cpiPrev, p.cfg.Threads)
}

// cpiAccount attributes the cycle that just executed to one stack
// component per thread. It runs at the end of step() — after every stage
// has acted — so the counters it diffs reflect this cycle's outcome. The
// rule is a priority chain from the commit end backwards, which is what
// makes the components sum to the cycle count: exactly one clause fires.
//
//  1. finished quota                        -> idle
//  2. committed something                   -> base
//  3. ROB head is a load on an L2 miss      -> l2_miss
//  4. ROB head is a load on a DL1 miss      -> dcache_miss
//  5. wrong-path mode or a redirect bubble  -> branch_mispredict
//  6. dispatch stalled on ROB/IQ/LSQ/rename -> rob_full/iq_full/lsq_full/reg_starved
//  7. work in the ROB (execution latency)   -> base
//  8. front end stalled on an IL1/ITLB miss -> icache_miss
//  9. fetched or holding fetched work       -> base
//
// 10. runnable but fetched nothing          -> fetch_gated
//
// Memory blame outranks wrong-path mode (3-4 before 5) because commit is
// blocked by the head load whether or not the front end is off chasing a
// mispredicted path — mispredict cycles are the ones where the miss is
// NOT the bottleneck, which is what lets a memory-bound thread read as
// memory-bound.
//
// Clause 10 is the fetch policy's fingerprint: the thread could have
// fetched, and the policy gave the bandwidth elsewhere (ICOUNT priority
// loss, STALL/DG/PDG gating, FLUSH's post-squash lockout).
func (p *Processor) cpiAccount() {
	for i, t := range p.threads {
		prev := &p.cpiPrev[i]
		stalled := p.now < t.stallUntil
		var c cpistack.Component
		switch {
		case t.done():
			c = cpistack.CompIdle
		case t.committed != prev.committed:
			c = cpistack.CompBase
		default:
			c = p.cpiStall(t, prev, stalled)
		}
		p.cpiComps[i] = c
		prev.committed = t.committed
		prev.robFull = t.robFullStalls
		prev.iqFull = t.iqFullStalls
		prev.lsqFull = t.lsqFullStalls
		prev.rename = t.renameStalls
		prev.fetched = t.fetched
	}
	if !p.warming { // the observer's Rebase would discard the cycle
		p.cpi.Tick(p.now, p.cpiComps)
	}
}

// cpiStall classifies a runnable, non-committing thread — clauses 3-10 of
// the attribution chain. A not-yet-executed load at the ROB head with an
// outstanding miss is the canonical "stalled on memory" state, blamed on
// the deepest level it missed to (CountedL1/CountedL2 clear at writeback,
// so they are exactly "miss still outstanding").
func (p *Processor) cpiStall(t *thread, prev *cpiPrev, stalled bool) cpistack.Component {
	if u := t.rob.Head(); u != pipeline.NoUID &&
		p.pool.Flags[u]&pipeline.FExecuted == 0 && p.pool.Ins[u].Class == isa.Load {
		if p.pool.Flags[u]&pipeline.FCountedL2 != 0 {
			return cpistack.CompL2Miss
		}
		if p.pool.Flags[u]&pipeline.FCountedL1 != 0 {
			return cpistack.CompDCacheMiss
		}
	}
	switch {
	case t.wrongPath || (stalled && !t.stallICache):
		return cpistack.CompBranchMispredict
	case t.robFullStalls != prev.robFull:
		return cpistack.CompROBFull
	case t.iqFullStalls != prev.iqFull:
		return cpistack.CompIQFull
	case t.lsqFullStalls != prev.lsqFull:
		return cpistack.CompLSQFull
	case t.renameStalls != prev.rename:
		return cpistack.CompRegStarved
	case t.rob.Len() > 0:
		return cpistack.CompBase
	case stalled && t.stallICache:
		return cpistack.CompICacheMiss
	case t.fetchQ.Len() > 0 || t.fetched != prev.fetched:
		return cpistack.CompBase
	}
	return cpistack.CompFetchGated
}
