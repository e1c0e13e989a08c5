package core

import (
	"smtavf/internal/avf"
	"smtavf/internal/telemetry"
)

// SetTelemetry attaches a telemetry collector: every WindowCycles cycles
// the processor emits one telemetry.Window of per-interval IPC, AVF,
// occupancy, and event counters. Call before Run; a nil collector leaves
// telemetry disabled.
func (p *Processor) SetTelemetry(c *telemetry.Collector) { p.tel = c }

// telemetrySnap is a baseline snapshot of every windowed quantity; the
// rollover diffs two snapshots, so the hot path never maintains separate
// per-window accumulators.
type telemetrySnap struct {
	cycle     uint64
	committed uint64
	perThread []uint64
	ace       [avf.NumStructs]uint64
	occ       [avf.NumStructs]uint64
	fetched   uint64
	wrongPath uint64
	mispred   uint64
	flushes   uint64
	squashed  uint64
	stalls    uint64
}

func (p *Processor) telemetrySnapshot() telemetrySnap {
	s := telemetrySnap{
		cycle:     p.now,
		committed: p.totalCommitted,
		perThread: make([]uint64, len(p.threads)),
	}
	for i, t := range p.threads {
		s.perThread[i] = t.committed
		s.fetched += t.fetched
		s.wrongPath += t.wrongPathFetch
		s.mispred += t.mispredicts
		s.flushes += t.flushes
		s.squashed += t.squashedUops
		s.stalls += t.renameStalls + t.iqFullStalls + t.robFullStalls + t.lsqFullStalls
	}
	for st := avf.Struct(0); st < avf.NumStructs; st++ {
		s.ace[st] = p.trk.ACEBitCycles(st)
		s.occ[st] = p.trk.OccupiedBitCycles(st)
	}
	return s
}

// telemetryStart arms the sampler at the beginning of Run (and again
// after a rebase).
func (p *Processor) telemetryStart() {
	p.telBase = p.telemetrySnapshot()
	p.telNext = p.now + p.tel.WindowCycles()
}

// telemetryRoll closes the current window and records it. The final roll
// (after closeAccounting) may cover zero cycles when the run ended
// exactly on a window boundary; it is still emitted so the last window's
// cumulative AVF always matches the end-of-run report.
func (p *Processor) telemetryRoll(final bool) {
	base := p.telBase
	d := p.now - base.cycle
	if d == 0 && !final {
		return
	}
	cur := p.telemetrySnapshot()
	w := telemetry.Window{
		Index:          p.telIndex,
		Warmup:         p.cfg.Warmup > 0 && p.warmPerThread == nil,
		Final:          final,
		StartCycle:     base.cycle,
		EndCycle:       p.now,
		Committed:      cur.committed - base.committed,
		AVF:            make(map[string]float64, avf.NumStructs),
		CumAVF:         make(map[string]float64, avf.NumStructs),
		Occupancy:      make(map[string]float64, avf.NumStructs),
		Fetched:        cur.fetched - base.fetched,
		WrongPathFetch: cur.wrongPath - base.wrongPath,
		Mispredicts:    cur.mispred - base.mispred,
		Flushes:        cur.flushes - base.flushes,
		SquashedUops:   cur.squashed - base.squashed,
		DispatchStalls: cur.stalls - base.stalls,
	}
	if d > 0 {
		w.IPC = float64(w.Committed) / float64(d)
		w.ThreadIPC = make([]float64, len(p.threads))
		for i := range p.threads {
			w.ThreadIPC[i] = float64(cur.perThread[i]-base.perThread[i]) / float64(d)
		}
	}
	meas := p.now - p.measureStart
	for st := avf.Struct(0); st < avf.NumStructs; st++ {
		name := st.String()
		if den := float64(p.trk.Bits(st)) * float64(d); den > 0 {
			w.AVF[name] = float64(cur.ace[st]-base.ace[st]) / den
			w.Occupancy[name] = float64(cur.occ[st]-base.occ[st]) / den
		}
		// Same computation as the end-of-run avf.Report, so the final
		// window agrees with it bit for bit.
		w.CumAVF[name] = p.trk.AVF(st, meas)
	}
	p.tel.Record(w)
	p.telIndex++
	p.telBase = cur
	p.telNext = p.now + p.tel.WindowCycles()
}
