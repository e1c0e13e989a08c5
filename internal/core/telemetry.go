package core

import (
	"fmt"
	"math"

	"smtavf/internal/avf"
	"smtavf/internal/cpistack"
	"smtavf/internal/telemetry"
)

// SetTelemetry attaches a telemetry collector: every WindowCycles cycles
// the processor emits one telemetry.Window of per-interval IPC, AVF,
// occupancy, and event counters, plus the CPI stack and fate split when
// the CPI-stack observer is attached. Call before Run; a nil collector
// leaves telemetry disabled.
func (p *Processor) SetTelemetry(c *telemetry.Collector) { p.tel = c }

// windowCycles returns the period of the run's one window clock: the
// collector's window, or Config.PhaseInterval without a collector (0:
// no window rolls). A phase interval that differs from the collector's
// window is an error, since one roll feeds both.
func (p *Processor) windowCycles() (uint64, error) {
	iv := p.cfg.PhaseInterval
	if p.tel == nil {
		return iv, nil
	}
	w := p.tel.WindowCycles()
	if iv != 0 && iv != w {
		return 0, fmt.Errorf("core: PhaseInterval %d differs from the telemetry window %d; one run has one window clock", iv, w)
	}
	return w, nil
}

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
	// The CPI-stack observer's totals; stack is nil without it.
	stack [][cpistack.NumComponents]uint64
	fates [avf.NumStructs][avf.NumFates]uint64
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
	if p.cpi != nil {
		s.stack = make([][cpistack.NumComponents]uint64, len(p.threads))
		for tid := range s.stack {
			for _, c := range cpistack.Components() {
				s.stack[tid][c] = p.cpi.ComponentCycles(tid, c)
			}
		}
		for _, st := range cpistack.OccupancyStructs() {
			for _, f := range avf.Fates() {
				s.fates[st][f] = p.cpi.FateBitCycles(st, f)
			}
		}
	}
	return s
}

// telemetryStart arms the window clock at the beginning of Run (and again
// after a rebase); with a zero period it never fires.
func (p *Processor) telemetryStart() {
	if p.telCycles == 0 {
		p.telNext = math.MaxUint64
		return
	}
	p.telBase = p.telemetrySnapshot()
	p.telNext = p.now + p.telCycles
}

// telemetryRoll closes the current window, records it on the collector
// and, past the warmup, appends it to Results.Phases when
// Config.PhaseInterval is set. The final roll (after closeAccounting) may
// cover zero cycles when the run ended exactly on a window boundary; it
// is still recorded so the last window's cumulative AVF always matches
// the end-of-run report, but it is no phase.
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
	if cur.stack != nil {
		w.Stack = make(map[string][]uint64, cpistack.NumComponents)
		for _, c := range cpistack.Components() {
			col := make([]uint64, len(p.threads))
			for tid := range col {
				col[tid] = cur.stack[tid][c] - base.stack[tid][c]
			}
			w.Stack[c.String()] = col
		}
		w.Fates = make(map[string]map[string]uint64, len(cpistack.OccupancyStructs()))
		for _, st := range cpistack.OccupancyStructs() {
			byFate := make(map[string]uint64, avf.NumFates)
			for _, f := range avf.Fates() {
				byFate[f.String()] = cur.fates[st][f] - base.fates[st][f]
			}
			w.Fates[st.String()] = byFate
		}
	}
	p.tel.Record(w)
	if p.cfg.PhaseInterval > 0 && !w.Warmup && d > 0 {
		ph := Phase{Cycle: p.now - p.measureStart, Committed: w.Committed, IPC: w.IPC}
		for st := avf.Struct(0); st < avf.NumStructs; st++ {
			ph.AVF[st] = w.AVF[st.String()]
		}
		p.phases = append(p.phases, ph)
	}
	p.telIndex++
	p.telBase = cur
	p.telNext = p.now + p.telCycles
}
