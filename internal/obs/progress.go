package obs

import (
	"log/slog"
	"sync"
	"time"
)

// DefaultHeartbeat is the minimum wall-clock gap between heartbeat log
// lines when ProgressOptions.Heartbeat is zero.
const DefaultHeartbeat = 5 * time.Second

// ProgressOptions parameterizes a Progress tracker.
type ProgressOptions struct {
	// Logger receives one heartbeat line per Heartbeat interval (nil:
	// heartbeats only surface on /debug/progress and the registry).
	Logger *slog.Logger
	// Heartbeat is the minimum wall gap between heartbeats (default
	// DefaultHeartbeat; negative disables the log lines entirely).
	Heartbeat time.Duration
	// Registry, when non-nil, receives the live progress gauges
	// (progress.fraction, progress.cycle, progress.cycles_per_sec,
	// progress.eta_seconds) and the progress.heartbeats counter.
	Registry *Registry
}

// Progress tracks one campaign's phase-by-phase completion and emits
// periodic heartbeats: the phase name, a done/total fraction, the
// smoothed cycle rate, and an ETA extrapolated from the phase's own
// rate. It is fed from whatever drives the phase — telemetry windows in
// a run, stopping-rule rounds in a strike campaign — and read from slog,
// the /debug/progress endpoint, and the metrics registry. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Progress struct {
	logger *slog.Logger
	every  time.Duration

	gFraction *Gauge
	gCycle    *Gauge
	gRate     *Gauge
	gETA      *Gauge
	cBeats    *Counter

	mu         sync.Mutex
	start      time.Time
	phase      string
	phaseStart time.Time
	done       uint64
	total      uint64
	cycle      uint64
	lastBeat   time.Time
	beats      uint64

	// rate window: cycle and wall position of the previous Observe.
	lastCycle uint64
	lastWall  time.Time
	rate      float64 // cycles per second, smoothed
}

// NewProgress builds a progress tracker.
func NewProgress(o ProgressOptions) *Progress {
	if o.Heartbeat == 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	now := time.Now()
	p := &Progress{
		logger:     o.Logger,
		every:      o.Heartbeat,
		start:      now,
		phaseStart: now,
		lastWall:   now,
	}
	if r := o.Registry; r != nil {
		p.gFraction = r.Gauge("progress.fraction", "completion fraction of the current phase")
		p.gCycle = r.Gauge("progress.cycle", "current simulation cycle")
		p.gRate = r.Gauge("progress.cycles_per_sec", "smoothed simulation rate")
		p.gETA = r.Gauge("progress.eta_seconds", "estimated seconds to phase completion")
		p.cBeats = r.Counter("progress.heartbeats", "heartbeat events emitted")
	}
	return p
}

// Phase begins a new phase with the given completion target (0: the
// total is unknown or set later with SetTotal). Re-entering the current
// phase only updates the total.
func (p *Progress) Phase(name string, total uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.phase != name {
		p.phase = name
		p.phaseStart = time.Now()
		p.done = 0
	}
	p.total = total
}

// SetTotal revises the current phase's completion target — the inject
// stopping rule's ETA moves as the confidence intervals tighten.
func (p *Progress) SetTotal(total uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total = total
	p.mu.Unlock()
}

// Observe advances the current phase to done completed units at the
// given simulation cycle (cycle 0: unchanged — phases without a cycle
// axis, like the strike phase, keep the run's final cycle). Heartbeats
// fire from here when the configured wall interval has elapsed.
func (p *Progress) Observe(done, cycle uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	now := time.Now()
	p.done = done
	if cycle > 0 {
		if dt := now.Sub(p.lastWall).Seconds(); dt > 0 && cycle > p.lastCycle {
			inst := float64(cycle-p.lastCycle) / dt
			if p.rate == 0 {
				p.rate = inst
			} else {
				p.rate = 0.7*p.rate + 0.3*inst // smooth scrape-to-scrape jitter
			}
			p.lastCycle, p.lastWall = cycle, now
		}
		p.cycle = cycle
	}
	snap := p.snapshotLocked(now)
	beat := p.every > 0 && now.Sub(p.lastBeat) >= p.every
	if beat {
		p.lastBeat = now
		p.beats++
	}
	p.mu.Unlock()

	p.gFraction.Set(snap.Fraction)
	p.gCycle.SetUint(snap.Cycle)
	p.gRate.Set(snap.CyclesPerSec)
	p.gETA.Set(snap.ETASeconds)
	if beat {
		p.cBeats.Inc()
		if p.logger != nil {
			p.logger.Info("progress",
				"phase", snap.Phase,
				"done", snap.Done,
				"total", snap.Total,
				"fraction", round2(snap.Fraction),
				"cycle", snap.Cycle,
				"cycles_per_sec", uint64(snap.CyclesPerSec),
				"eta_seconds", round2(snap.ETASeconds),
			)
		}
	}
}

// ProgressSnapshot is the live progress state /debug/progress serves.
type ProgressSnapshot struct {
	Phase          string  `json:"phase"`
	Done           uint64  `json:"done"`
	Total          uint64  `json:"total,omitempty"`
	Fraction       float64 `json:"fraction"`
	Cycle          uint64  `json:"cycle,omitempty"`
	CyclesPerSec   float64 `json:"cycles_per_sec,omitempty"`
	ETASeconds     float64 `json:"eta_seconds,omitempty"`
	PhaseSeconds   float64 `json:"phase_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Heartbeats     uint64  `json:"heartbeats"`
}

// Snapshot returns the current progress state (zero value for nil).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(time.Now())
}

func (p *Progress) snapshotLocked(now time.Time) ProgressSnapshot {
	s := ProgressSnapshot{
		Phase:          p.phase,
		Done:           p.done,
		Total:          p.total,
		Cycle:          p.cycle,
		CyclesPerSec:   p.rate,
		PhaseSeconds:   now.Sub(p.phaseStart).Seconds(),
		ElapsedSeconds: now.Sub(p.start).Seconds(),
		Heartbeats:     p.beats,
	}
	if p.total > 0 {
		s.Fraction = float64(p.done) / float64(p.total)
		if s.Fraction > 1 {
			s.Fraction = 1
		}
		// ETA from the phase's own average rate: units observed per
		// wall second since the phase began.
		if el := now.Sub(p.phaseStart).Seconds(); el > 0 && p.done > 0 && p.done < p.total {
			unitRate := float64(p.done) / el
			s.ETASeconds = float64(p.total-p.done) / unitRate
		}
	}
	return s
}

func round2(v float64) float64 { return float64(int64(v*100)) / 100 }
