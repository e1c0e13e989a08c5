// Package telemetry turns the simulator from a black box into an
// observable service: a cycle-windowed sampling layer that emits
// per-window time-series of the quantities the paper reports only as
// end-of-run aggregates — per-structure AVF, occupancy, per-thread IPC,
// fetch/flush/stall counters.
//
// The design follows the collector/exporter split of production metrics
// agents: a Collector receives each completed Window and fans it out to a
// set of pluggable Exporters — JSONL, CSV and Chrome trace_event file
// writers plus an in-memory ring buffer — and advances the run's sim.* metrics on the obs
// registry it was given (a nil *Collector is disabled, so call sites need
// no branching). An optional debug HTTP server (debug.go) exposes
// net/http/pprof, the registry as OpenMetrics, and a /telemetry JSON
// snapshot of the windows for live inspection of long unattended sweeps.
//
// AVF is strongly phase-dependent (Fu et al., MASCOTS 2006; Jaulmes et
// al.), so the per-window series is not a convenience but a measurement:
// the final window's cumulative AVF equals the end-of-run avf.Report
// exactly, while the per-window values expose the phase structure the
// aggregate hides. The windows are the run's one window clock: the
// CPI-stack observer's stack and fate split ride on them, and the core's
// Results.Phases is read from the same rolls.
package telemetry

import (
	"fmt"
	"log/slog"
	"sync"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
)

// SchemaVersion is stamped into every exported Window ("v") so offline
// consumers can detect field-set changes; bump it whenever the JSONL/CSV
// schema changes shape. Version 2 added the CPI stack and the fate split.
const SchemaVersion = 2

// DefaultWindowCycles is the sampling window used when Options.WindowCycles
// is zero: fine enough to resolve program phases, coarse enough that the
// rollover work is invisible next to the per-cycle simulation cost.
const DefaultWindowCycles = 10_000

// ringSize is the number of windows the built-in ring buffer retains.
const ringSize = 1024

// Window is one completed sampling interval: every value describes the
// interval [StartCycle, EndCycle) alone, except the Cum* fields, which
// cover the whole measurement so far. One Window marshals to one JSONL
// object (docs/telemetry.md documents the schema).
type Window struct {
	V      int  `json:"v"` // schema version (SchemaVersion)
	Index  int  `json:"window"`
	Warmup bool `json:"warmup,omitempty"` // interval lies in the warmup period
	Final  bool `json:"final,omitempty"`  // last window of the run (may be short)

	StartCycle uint64 `json:"start_cycle"` // absolute simulation cycles
	EndCycle   uint64 `json:"end_cycle"`

	Committed uint64    `json:"committed"` // instructions committed in the window
	IPC       float64   `json:"ipc"`
	ThreadIPC []float64 `json:"thread_ipc,omitempty"`

	// AVF and Occupancy are per-structure values of this window alone;
	// CumAVF is the AVF over the measurement window so far (the final
	// window's CumAVF equals the end-of-run report). Keys are the
	// avf.Struct names.
	AVF       map[string]float64 `json:"avf"`
	CumAVF    map[string]float64 `json:"cum_avf"`
	Occupancy map[string]float64 `json:"occupancy,omitempty"`

	// Event counters for the window, aggregated over threads.
	Fetched        uint64 `json:"fetched"`
	WrongPathFetch uint64 `json:"wrong_path_fetch"`
	Mispredicts    uint64 `json:"mispredicts"`
	Flushes        uint64 `json:"flushes"`
	SquashedUops   uint64 `json:"squashed_uops"`
	DispatchStalls uint64 `json:"dispatch_stalls"` // rename+IQ+ROB+LSQ full

	// Stack and Fates are on every window of a run with the CPI-stack
	// observer attached, and read zero in warmup windows, which it does
	// not account. Stack maps each cpistack component to its cycles per
	// thread ([tid]), summing to threads × Cycles(). Fates maps each
	// occupancy-tracked structure to its bit-cycles by avf.Fate; they are
	// booked when a uop is classified, like AVF and Occupancy, so the
	// committed fate over bits × cycles is the window's AVF and the fate
	// total its occupancy.
	Stack map[string][]uint64          `json:"stack,omitempty"`
	Fates map[string]map[string]uint64 `json:"fates,omitempty"`
}

// Cycles returns the window's length in cycles.
func (w Window) Cycles() uint64 { return w.EndCycle - w.StartCycle }

// StructNames returns the AVF map keys in presentation order — exporters
// and tests iterate structures deterministically through it.
func StructNames() []string {
	ss := avf.Structs()
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.String()
	}
	return names
}

// Options parameterizes a Collector.
type Options struct {
	// WindowCycles is the sampling period (default DefaultWindowCycles).
	WindowCycles uint64
	// Logger, when non-nil, receives one progress line per window and one
	// line per rebase.
	Logger *slog.Logger
	// Registry, when non-nil, receives the sim.cycle gauge and the
	// sim.committed, sim.flushes and sim.squashed_uops counters, advanced
	// from each recorded window. Nil: the run has no live metrics.
	Registry *obs.Registry
}

// Collector receives completed windows from the simulator and fans them
// out to exporters, the ring buffer, and the registry's sim.* metrics. A
// nil *Collector is a valid "disabled" collector: every method is a cheap
// no-op, so call sites need no branching.
type Collector struct {
	window uint64
	logger *slog.Logger
	ring   *Ring

	// The sim.* metrics (nil-receiver no-ops without a registry) move
	// once per window, from the window itself.
	simCycle     *obs.Gauge
	simCommitted *obs.Counter
	simFlushes   *obs.Counter
	simSquashed  *obs.Counter

	mu        sync.Mutex
	exporters []Exporter
	prog      *obs.Progress
	cumCommit uint64 // committed instructions across all windows
	last      Window
	windows   int
	rebased   uint64 // cycle of the last rebase (measurement start)
	err       error  // first exporter error, sticky
}

// New builds a collector. The built-in ring buffer is always attached;
// file exporters are added with AddExporter.
func New(o Options) *Collector {
	if o.WindowCycles == 0 {
		o.WindowCycles = DefaultWindowCycles
	}
	return &Collector{
		window:       o.WindowCycles,
		logger:       o.Logger,
		ring:         NewRing(ringSize),
		simCycle:     o.Registry.Gauge("sim.cycle", ""),
		simCommitted: o.Registry.Counter("sim.committed", ""),
		simFlushes:   o.Registry.Counter("sim.flushes", ""),
		simSquashed:  o.Registry.Counter("sim.squashed_uops", ""),
	}
}

// SetProgress attaches a progress tracker; each recorded window then
// advances it by the window's end cycle. Safe to leave unset.
func (c *Collector) SetProgress(p *obs.Progress) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.prog = p
	c.mu.Unlock()
}

// WindowCycles returns the sampling period (DefaultWindowCycles for a nil
// collector).
func (c *Collector) WindowCycles() uint64 {
	if c == nil {
		return DefaultWindowCycles
	}
	return c.window
}

// AddExporter attaches an exporter; every subsequently recorded window is
// forwarded to it. Close closes it.
func (c *Collector) AddExporter(e Exporter) {
	if c == nil || e == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exporters = append(c.exporters, e)
}

// Record accepts one completed window: it lands in the ring buffer, every
// exporter, the live snapshot and the sim.* metrics, and — when a logger
// is configured — one progress line.
func (c *Collector) Record(w Window) {
	if c == nil {
		return
	}
	if w.V == 0 {
		w.V = SchemaVersion
	}
	c.ring.push(w)
	c.simCycle.SetUint(w.EndCycle)
	c.simCommitted.Add(w.Committed)
	c.simFlushes.Add(w.Flushes)
	c.simSquashed.Add(w.SquashedUops)
	c.mu.Lock()
	c.last = w
	c.windows++
	for _, e := range c.exporters {
		if err := e.Export(w); err != nil && c.err == nil {
			c.err = err
		}
	}
	c.cumCommit += w.Committed
	prog, cum := c.prog, c.cumCommit
	c.mu.Unlock()
	// The run phase progresses in committed instructions (matching the
	// facade's instruction-total target); the end cycle is the rate axis.
	prog.Observe(cum, w.EndCycle)
	if c.logger != nil {
		c.logger.Info("window",
			"n", w.Index,
			"cycle", w.EndCycle,
			"committed", w.Committed,
			"ipc", round4(w.IPC),
			"iq_avf", round4(w.AVF[avf.IQ.String()]),
			"rob_avf", round4(w.AVF[avf.ROB.String()]),
			"warmup", w.Warmup,
		)
	}
}

// Rebase notes that the simulator reset its measurement at the given
// cycle (end of warmup): windows recorded before it carry Warmup=true and
// cumulative values restart. The ring buffer keeps warmup windows — they
// are flagged, not hidden.
func (c *Collector) Rebase(cycle uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rebased = cycle
	c.mu.Unlock()
	if c.logger != nil {
		c.logger.Info("rebase", "cycle", cycle)
	}
}

// Last returns the most recently recorded window.
func (c *Collector) Last() (Window, bool) {
	if c == nil {
		return Window{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last, c.windows > 0
}

// Windows returns the number of windows recorded so far.
func (c *Collector) Windows() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windows
}

// Ring returns the retained window series, oldest first.
func (c *Collector) Ring() []Window {
	if c == nil {
		return nil
	}
	return c.ring.Windows()
}

// Err returns the first exporter error, if any (export errors never
// interrupt a simulation; they surface here and at Close).
func (c *Collector) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close flushes and closes every attached exporter and returns the first
// error seen over the collector's lifetime.
func (c *Collector) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.exporters {
		if err := e.Close(); err != nil && c.err == nil {
			c.err = err
		}
	}
	c.exporters = nil
	return c.err
}

// Snapshot is the live state the /telemetry endpoint serves: the latest
// window and the cumulative AVF so far.
type Snapshot struct {
	WindowCycles uint64             `json:"window_cycles"`
	Windows      int                `json:"windows"`
	RebaseCycle  uint64             `json:"rebase_cycle,omitempty"`
	Cycle        uint64             `json:"cycle"`     // end of the last window
	Committed    uint64             `json:"committed"` // within the last window
	IPC          float64            `json:"ipc"`       // of the last window
	CumAVF       map[string]float64 `json:"cum_avf,omitempty"`
	Last         *Window            `json:"last_window,omitempty"`
}

// Snapshot assembles the current live state. It is safe to call from a
// different goroutine than the simulator's (the debug server does).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		WindowCycles: c.window,
		Windows:      c.windows,
		RebaseCycle:  c.rebased,
	}
	if c.windows > 0 {
		w := c.last
		s.Cycle = w.EndCycle
		s.Committed = w.Committed
		s.IPC = w.IPC
		s.CumAVF = w.CumAVF
		s.Last = &w
	}
	return s
}

// round4 trims a float for log lines (full precision stays in the
// exporters).
func round4(v float64) string { return fmt.Sprintf("%.4f", v) }
