// Package smtavf is a microarchitecture-level soft-error vulnerability
// analysis framework for simultaneous multithreaded (SMT) processors — a
// from-scratch reproduction of Zhang, Fu, Li & Fortes, "An Analysis of
// Microarchitecture Vulnerability to Soft Errors on Simultaneous
// Multithreaded Architectures" (ISPASS 2007).
//
// The package simulates a parameterizable out-of-order SMT machine
// (8-wide, shared IQ / register pool / function units / caches, per-thread
// ROB / LSQ / branch state) running synthetic SPEC CPU 2000 workloads, and
// reports per-structure, per-thread Architectural Vulnerability Factors
// alongside performance, under six instruction fetch policies.
//
// Quick start:
//
//	cfg := smtavf.DefaultConfig(4)
//	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("mcf", "equake", "vpr", "swim"))
//	if err != nil { ... }
//	res, err := sim.Run(100_000)
//	fmt.Printf("IQ AVF = %.1f%%\n", 100*res.StructAVF(smtavf.IQ))
//
// docs/api.md lists the removed constructors and setters with their
// replacements.
package smtavf

import (
	"fmt"
	"strings"

	"smtavf/internal/avf"
	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/cpistack"
	"smtavf/internal/crossval"
	"smtavf/internal/fetch"
	"smtavf/internal/inject"
	"smtavf/internal/obs"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

// Config parameterizes the simulated machine; DefaultConfig reproduces the
// paper's Table 1.
type Config = core.Config

// Results is the outcome of a run: cycles, per-thread commit counts, the
// AVF report, and machine statistics.
type Results = core.Results

// Struct identifies an AVF-instrumented microarchitecture structure.
type Struct = avf.Struct

// Instrumented structures (Figures 1–8).
const (
	IQ      = avf.IQ
	ROB     = avf.ROB
	FU      = avf.FU
	Reg     = avf.Reg
	LSQData = avf.LSQData
	LSQTag  = avf.LSQTag
	DL1Data = avf.DL1Data
	DL1Tag  = avf.DL1Tag
	DTLB    = avf.DTLB
	ITLB    = avf.ITLB
)

// Structs lists the instrumented structures in presentation order.
func Structs() []Struct { return avf.Structs() }

// Mix is one multithreaded workload of the paper's Table 2.
type Mix = workload.Mix

// Policy is an SMT instruction fetch policy.
type Policy = fetch.Policy

// DefaultConfig returns the paper's Table 1 machine with the given number
// of hardware contexts and the ICOUNT fetch policy.
func DefaultConfig(threads int) Config { return core.DefaultConfig(threads) }

// Policies returns the paper's six fetch policies in presentation order.
func Policies() []Policy { return fetch.All() }

// PolicyByName returns the named fetch policy (ICOUNT, STALL, FLUSH, DG,
// PDG, DWarn, or STALLP).
func PolicyByName(name string) (Policy, error) {
	p := fetch.ByName(name)
	if p == nil {
		return nil, fmt.Errorf("smtavf: unknown fetch policy %q", name)
	}
	return p, nil
}

// Benchmarks lists the available synthetic SPEC CPU 2000 benchmark names.
func Benchmarks() []string { return workload.Names() }

// Mixes lists every Table 2 workload mix.
func Mixes() []Mix { return workload.Mixes() }

// MixByName finds a Table 2 mix by its name, e.g. "4ctx-MEM-A".
func MixByName(name string) (Mix, error) {
	for _, m := range workload.Mixes() {
		if m.Name() == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("smtavf: unknown mix %q (see Mixes)", name)
}

// Simulator runs one workload on one machine configuration. A Simulator is
// single-shot: build a fresh one for each run.
type Simulator struct {
	sim  *campaign.Sim
	used bool
	// set is what New resolved; with WithObservability attached, a run
	// manifest built from it is appended to the ledger when the run
	// finishes.
	set settings
}

// settings accumulates the effect of the Options passed to New.
type settings struct {
	cfg       Config
	srcs      []core.Source    // the per-thread instruction sources
	kind      string           // which workload option supplied them
	workloads []string         // workload identifiers for the run manifest
	opts      campaign.Options // observers and observability
}

func (s *settings) setSource(kind string, workloads []string, srcs []core.Source) error {
	if s.srcs != nil {
		return fmt.Errorf("smtavf: both %s and %s given; a simulator takes exactly one workload source", s.kind, kind)
	}
	s.kind, s.workloads, s.srcs = kind, workloads, srcs
	return nil
}

// Option configures a Simulator built by New. Exactly one of
// WithBenchmarks, WithPhases, or WithTraceFiles must be given.
type Option func(*settings) error

// WithBenchmarks runs the named synthetic SPEC CPU 2000 benchmarks, one
// per hardware context (len(benchmarks) must equal cfg.Threads).
func WithBenchmarks(benchmarks ...string) Option {
	return func(s *settings) error {
		profiles := make([]trace.Profile, 0, len(benchmarks))
		for _, b := range benchmarks {
			p, err := workload.Profile(b)
			if err != nil {
				return err
			}
			profiles = append(profiles, p)
		}
		srcs, err := core.Sources(s.cfg, profiles)
		if err != nil {
			return err
		}
		return s.setSource("WithBenchmarks", benchmarks, srcs)
	}
}

// WithPhases makes each context alternate among several benchmark
// behaviours every period instructions — a workload with program phases.
// phases[i] lists the benchmarks thread i cycles through; len(phases) must
// equal cfg.Threads. Combine with Config.PhaseInterval to watch the AVF
// move with the phases.
func WithPhases(phases [][]string, period uint64) Option {
	return func(s *settings) error {
		resolved := make([][]trace.Profile, len(phases))
		for i, names := range phases {
			for _, n := range names {
				p, err := workload.Profile(n)
				if err != nil {
					return err
				}
				resolved[i] = append(resolved[i], p)
			}
		}
		if period == 0 {
			return fmt.Errorf("smtavf: phase period must be positive")
		}
		ids := make([]string, len(phases))
		for i, names := range phases {
			ids[i] = strings.Join(names, "+")
		}
		srcs := make([]core.Source, 0, len(resolved))
		for i, profiles := range resolved {
			gen, err := trace.NewPhased(profiles, period, s.cfg.Seed+uint64(i)*0x9e37)
			if err != nil {
				return err
			}
			srcs = append(srcs, core.Source{Gen: gen})
		}
		return s.setSource("WithPhases", ids, srcs)
	}
}

// WithTraceFiles replays recorded instruction traces (cmd/tracegen)
// instead of generating synthetic streams; finite recordings loop.
// len(paths) must equal cfg.Threads.
func WithTraceFiles(paths ...string) Option {
	return func(s *settings) error {
		srcs, err := core.ReplaySources(paths)
		if err != nil {
			return err
		}
		return s.setSource("WithTraceFiles", paths, srcs)
	}
}

// WithTelemetry attaches a cycle-windowed live-metrics collector to the
// run (see Telemetry).
func WithTelemetry(c *Telemetry) Option {
	return func(s *settings) error {
		s.opts.Telemetry = c
		return nil
	}
}

// WithPipeTrace attaches a pipeline flight recorder to the run (see
// PipeTrace).
func WithPipeTrace(r *PipeTrace) Option {
	return func(s *settings) error {
		s.opts.PipeTrace = r
		return nil
	}
}

// WithFaultInjection attaches a statistical fault-injection campaign to
// the run (see FaultCampaign).
func WithFaultInjection(c *FaultCampaign) Option {
	return func(s *settings) error {
		s.opts.Inject = c
		return nil
	}
}

// WithPropagation attaches a fault-propagation tracer to the run (see
// PropagationTracer): after the run, feed it the strikes of a
// FaultCampaign (SampleStrikes) and Analyze taint-tracks each corruption
// through the recorded dataflow.
func WithPropagation(t *PropagationTracer) Option {
	return func(s *settings) error {
		s.opts.Propagation = t
		return nil
	}
}

// WithCPIStack attaches the explainability observer to the run (see
// CPIStack): every thread-cycle is attributed to a CPI-stack component
// and structure occupancy is decomposed by ACE fate, per telemetry window
// when a collector is attached too, so the run's AVF numbers come with
// their why. A nil observer leaves the layer detached at zero per-cycle
// cost (BenchmarkCPIStackOverhead pins this).
func WithCPIStack(o *CPIStack) Option {
	return func(s *settings) error {
		s.opts.CPIStack = o
		return nil
	}
}

// WithObservability attaches the campaign-observability layer to the run
// (see Observability): live metrics land on its Registry, the run's
// phases drive its Progress tracker, and a RunManifest is appended to its
// Ledger when the run finishes. It watches the run, not the simulated
// machine, so attaching it does not change results. See docs/campaigns.md.
func WithObservability(o *Observability) Option {
	return func(s *settings) error {
		s.opts.Obs = o
		return nil
	}
}

// New builds a simulator for cfg. Exactly one workload option
// (WithBenchmarks, WithPhases, WithTraceFiles) selects what runs; the
// remaining options attach observers.
func New(cfg Config, opts ...Option) (*Simulator, error) {
	s := settings{cfg: cfg}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("smtavf: nil Option")
		}
		if err := o(&s); err != nil {
			return nil, err
		}
	}
	if s.srcs == nil {
		return nil, fmt.Errorf("smtavf: no workload given; pass WithBenchmarks, WithPhases, or WithTraceFiles")
	}
	sim, err := campaign.Build(cfg, s.srcs, s.opts)
	if err != nil {
		return nil, err
	}
	return &Simulator{sim: sim, set: s}, nil
}

// Run simulates until total instructions have committed across all threads
// (the paper's stop rule, under which faster threads commit more) and
// returns the results.
func (s *Simulator) Run(total uint64) (*Results, error) {
	if err := s.markUsed(); err != nil {
		return nil, err
	}
	res, err := s.sim.Run(total)
	s.appendManifest(res, err)
	return res, err
}

// RunPerThread simulates until every thread has committed its quota — used
// to replay each thread's SMT progress in single-thread mode (Figures 3–4).
func (s *Simulator) RunPerThread(quotas []uint64) (*Results, error) {
	if err := s.markUsed(); err != nil {
		return nil, err
	}
	res, err := s.sim.RunPerThread(quotas)
	s.appendManifest(res, err)
	return res, err
}

// appendManifest writes the run's provenance record to the attached
// ledger, on success and on error.
func (s *Simulator) appendManifest(res *Results, runErr error) {
	o := s.set.opts.Obs
	if o == nil || o.Ledger == nil {
		return
	}
	program := o.Program
	if program == "" {
		program = "smtavf"
	}
	cfg := s.set.cfg
	m := obs.NewManifest("run", program)
	m.ConfigDigest = obs.ConfigDigest(cfg)
	m.Seed = cfg.Seed
	if cfg.Policy != nil {
		m.Policy = cfg.Policy.Name()
	}
	m.Workloads = append([]string(nil), s.set.workloads...)
	if s.set.kind != "" {
		m.Extra = map[string]string{"source": s.set.kind}
	}
	if res != nil {
		m.Cycles = res.Cycles
		m.Instructions = res.Total
	}
	m.Finish(obs.StatusOK, runErr)
	o.Ledger.Append(m)
}

func (s *Simulator) markUsed() error {
	if s.used {
		return fmt.Errorf("smtavf: Simulator is single-shot; build a new one per run")
	}
	s.used = true
	return nil
}

// Telemetry is a cycle-windowed series collector: attach one with
// WithTelemetry and the run emits a per-window time-series of
// IPC, per-structure AVF, occupancy, and event counters — to JSONL/CSV
// exporters, an in-memory ring buffer, and the optional debug HTTP
// server. See docs/telemetry.md.
type Telemetry = telemetry.Collector

// TelemetryOptions parameterizes a Telemetry collector: window length in
// cycles, progress logger, and the MetricsRegistry the collector advances
// its sim.* metrics on (nil: no live metrics).
type TelemetryOptions = telemetry.Options

// TelemetryWindow is one completed sampling interval of the series.
type TelemetryWindow = telemetry.Window

// NewTelemetry builds a telemetry collector (default 10k-cycle windows).
func NewTelemetry(o TelemetryOptions) *Telemetry { return telemetry.New(o) }

// PipeTrace is a pipeline flight recorder: attach one with
// WithPipeTrace and the run records one lifecycle record per uop
// (fetch/dispatch/issue/writeback/retire cycles, per-structure residency,
// ACE fate), exportable as a Kanata log, a Chrome trace_event JSON, or
// compact JSONL, and foldable into an AVF provenance report attributing
// each structure's ACE bit-cycles to static instructions. See
// docs/pipetrace.md.
type PipeTrace = pipetrace.Recorder

// PipeTraceOptions parameterizes a flight recorder (sampling window,
// provenance-only mode).
type PipeTraceOptions = pipetrace.Options

// PipeTraceRecord is one recorded uop lifecycle.
type PipeTraceRecord = pipetrace.Record

// PipeTraceProvenance is the folded AVF provenance report.
type PipeTraceProvenance = pipetrace.Provenance

// Pipetrace export formats (Simulator traces load in Konata and
// chrome://tracing / Perfetto respectively).
const (
	PipeTraceKanata = pipetrace.FormatKanata
	PipeTraceChrome = pipetrace.FormatChrome
	PipeTraceJSONL  = pipetrace.FormatJSONL
)

// NewPipeTrace builds a pipeline flight recorder.
func NewPipeTrace(o PipeTraceOptions) *PipeTrace { return pipetrace.New(o) }

// FaultCampaign is a statistical fault-injection campaign: it samples the
// machine's state on a regular cycle grid and estimates, per structure,
// the probability that a random particle strike corrupts the program —
// an AVF estimate computed independently of the residency accumulators.
type FaultCampaign = inject.Campaign

// NewFaultCampaign builds a campaign for machines configured like cfg,
// sampling every sampleEvery cycles. Attach it with WithFaultInjection;
// after the run compare campaign.Estimate(s, res.Cycles) with
// res.StructAVF(s).
func NewFaultCampaign(cfg Config, sampleEvery, seed uint64) (*FaultCampaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return inject.NewCampaign(core.StructBits(cfg), sampleEvery, seed)
}

// PropagationTracer records the per-uop dataflow nodes a strike-propagation
// analysis runs over: after the run, Analyze taint-tracks each of a
// campaign's strikes from its victim instruction through register,
// store-forwarding, memory, and shared-cache edges to its terminal
// (SDC, DUE, corrected, or masked). See docs/propagation.md.
type PropagationTracer = propagation.Tracer

// PropagationOptions parameterizes a tracer (node cap, expansion bounds).
type PropagationOptions = propagation.Options

// PropagationAtlas is the aggregate of a propagation analysis: per-strike
// traces plus root-cause ranking, hop histograms, the thread contamination
// matrix, and per-structure escape routes.
type PropagationAtlas = propagation.Atlas

// PropagationTrace is one strike's propagation record (one JSONL line).
type PropagationTrace = propagation.Trace

// InjectStrike is one sampled fault injection: the struck structure, cycle,
// bit, and owning thread. Draw them with FaultCampaign.SampleStrikes.
type InjectStrike = inject.Strike

// NewPropagation builds a fault-propagation tracer.
func NewPropagation(o PropagationOptions) *PropagationTracer { return propagation.New(o) }

// WritePropagationTraces writes per-strike propagation traces as versioned
// JSONL to path (.gz compresses); ReadPropagationTraces inverts it.
func WritePropagationTraces(path string, traces []PropagationTrace) error {
	return propagation.WriteFile(path, traces)
}

// ReadPropagationTraces reads traces written by WritePropagationTraces;
// fold them through PropagationAtlas.Add to rebuild the atlas tables. A
// malformed trace is an error: hop numbers outside [1, depth] or out of
// breadth-first order, unknown edge types, pair keys not of the form
// "from>to", negative counts, or thread ids outside [0, 1024).
func ReadPropagationTraces(path string) ([]PropagationTrace, error) {
	return propagation.ReadFile(path)
}

// CPIStack is the explainability observer: per-thread cycle accounting
// (every cycle attributed to one stack component — committing, memory
// stalls, branch recovery, structural stalls, fetch gating) joined with an
// occupancy-by-fate decomposition of the AVF-tracked structures.
// Per-thread components sum exactly to the simulated cycles and the
// occupancy sums match the AVF tracker bit for bit. It keeps run totals;
// attach a Telemetry collector too and every TelemetryWindow carries the
// window's stack and fate split. See docs/cpistack.md.
type CPIStack = cpistack.Observer

// CPIStackOptions parameterizes a CPIStack observer: the period of its
// live component-share gauges, published on a WithObservability
// registry. The windowed series is the Telemetry collector's.
type CPIStackOptions = cpistack.Options

// NewCPIStack builds an explainability observer.
func NewCPIStack(o CPIStackOptions) *CPIStack { return cpistack.New(o) }

// InjectStats is the result of a sequential strike experiment: the
// per-structure / per-thread strike-outcome taxonomy (masked, SDC, DUE,
// corrected) with Wilson-score confidence intervals on each AVF estimate.
// Produce one with FaultCampaign.RunStrikes after the run.
type InjectStats = inject.Stats

// InjectStop is the sequential stopping rule of a strike experiment.
type InjectStop = inject.Stop

// StopWhen builds the standard stopping rule: strike until every
// structure's confidence-interval half-width drops below halfWidth,
// spending at most maxStrikes strikes per structure.
func StopWhen(halfWidth float64, maxStrikes int) InjectStop {
	return inject.StopWhen(halfWidth, maxStrikes)
}

// ProtectionMode declares a structure's assumed error protection when
// classifying strike outcomes (none / parity / ECC).
type ProtectionMode = core.ProtectionMode

// Protection schemes for strike-outcome classification.
const (
	ProtectNone   = core.ProtectNone
	ProtectParity = core.ProtectParity
	ProtectECC    = core.ProtectECC
)

// ProtectionModes assigns a protection scheme to every structure; pass
// mods.Detections() to FaultCampaign.SetProtection.
type ProtectionModes = core.ProtectionModes

// CrossValReport is the per-structure agreement report between the
// tracker's ACE-residency AVF and a campaign's strike estimate: delta,
// z-score, and a pass/fail verdict against the Wilson CI. See
// docs/injection.md.
type CrossValReport = crossval.Report

// CrossValMeta identifies the run a cross-validation report covers.
type CrossValMeta = crossval.Meta

// CrossValidate builds the agreement report between a finished run's
// tracker AVFs and a completed strike experiment on the campaign that
// observed the same run.
func CrossValidate(meta CrossValMeta, res *Results, stats *InjectStats) *CrossValReport {
	return crossval.Build(meta, res.AVF.Total, stats)
}

// Observability bundles the campaign-observability handles a run carries:
// a metrics Registry (OpenMetrics at /debug/metrics), a Progress tracker
// (heartbeats and /debug/progress), and a run Ledger (runs.jsonl). Any
// field may be nil. Attach with WithObservability; see docs/campaigns.md.
type Observability = obs.Observability

// MetricsRegistry is the typed metrics registry of the observability
// layer and the one home of every live metric: counters and gauges,
// exposed as OpenMetrics text. With WithObservability, New registers the
// fault campaign's, propagation tracer's and CPI-stack observer's
// metrics on the Observability's registry. Registration takes a short
// lock; the returned handles update with plain atomics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds a registry pre-populated with the process
// runtime family (smtavf_runtime_* in the exposition).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Progress tracks phase-by-phase campaign completion and emits periodic
// heartbeats (fraction, cycles/s, ETA) to slog and /debug/progress.
type Progress = obs.Progress

// ProgressOptions parameterizes a Progress tracker.
type ProgressOptions = obs.ProgressOptions

// NewProgress builds a progress tracker.
func NewProgress(o ProgressOptions) *Progress { return obs.NewProgress(o) }

// RunLedger is the append-only runs.jsonl ledger of RunManifest records.
type RunLedger = obs.Ledger

// RunManifest is one ledger record: the full provenance of one run —
// config digest, seeds, workloads, counts, artifacts, exit status.
type RunManifest = obs.RunManifest

// OpenRunLedger validates path (uncompressed .jsonl only — the ledger is
// appended to) and returns a ledger handle.
func OpenRunLedger(path string) (*RunLedger, error) { return obs.OpenLedger(path) }

// ReadRunLedger reads every manifest in a runs.jsonl, oldest first.
func ReadRunLedger(path string) ([]RunManifest, error) { return obs.ReadLedger(path) }
