package campaign

import (
	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/cpistack"
	"smtavf/internal/crossval"
	"smtavf/internal/inject"
	"smtavf/internal/obs"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
)

// Options names what a Build attaches to its run: campaign
// observability and the pipeline observers. Nil fields stay detached.
type Options struct {
	// Obs, when non-nil, has its Progress track the run's "run" phase and
	// the strike campaign's "strikes" phase, and its Registry carry the
	// strike campaign's, the propagation tracer's and the CPI-stack
	// observer's live metrics. It watches the run rather than the
	// simulated machine, so attaching it does not perturb results.
	Obs *obs.Observability

	Telemetry   *telemetry.Collector
	PipeTrace   *pipetrace.Recorder
	Inject      *inject.Campaign
	Propagation *propagation.Tracer
	CPIStack    *cpistack.Observer
}

// Build assembles one simulation of cfg over srcs; every run, whatever
// drives it, is put together here. It builds one processor and attaches
// the pipeline observers in a fixed order: telemetry, pipetrace, the
// strike campaign, propagation, and last the CPI-stack observer, which
// joins the campaign's tracker sink through AddSink. It is also the one
// place the observers publish their live metrics, on opts.Obs. The
// telemetry windows are what advance the run's progress, so an Obs
// carrying a Progress and no collector gets one without exporters, on
// cfg.PhaseInterval's period when that is set.
func Build(cfg core.Config, srcs []core.Source, opts Options) (*Sim, error) {
	proc, err := core.NewFromSources(cfg, srcs)
	if err != nil {
		return nil, err
	}
	sim := &Sim{proc: proc, warmup: cfg.Warmup}
	if o := opts.Obs; o != nil {
		sim.prog = o.Progress
		opts.Inject.Publish(o.Registry, o.Progress)
		opts.Propagation.Publish(o.Registry)
		opts.CPIStack.Publish(o.Registry)
		if o.Progress != nil && opts.Telemetry == nil {
			opts.Telemetry = telemetry.New(telemetry.Options{WindowCycles: cfg.PhaseInterval, Registry: o.Registry})
		}
	}
	if opts.Telemetry != nil {
		proc.SetTelemetry(opts.Telemetry)
		if sim.prog != nil {
			opts.Telemetry.SetProgress(sim.prog)
		}
	}
	if opts.PipeTrace != nil {
		proc.SetPipeTrace(opts.PipeTrace)
	}
	if opts.Inject != nil {
		proc.AttachSink(opts.Inject)
	}
	if opts.Propagation != nil {
		proc.SetPropagation(opts.Propagation)
	}
	if opts.CPIStack != nil {
		proc.SetCPIStack(opts.CPIStack)
	}
	return sim, nil
}

// Sim is one assembled simulation: a processor with its observers
// attached. It is single-shot.
type Sim struct {
	proc   *core.Processor
	prog   *obs.Progress // tracks the "run" phase
	warmup uint64        // commits before measurement, on the run phase's axis
}

// Run simulates until total instructions commit across all threads: the
// paper's stop rule, under which faster threads commit more. The run
// phase counts every commit, so its total includes the warmup.
func (s *Sim) Run(total uint64) (*core.Results, error) {
	s.prog.Phase("run", s.warmup+total)
	return s.proc.Run(core.Limits{TotalInstructions: total})
}

// RunPerThread simulates until every thread commits its quota.
func (s *Sim) RunPerThread(quotas []uint64) (*core.Results, error) {
	var total uint64
	for _, q := range quotas {
		total += q
	}
	s.prog.Phase("run", total)
	return s.proc.Run(core.Limits{PerThread: quotas})
}

// Build assembles rv's run with opts' observers attached. It is the one
// way a resolved spec becomes a simulation, whether smtsim, the
// experiments runner or an avfd point drives it. The per-thread sources
// are fresh deterministic generators for benchmark specs and the loaded
// recordings for trace-file specs.
func (rv *Resolved) Build(opts Options) (*Sim, error) {
	var (
		srcs []core.Source
		err  error
	)
	if rv.Profiles != nil {
		srcs, err = core.Sources(rv.Config, rv.Profiles)
	} else {
		srcs, err = core.ReplaySources(rv.Spec.TraceFiles)
	}
	if err != nil {
		return nil, err
	}
	return Build(rv.Config, srcs, opts)
}

// Run builds rv's run and simulates it to the resolved quota.
func (rv *Resolved) Run(opts Options) (*core.Results, error) {
	sim, err := rv.Build(opts)
	if err != nil {
		return nil, err
	}
	return sim.Run(rv.Quota)
}

// StrikeCampaign builds rv's fault-injection campaign, classifying strike
// outcomes against the spec's protection map.
func (rv *Resolved) StrikeCampaign() (*inject.Campaign, error) {
	camp, err := inject.NewCampaign(core.StructBits(rv.Config), rv.Every, rv.CampaignSeed)
	if err != nil {
		return nil, err
	}
	camp.SetProtection(rv.Protection.Detections())
	return camp, nil
}

// CrossVal builds the agreement report between a finished run's tracker
// AVFs and the strike experiment of the campaign that observed it; seed
// labels the report.
func (rv *Resolved) CrossVal(seed uint64, res *core.Results, stats *inject.Stats) *crossval.Report {
	return crossval.Build(crossval.Meta{
		Workload: rv.Title,
		Policy:   rv.Spec.PolicyName(),
		Seed:     seed,
		Seeds:    1,
		Every:    rv.Every,
		Cycles:   res.Cycles,
	}, res.AVF.Total, stats)
}

// SampleStrikes draws n strikes into every structure from what camp
// sampled over a cycles-long run: the input a propagation analysis
// taint-tracks.
func (rv *Resolved) SampleStrikes(camp *inject.Campaign, cycles uint64, n int) []inject.Strike {
	var strikes []inject.Strike
	for _, s := range avf.Structs() {
		strikes = append(strikes, camp.SampleStrikes(s, cycles, n)...)
	}
	return strikes
}
