package shard

import (
	"fmt"

	"smtavf/internal/core"
	"smtavf/internal/obs"
)

// ObserverError rejects a pipeline observer on a sharded run: the
// observers sample one contiguous cycle timeline, which a sharded run
// does not have. Observer names the Options field.
type ObserverError struct{ Observer string }

func (e *ObserverError) Error() string {
	return fmt.Sprintf("shard: %s needs a monolithic run (Shards <= 1)", e.Observer)
}

// Build assembles one simulation of cfg over the sources factory builds;
// every run, whatever drives it, is put together here. With Shards > 1 it
// validates the factory once, before any worker starts, and returns a
// sharded Engine. Otherwise it builds one processor and attaches the
// pipeline observers in a fixed order: telemetry, pipetrace, the strike
// campaign, propagation, and last the CPI-stack observer, which joins the
// campaign's tracker sink through AddSink.
func Build(cfg core.Config, factory SourceFactory, opts Options) (*Sim, error) {
	if factory == nil {
		return nil, fmt.Errorf("shard: nil source factory")
	}
	if opts.Shards > 1 {
		for _, o := range []struct {
			name string
			set  bool
		}{
			{"Telemetry", opts.Telemetry != nil},
			{"PipeTrace", opts.PipeTrace != nil},
			{"Inject", opts.Inject != nil},
			{"Propagation", opts.Propagation != nil},
			{"CPIStack", opts.CPIStack != nil},
		} {
			if o.set {
				return nil, &ObserverError{Observer: o.name}
			}
		}
		// One throwaway set of sources surfaces a bad workload here
		// rather than from a worker goroutine mid-run.
		if _, err := factory(); err != nil {
			return nil, err
		}
		eng, err := New(cfg, factory, opts)
		if err != nil {
			return nil, err
		}
		return &Sim{engine: eng}, nil
	}

	srcs, err := factory()
	if err != nil {
		return nil, err
	}
	proc, err := core.NewFromSources(cfg, srcs)
	if err != nil {
		return nil, err
	}
	sim := &Sim{proc: proc}
	if opts.Obs != nil {
		sim.prog = opts.Obs.Progress
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

// Sim is one assembled simulation: a sharded Engine, or one processor
// with its observers attached. It is single-shot.
type Sim struct {
	engine *Engine
	proc   *core.Processor
	prog   *obs.Progress // tracks a monolithic run's "run" phase
}

// Run simulates until total instructions commit: across all threads on a
// monolithic run (the paper's stop rule), split evenly per thread on a
// sharded one (Engine.Run).
func (s *Sim) Run(total uint64) (*core.Results, error) {
	if s.engine != nil {
		return s.engine.Run(total)
	}
	s.prog.Phase("run", total)
	return s.proc.Run(core.Limits{TotalInstructions: total})
}

// RunPerThread simulates until every thread commits its quota.
func (s *Sim) RunPerThread(quotas []uint64) (*core.Results, error) {
	if s.engine != nil {
		return s.engine.RunPerThread(quotas)
	}
	var total uint64
	for _, q := range quotas {
		total += q
	}
	s.prog.Phase("run", total)
	return s.proc.Run(core.Limits{PerThread: quotas})
}

// Timeline returns the per-worker phase spans of the last sharded run;
// nil for a monolithic run.
func (s *Sim) Timeline() []obs.Span {
	if s.engine == nil {
		return nil
	}
	return s.engine.Timeline()
}

// Checkpoints returns the interval-boundary checkpoints of the last
// sharded run; nil for a monolithic run.
func (s *Sim) Checkpoints() []core.Checkpoint {
	if s.engine == nil {
		return nil
	}
	return s.engine.Checkpoints()
}
