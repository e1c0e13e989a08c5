package campaign

import (
	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/crossval"
	"smtavf/internal/inject"
	"smtavf/internal/shard"
)

// Build assembles rv's run through shard.Build, in the spec's shard shape
// with opts' observers attached. It is the one way a resolved spec
// becomes a simulation, whether smtsim, the experiments runner or an avfd
// point drives it. The per-thread sources are fresh deterministic
// generators for benchmark specs and clones of once-loaded recordings for
// trace-file specs, so every shard may build its own, concurrently.
func (rv *Resolved) Build(opts shard.Options) (*shard.Sim, error) {
	factory := func() ([]core.Source, error) { return core.Sources(rv.Config, rv.Profiles) }
	if rv.Profiles == nil {
		var err error
		if factory, err = core.ReplayFactory(rv.Spec.TraceFiles); err != nil {
			return nil, err
		}
	}
	opts.Shards, opts.Workers, opts.WarmupWindow = rv.Spec.Shards, rv.Spec.ShardWorkers, rv.Spec.ShardWarmupWindow
	return shard.Build(rv.Config, factory, opts)
}

// Run builds rv's run and simulates it to the resolved quota. A sharded
// run splits the quota evenly across threads (the engine's stop rule), so
// per-thread commits are exact either way.
func (rv *Resolved) Run(opts shard.Options) (*core.Results, error) {
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
