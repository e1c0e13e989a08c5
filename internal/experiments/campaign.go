package experiments

import (
	"fmt"

	"smtavf/internal/campaign"
	"smtavf/internal/cpistack"
	"smtavf/internal/crossval"
	"smtavf/internal/inject"
	"smtavf/internal/propagation"
	"smtavf/internal/shard"
)

// defaults exposes the runner's options as the spec-resolution fallbacks:
// every run the runner makes resolves a campaign.Spec against them.
func (r *Runner) defaults() campaign.Defaults {
	d := campaign.Defaults{Seed: r.opts.Seed, Budget: r.budget}
	if !r.opts.NoWarmup {
		d.Warmup = r.opts.Base / 2
	}
	return d
}

// Campaign executes one campaign point — the single entry point the CLIs
// and the avfd service share. The spec's kind selects the experiment:
// a plain run (optionally sharded or with a strike campaign attached),
// the ACE-vs-injection cross-validation, the fault-propagation atlas, or
// the CPI-stack explainability study. Campaign runs are not memoized.
func (r *Runner) Campaign(spec campaign.Spec) (*campaign.Result, error) {
	switch spec.Kind() {
	case campaign.KindCrossVal:
		return r.campaignCrossVal(spec)
	case campaign.KindPropagation:
		return r.campaignPropagation(spec)
	case campaign.KindExplain:
		return r.campaignExplain(spec)
	default:
		return r.campaignRun(spec)
	}
}

// newResult seeds the shared Result header.
func newResult(spec campaign.Spec, title string, seed uint64) *campaign.Result {
	return &campaign.Result{
		V:        campaign.ResultVersion,
		Kind:     spec.Kind(),
		Name:     spec.Name,
		Title:    title,
		Workload: spec.WorkloadName(),
		Policy:   spec.PolicyName(),
		Seed:     seed,
		Status:   "ok",
	}
}

// campaignRun executes a plain simulation point: sharded when the spec
// (or, for a spec without a strike campaign, the runner) asks for it,
// monolithic otherwise, with an optional strike campaign cross-validated
// against the tracker.
func (r *Runner) campaignRun(spec campaign.Spec) (*campaign.Result, error) {
	if spec.Inject == nil {
		spec = r.withShards(spec)
	}
	rv, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	var camp *inject.Campaign
	if spec.Inject != nil {
		if camp, err = rv.StrikeCampaign(); err != nil {
			return nil, err
		}
	}
	res, err := rv.Run(shard.Options{Inject: camp})
	if err != nil {
		return nil, fmt.Errorf("campaign run %s: %w", rv.Title, err)
	}
	result := newResult(spec, rv.Title, rv.Config.Seed)
	result.FillRun(res)
	if camp != nil {
		stats := camp.RunStrikes(res.Cycles, rv.Stop)
		result.Strikes = stats.TotalStrikes
		result.CrossVal = rv.CrossVal(rv.CampaignSeed, res, stats)
	}
	return result, nil
}

// campaignCrossVal runs the seed fanout concurrently (one simulation +
// campaign per seed) and pools the per-seed agreement reports into one.
// Each fanout seed seeds both the simulation and its campaign (unless
// Inject.Seed pins the campaign seed).
func (r *Runner) campaignCrossVal(spec campaign.Spec) (*campaign.Result, error) {
	rv0, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	seeds := rv0.Seeds
	perSeed := make([]*crossval.Report, len(seeds))
	err = forEach(len(seeds), func(i int) error {
		sp := spec
		sp.Seed = seeds[i]
		rv, err := sp.Resolve(r.defaults())
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		camp, err := rv.StrikeCampaign()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		res, err := rv.Run(shard.Options{Inject: camp})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		perSeed[i] = rv.CrossVal(rv.Config.Seed, res, camp.RunStrikes(res.Cycles, rv.Stop))
		return nil
	})
	if err != nil {
		return nil, err
	}
	pooled, err := crossval.Pool(perSeed)
	if err != nil {
		return nil, err
	}
	result := newResult(spec, rv0.Title, spec.Seed)
	result.CrossVal = pooled
	result.CrossValSeeds = perSeed
	for _, e := range pooled.Entries {
		result.Strikes += e.Strikes
	}
	result.AVF = make(map[string]float64, len(pooled.Entries))
	for _, e := range pooled.Entries {
		result.AVF[e.Struct] = e.TrackerAVF
	}
	return result, nil
}

// campaignPropagation runs the workload with a strike campaign and the
// propagation tracer attached, then taint-tracks sampled strikes through
// the recorded dataflow.
func (r *Runner) campaignPropagation(spec campaign.Spec) (*campaign.Result, error) {
	rv, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	strikes := spec.Propagation.Strikes
	if strikes <= 0 {
		strikes = 256
	}
	title := rv.Title + " under " + spec.PolicyName()
	camp, err := rv.StrikeCampaign()
	if err != nil {
		return nil, err
	}
	tracer := propagation.New(spec.Propagation.Options)
	res, err := rv.Run(shard.Options{Inject: camp, Propagation: tracer})
	if err != nil {
		return nil, fmt.Errorf("propagation run %s: %w", title, err)
	}
	atlas := tracer.Analyze(rv.SampleStrikes(camp, res.Cycles, strikes))
	result := newResult(spec, title, rv.Config.Seed)
	result.FillRun(res)
	result.Strikes = uint64(atlas.Strikes)
	result.Atlas = atlas
	result.Propagation = campaign.SummarizeAtlas(atlas)
	return result, nil
}

// campaignExplain runs the workload once per policy with the CPI-stack
// observer attached and distills the runs into the explainability figure
// family. Each policy re-resolves the spec; the policies resolve in order,
// then their simulations run concurrently, each with its own observer.
func (r *Runner) campaignExplain(spec campaign.Spec) (*campaign.Result, error) {
	rv0, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	policies := spec.Explain.Policies
	if len(policies) == 0 {
		policies = []string{"ICOUNT", "STALL", "FLUSH"}
	}
	window := spec.Explain.Window
	if window == 0 {
		window = cpistack.DefaultWindowCycles
	}
	rvs := make([]*campaign.Resolved, len(policies))
	for i, policy := range policies {
		sp := spec
		sp.Policy = policy
		if rvs[i], err = sp.Resolve(r.defaults()); err != nil {
			return nil, err
		}
	}
	runs := make([]explainRun, len(policies))
	err = forEach(len(policies), func(i int) error {
		obs := cpistack.New(cpistack.Options{WindowCycles: window})
		res, err := rvs[i].Run(shard.Options{CPIStack: obs})
		if err != nil {
			return fmt.Errorf("explain run %s under %s: %w", rv0.Title, policies[i], err)
		}
		runs[i] = explainRun{policy: policies[i], obs: obs, res: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tables := []*Table{explainStackTable(rv0.Title, runs)}
	for _, run := range runs {
		tables = append(tables, explainOccupancyTable(rv0.Title, run))
	}
	tables = append(tables, explainCorrelationTable(rv0.Title, runs))
	result := newResult(spec, rv0.Title, rv0.Config.Seed)
	result.Tables = TablesToCampaign(tables)
	return result, nil
}

// TablesToCampaign converts renderer tables to their wire form.
func TablesToCampaign(ts []*Table) []campaign.Table {
	out := make([]campaign.Table, 0, len(ts))
	for _, t := range ts {
		out = append(out, campaign.Table{
			Title:   t.Title,
			Note:    t.Note,
			Rows:    t.Rows,
			Cols:    t.Cols,
			Cells:   t.Cells,
			Percent: t.Percent,
		})
	}
	return out
}

// TablesFromCampaign converts wire tables back for the local renderers
// (cmd/avfreport's text/CSV/chart emitters).
func TablesFromCampaign(ts []campaign.Table) []*Table {
	out := make([]*Table, 0, len(ts))
	for _, t := range ts {
		out = append(out, &Table{
			Title:   t.Title,
			Note:    t.Note,
			Rows:    t.Rows,
			Cols:    t.Cols,
			Cells:   t.Cells,
			Percent: t.Percent,
		})
	}
	return out
}
