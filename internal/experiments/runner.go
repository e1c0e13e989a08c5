// Package experiments reproduces every table and figure of the paper's
// evaluation (§3–§4): the workload table, the 4-context AVF profile
// (Fig. 1–2), the SMT vs single-thread comparison (Fig. 3–4), the
// thread-count sweep (Fig. 5), and the fetch-policy study (Fig. 6–8).
// Each driver returns plain Tables that cmd/avfreport renders and
// bench_test.go regenerates.
package experiments

import (
	"fmt"
	"sync"

	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/shard"
	"smtavf/internal/workload"
)

// Options scales and seeds the experiment runs.
type Options struct {
	// Base is the instruction budget of a 2-context run; 4- and 8-context
	// runs use 2× and 4× (the paper's 50M/100M/200M ratio, scaled down —
	// synthetic workloads are stationary, so AVFs converge quickly).
	Base uint64
	// Warmup instructions committed before measurement (stands in for the
	// paper's SimPoint fast-forward). Defaults to Base/2.
	Warmup uint64
	// NoWarmup disables warmup entirely (cold-start measurement).
	NoWarmup bool
	// Seed makes the whole report reproducible.
	Seed uint64
	// Configure, if non-nil, may adjust each machine configuration before
	// a run (used by ablation benchmarks).
	Configure func(*core.Config)
	// Shards splits every run into this many deterministic intervals per
	// thread, simulated in parallel on ShardWorkers goroutines (see
	// internal/shard). 0 or 1 runs monolithically. Sharded runs keep exact
	// commit counts; AVFs carry the documented shard.DefaultTolerance.
	Shards int
	// ShardWorkers bounds the worker pool of sharded runs (0 = GOMAXPROCS).
	ShardWorkers int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Base == 0 {
		o.Base = 50_000
	}
	if o.Warmup == 0 && !o.NoWarmup {
		o.Warmup = o.Base / 2
	}
	if o.NoWarmup {
		o.Warmup = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Runner executes and memoizes simulation runs; figures sharing a
// configuration (e.g. Figures 1 and 2) reuse results. It is safe for
// concurrent use (Preload), with per-key in-flight deduplication so a run
// requested twice executes once.
type Runner struct {
	opts    Options
	mu      sync.Mutex
	mixes   map[string]*runEntry
	singles map[string]*runEntry // single-thread runs, keyed benchmark/quota
}

type runEntry struct {
	once sync.Once
	res  *core.Results
	err  error
}

// memo returns the entry for key in m, creating it if needed.
func (r *Runner) memo(m map[string]*runEntry, key string) *runEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := m[key]
	if !ok {
		e = &runEntry{}
		m[key] = e
	}
	return e
}

// NewRunner builds a runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:    opts.withDefaults(),
		mixes:   make(map[string]*runEntry),
		singles: make(map[string]*runEntry),
	}
}

// budget returns the instruction budget for a context count.
func (r *Runner) budget(contexts int) uint64 {
	switch {
	case contexts >= 8:
		return 4 * r.opts.Base
	case contexts >= 4:
		return 2 * r.opts.Base
	default:
		return r.opts.Base
	}
}

// Mix runs (or recalls) a Table 2 mix under the named fetch policy.
func (r *Runner) Mix(contexts int, kind workload.Kind, group workload.Group, policy string) (*core.Results, error) {
	key := fmt.Sprintf("%d/%s/%s/%s", contexts, kind, group, policy)
	e := r.memo(r.mixes, key)
	e.once.Do(func() { e.res, e.err = r.runMix(contexts, kind, group, policy) })
	return e.res, e.err
}

func (r *Runner) runMix(contexts int, kind workload.Kind, group workload.Group, policy string) (*core.Results, error) {
	m, err := workload.Lookup(contexts, kind, group)
	if err != nil {
		return nil, err
	}
	res, err := r.runSpec(r.withShards(campaign.Spec{Mix: m.Name(), Policy: policy}))
	if err != nil {
		return nil, fmt.Errorf("mix %s under %s: %w", m.Name(), policy, err)
	}
	return res, nil
}

// Single runs (or recalls) benchmark bench alone for quota instructions —
// the superscalar baseline.
func (r *Runner) Single(bench string, quota uint64) (*core.Results, error) {
	key := fmt.Sprintf("%s/%d", bench, quota)
	e := r.memo(r.singles, key)
	e.once.Do(func() { e.res, e.err = r.runSingle(bench, quota) })
	return e.res, e.err
}

func (r *Runner) runSingle(bench string, quota uint64) (*core.Results, error) {
	res, err := r.runSpec(r.withShards(campaign.Spec{Benchmarks: []string{bench}, Instructions: quota}))
	if err != nil {
		return nil, fmt.Errorf("single %s: %w", bench, err)
	}
	return res, nil
}

// withShards gives a spec that leaves its shard shape unset the runner's
// (Options.Shards, avfd -shards). Only runs without pipeline observers
// take it: the observers need a monolithic run.
func (r *Runner) withShards(spec campaign.Spec) campaign.Spec {
	if spec.Shards == 0 {
		spec.Shards, spec.ShardWorkers = r.opts.Shards, r.opts.ShardWorkers
	}
	return spec
}

// runSpec resolves spec against the runner's defaults and runs it with no
// observer attached.
func (r *Runner) runSpec(spec campaign.Spec) (*core.Results, error) {
	rv, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	return simulate(rv, shard.Options{})
}

// simulate assembles rv's run through shard.Build, in the spec's shard
// shape with opts' observers attached, and runs it to the resolved quota.
// A sharded run splits the quota evenly across threads (the engine's stop
// rule), so per-thread commits are exact either way.
func simulate(rv *campaign.Resolved, opts shard.Options) (*core.Results, error) {
	factory, err := rv.SourceFactory()
	if err != nil {
		return nil, err
	}
	opts.Shards, opts.Workers, opts.WarmupWindow = rv.Spec.Shards, rv.Spec.ShardWorkers, rv.Spec.ShardWarmupWindow
	sim, err := shard.Build(rv.Config, factory, opts)
	if err != nil {
		return nil, err
	}
	return sim.Run(rv.Quota)
}

// MixAvg runs a mix over every available group and returns the results
// (the paper averages groups A and B wherever both exist).
func (r *Runner) MixAvg(contexts int, kind workload.Kind, policy string) ([]*core.Results, error) {
	var out []*core.Results
	for _, g := range workload.Groups(contexts) {
		res, err := r.Mix(contexts, kind, g, policy)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
