// Package experiments reproduces every table and figure of the paper's
// evaluation (§3–§4): the workload table, the 4-context AVF profile
// (Fig. 1–2), the SMT vs single-thread comparison (Fig. 3–4), the
// thread-count sweep (Fig. 5), and the fetch-policy study (Fig. 6–8).
// Each driver returns plain Tables that cmd/avfreport renders.
package experiments

import (
	"encoding/json"
	"fmt"
	"sync"

	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/workload"
)

// Options scales and seeds the experiment runs.
type Options struct {
	// Base is the instruction budget of a 2-context run; 4- and 8-context
	// runs use 2× and 4× (the paper's 50M/100M/200M ratio, scaled down —
	// synthetic workloads are stationary, so AVFs converge quickly).
	Base uint64
	// NoWarmup disables warmup (cold-start measurement). Otherwise every
	// run commits Base/2 instructions before measurement, standing in for
	// the paper's SimPoint fast-forward.
	NoWarmup bool
	// Seed makes the whole report reproducible.
	Seed uint64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Base == 0 {
		o.Base = 50_000
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
	opts Options
	mu   sync.Mutex
	runs map[string]*runEntry // keyed by the spec's JSON
}

type runEntry struct {
	once sync.Once
	res  *core.Results
	err  error
}

// NewRunner builds a runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts.withDefaults(), runs: make(map[string]*runEntry)}
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
	m, err := workload.Lookup(contexts, kind, group)
	if err != nil {
		return nil, err
	}
	res, err := r.run(campaign.Spec{Mix: m.Name(), Policy: policy})
	if err != nil {
		return nil, fmt.Errorf("mix %s under %s: %w", m.Name(), policy, err)
	}
	return res, nil
}

// Single runs (or recalls) benchmark bench alone for quota instructions —
// the superscalar baseline.
func (r *Runner) Single(bench string, quota uint64) (*core.Results, error) {
	res, err := r.run(campaign.Spec{Benchmarks: []string{bench}, Instructions: quota})
	if err != nil {
		return nil, fmt.Errorf("single %s: %w", bench, err)
	}
	return res, nil
}

// run runs (or recalls) spec with no observer attached, memoized by the
// spec's JSON.
func (r *Runner) run(spec campaign.Spec) (*core.Results, error) {
	key, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	e, ok := r.runs[string(key)]
	if !ok {
		e = &runEntry{}
		r.runs[string(key)] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		var rv *campaign.Resolved
		if rv, e.err = spec.Resolve(r.defaults()); e.err == nil {
			e.res, e.err = rv.Run(campaign.Options{})
		}
	})
	return e.res, e.err
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
