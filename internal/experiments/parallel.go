package experiments

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"smtavf/internal/workload"
)

// MixSpec names one simulation run of the evaluation grid.
type MixSpec struct {
	Contexts int
	Kind     workload.Kind
	Group    workload.Group
	Policy   string
}

// AllSpecs returns every mix run the eight figures need: the six paper
// policies across 4 and 8 contexts, plus the ICOUNT runs at 2 contexts
// (Figure 5), for every kind and group.
func AllSpecs() []MixSpec {
	var specs []MixSpec
	add := func(contexts int, policies []string) {
		for _, k := range workload.Kinds() {
			for _, g := range workload.Groups(contexts) {
				for _, p := range policies {
					specs = append(specs, MixSpec{contexts, k, g, p})
				}
			}
		}
	}
	add(2, []string{"ICOUNT"})
	add(4, policyNames)
	add(8, policyNames)
	return specs
}

// forEach runs fn(0..n-1) on up to GOMAXPROCS workers that take indices
// from one shared counter. Each job must be fully independent —
// simulations share no state — which is what makes this safe. No job
// starts once one has failed; the first error is returned.
func forEach(n int, fn func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		first  error
		once   sync.Once
		wg     sync.WaitGroup
	)
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err; failed.Store(true) })
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Preload fills the runner's cache on one forEach pool, so the figure
// drivers afterwards assemble their tables from memoized results. The job
// list is fixed: the given mix runs longest first, then the single-thread
// baselines (PreloadSingles). A replay's quota is what its thread
// committed in one of the mix runs, so the worker that finishes a mix
// whose threads Figures 3 and 4 replay (isReplayed) runs its replays next;
// no worker waits on another.
func (r *Runner) Preload(specs []MixSpec) error {
	specs = slices.Clone(specs)
	slices.SortStableFunc(specs, func(a, b MixSpec) int {
		// 8 contexts run 4× the 2-context budget, and memory-bound mixes
		// run at the lowest IPC.
		return cmp.Or(cmp.Compare(b.Contexts, a.Contexts), cmp.Compare(b.Kind, a.Kind))
	})
	benches := baselineBenches()
	return forEach(len(specs)+len(benches), func(i int) error {
		if i >= len(specs) {
			_, err := r.Single(benches[i-len(specs)], r.opts.Base)
			return err
		}
		s := specs[i]
		smt, err := r.Mix(s.Contexts, s.Kind, s.Group, s.Policy)
		if err != nil || !isReplayed(s) {
			return err
		}
		m, err := workload.Lookup(s.Contexts, s.Kind, s.Group)
		if err != nil {
			return err
		}
		for tid, bench := range m.Benchmarks {
			if _, err := r.Single(bench, replayQuota(smt, tid)); err != nil {
				return err
			}
		}
		return nil
	})
}

// PreloadSingles concurrently runs each distinct benchmark standalone for
// the runner's base budget (the Figure 8 speedup denominators).
func (r *Runner) PreloadSingles() error {
	benches := baselineBenches()
	return forEach(len(benches), func(i int) error {
		_, err := r.Single(benches[i], r.opts.Base)
		return err
	})
}

// baselineBenches lists every benchmark of Table 2 once, in mix order.
func baselineBenches() []string {
	var out []string
	for _, m := range workload.Mixes() {
		for _, b := range m.Benchmarks {
			if !slices.Contains(out, b) {
				out = append(out, b)
			}
		}
	}
	return out
}
