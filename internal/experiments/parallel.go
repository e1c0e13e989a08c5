package experiments

import (
	"runtime"
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

// forEach runs fn(0..n-1) concurrently on a worker pool bounded by
// GOMAXPROCS. Each job must be fully independent — simulations share no
// state — which is what makes this safe. The first error is returned;
// after it the workers drain the remaining jobs without running them, so
// the sender never blocks on a pool whose workers have all failed.
func forEach(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var (
		wg     sync.WaitGroup
		once   sync.Once
		failed atomic.Bool
		first  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue
				}
				if err := fn(i); err != nil {
					once.Do(func() { first = err })
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return first
}

// Preload runs the given specs concurrently (bounded by GOMAXPROCS) and
// fills the runner's cache, so the figure drivers afterwards assemble
// their tables from memoized results.
func (r *Runner) Preload(specs []MixSpec) error {
	return forEach(len(specs), func(i int) error {
		s := specs[i]
		_, err := r.Mix(s.Contexts, s.Kind, s.Group, s.Policy)
		return err
	})
}

// PreloadSingles concurrently runs each distinct benchmark standalone for
// the runner's base budget (the Figure 8 speedup denominators).
func (r *Runner) PreloadSingles() error {
	seen := map[string]bool{}
	var names []string
	for _, m := range workload.Mixes() {
		for _, b := range m.Benchmarks {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
	}
	return forEach(len(names), func(i int) error {
		_, err := r.Single(names[i], r.opts.Base)
		return err
	})
}
