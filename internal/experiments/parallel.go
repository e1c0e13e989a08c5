package experiments

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

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
// state — which is what makes this safe. The first error is returned.
func forEach(n int, fn func(i int) error) error {
	q := newQueue()
	for i := 0; i < n; i++ {
		q.push(func() error { return fn(i) })
	}
	return q.run()
}

// queue is a FIFO of jobs run by run's GOMAXPROCS workers. A running job
// may push more; run returns once every job pushed has finished, with the
// first error. After an error the workers drain the remaining jobs without
// running them, so no job blocks on a pool whose workers have all failed.
type queue struct {
	mu      sync.Mutex
	wake    sync.Cond // signals a push, or a finished job
	jobs    []func() error
	running int
	err     error
}

func newQueue() *queue {
	q := &queue{}
	q.wake.L = &q.mu
	return q
}

// push appends job to the queue.
func (q *queue) push(job func() error) {
	q.mu.Lock()
	q.jobs = append(q.jobs, job)
	q.mu.Unlock()
	q.wake.Signal()
}

// run works the queue on GOMAXPROCS goroutines until it is empty and no
// job is running.
func (q *queue) run() error {
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.work()
		}()
	}
	wg.Wait()
	return q.err
}

func (q *queue) work() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for len(q.jobs) == 0 && q.running > 0 {
			q.wake.Wait() // a running job may still push more
		}
		if len(q.jobs) == 0 {
			q.wake.Broadcast() // drained: release the other waiters
			return
		}
		job := q.jobs[0]
		q.jobs = q.jobs[1:]
		if q.err != nil {
			continue
		}
		q.running++
		q.mu.Unlock()
		err := job()
		q.mu.Lock()
		q.running--
		if err != nil && q.err == nil {
			q.err = err
		}
		if q.running == 0 {
			q.wake.Broadcast()
		}
	}
}

// Preload fills the runner's cache on one worker pool bounded by
// GOMAXPROCS, so the figure drivers afterwards assemble their tables from
// memoized results: the given mix runs longest first, then the
// single-thread baselines (PreloadSingles), then the Figure 3 and 4
// replays. A replay's quota is what its thread committed in one of the
// mix runs, so that run queues its replays when it finishes; no worker
// waits on another.
func (r *Runner) Preload(specs []MixSpec) error {
	specs = slices.Clone(specs)
	slices.SortStableFunc(specs, func(a, b MixSpec) int {
		// 8 contexts run 4× the 2-context budget, and memory-bound mixes
		// run at the lowest IPC.
		return cmp.Or(cmp.Compare(b.Contexts, a.Contexts), cmp.Compare(b.Kind, a.Kind))
	})
	q := newQueue()
	for _, s := range specs {
		q.push(func() error {
			smt, err := r.Mix(s.Contexts, s.Kind, s.Group, s.Policy)
			if err != nil || !isReplayed(s) {
				return err
			}
			m, err := workload.Lookup(s.Contexts, s.Kind, s.Group)
			if err != nil {
				return err
			}
			for tid, bench := range m.Benchmarks {
				q.push(func() error {
					_, err := r.Single(bench, replayQuota(smt, tid))
					return err
				})
			}
			return nil
		})
	}
	r.pushSingles(q)
	return q.run()
}

// PreloadSingles concurrently runs each distinct benchmark standalone for
// the runner's base budget (the Figure 8 speedup denominators).
func (r *Runner) PreloadSingles() error {
	q := newQueue()
	r.pushSingles(q)
	return q.run()
}

// pushSingles queues one standalone run of each distinct benchmark at the
// runner's base budget.
func (r *Runner) pushSingles(q *queue) {
	seen := map[string]bool{}
	for _, m := range workload.Mixes() {
		for _, b := range m.Benchmarks {
			if !seen[b] {
				seen[b] = true
				q.push(func() error {
					_, err := r.Single(b, r.opts.Base)
					return err
				})
			}
		}
	}
}
