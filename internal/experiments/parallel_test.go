package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachAllJobsFail: when every job fails, the pool must still take
// every job off the channel and return the error, not leave the sender
// blocked on workers that have stopped receiving.
func TestForEachAllJobsFail(t *testing.T) {
	n := 4*runtime.GOMAXPROCS(0) + 1
	done := make(chan error, 1)
	go func() {
		done <- forEach(n, func(i int) error { return fmt.Errorf("job %d failed", i) })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("forEach returned nil after every job failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("forEach did not return within 10s after all %d jobs failed", n)
	}
}

// TestQueueRunsPushedJobs: jobs pushed by running jobs run too, each
// exactly once, and run returns only after the last of them.
func TestQueueRunsPushedJobs(t *testing.T) {
	const parents, children = 24, 3
	var ran [parents * (children + 1)]atomic.Int32
	q := newQueue()
	for i := 0; i < parents; i++ {
		q.push(func() error {
			ran[i].Add(1)
			for c := 1; c <= children; c++ {
				q.push(func() error {
					ran[c*parents+i].Add(1)
					return nil
				})
			}
			return nil
		})
	}
	if err := q.run(); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Errorf("job %d ran %d times, want 1", i, n)
		}
	}
}

// TestPreloadReplays: the one-pool preload caches every run Figures 3
// and 4 read, replays included, and those figures render as they do from
// a runner that simulates each run on first use.
func TestPreloadReplays(t *testing.T) {
	opts := Options{Base: 1_000, Seed: 1}
	var specs []MixSpec
	for _, s := range AllSpecs() {
		if s.Contexts == 2 || isReplayed(s) {
			specs = append(specs, s)
		}
	}
	r := NewRunner(opts)
	if err := r.Preload(specs); err != nil {
		t.Fatal(err)
	}
	cached := len(r.runs)
	if want := len(specs) + 3*4; cached < want { // 12 replays: 3 mixes × 4 threads
		t.Fatalf("preload cached %d runs, want at least %d", cached, want)
	}
	for _, fig := range []func(*Runner) (*Table, error){(*Runner).Figure3, (*Runner).Figure4} {
		got, err := fig(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fig(NewRunner(opts))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s differs after the preload:\n%s\nwant\n%s", got.Title, got, want)
		}
	}
	if n := len(r.runs) - cached; n != 0 {
		t.Errorf("Figures 3 and 4 started %d runs the preload did not cache", n)
	}
}
