package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachAllJobsFail: when every job fails, the pool must return the
// error rather than hang, and no job may start once one has failed, so
// each worker runs at most one of them.
func TestForEachAllJobsFail(t *testing.T) {
	n := 4*runtime.GOMAXPROCS(0) + 1
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- forEach(n, func(i int) error {
			ran.Add(1)
			return fmt.Errorf("job %d failed", i)
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("forEach returned nil after every job failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("forEach did not return within 10s after all %d jobs failed", n)
	}
	if got, workers := ran.Load(), runtime.GOMAXPROCS(0); int(got) > workers {
		t.Errorf("%d failing jobs ran on %d workers, want at most one each", got, workers)
	}
}

// TestPreloadReplays: the preload's fixed job list caches every run
// Figures 3 and 4 read, replays included, and those figures render as they do from
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
