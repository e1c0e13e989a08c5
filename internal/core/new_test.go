package core

import (
	"runtime"
	"testing"
)

// table1Mix is the 4-context machine core.New is measured on: the paper's
// Table 1 configuration running the 4ctx-MIX-A benchmarks.
var table1Mix = []string{"gcc", "mcf", "vpr", "perlbmk"}

// Bounds on building the 4-context Table 1 machine (docs/performance.md,
// "Lean machine state"). Every avfreport figure run and every avfd point
// pays this once; the compact cache lines put it near 200 allocations and
// 0.9 MB, from 1,232 and 2.0 MB with per-line AVF state on every level.
const (
	maxNewAllocs = 300
	maxNewBytes  = 1_200_000
)

// TestNewAllocs bounds the allocations and bytes of core.New for the
// 4-context Table 1 machine. Like testing.AllocsPerRun it measures with
// GOMAXPROCS 1, averaged over a few builds.
func TestNewAllocs(t *testing.T) {
	cfg := DefaultConfig(4)
	profiles := profilesFor(t, table1Mix)
	if _, err := New(cfg, profiles); err != nil { // warm one-time state
		t.Fatal(err)
	}
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := New(cfg, profiles); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("core.New, 4-context Table 1 machine: %d allocs, %d bytes (bounds %d, %d)",
		allocs, bytes, maxNewAllocs, maxNewBytes)
	if allocs > maxNewAllocs {
		t.Errorf("core.New allocates %d times, more than %d", allocs, maxNewAllocs)
	}
	if bytes > maxNewBytes {
		t.Errorf("core.New allocates %d bytes, more than %d", bytes, maxNewBytes)
	}
}

// BenchmarkNew times building the 4-context Table 1 machine.
func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig(4)
	profiles := profilesFor(b, table1Mix)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, profiles); err != nil {
			b.Fatal(err)
		}
	}
}
