package core

import (
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/cpistack"
	"smtavf/internal/telemetry"
)

// runObserved runs mcf+gcc with the observer attached and, for
// a nonzero window, a telemetry collector of that window; it returns the
// collector's windows.
func runObserved(t *testing.T, warmup uint64, opt cpistack.Options, window, total uint64) (*Processor, *cpistack.Observer, []telemetry.Window, *Results) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.Warmup = warmup
	proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	var col *telemetry.Collector
	if window > 0 {
		col = telemetry.New(telemetry.Options{WindowCycles: window})
		proc.SetTelemetry(col)
	}
	o := cpistack.New(opt)
	proc.SetCPIStack(o)
	res, err := proc.Run(Limits{TotalInstructions: total})
	if err != nil {
		t.Fatal(err)
	}
	return proc, o, col.Ring(), res
}

// measuredWindows checks that every window carries the stack and the fate
// split, that the warmup windows read zero, and returns the rest.
func measuredWindows(t *testing.T, wins []telemetry.Window) []telemetry.Window {
	t.Helper()
	var out []telemetry.Window
	for _, w := range wins {
		if w.Stack == nil || w.Fates == nil {
			t.Fatalf("window %d carries no stack or fate split", w.Index)
		}
		if !w.Warmup {
			out = append(out, w)
			continue
		}
		for c, col := range w.Stack {
			for tid, v := range col {
				if v != 0 {
					t.Errorf("warmup window %d: t%d.%s = %d, want 0", w.Index, tid, c, v)
				}
			}
		}
		for s, byFate := range w.Fates {
			for f, v := range byFate {
				if v != 0 {
					t.Errorf("warmup window %d: %s.%s = %d, want 0", w.Index, s, f, v)
				}
			}
		}
	}
	if len(out) < 2 {
		t.Fatalf("only %d measured windows; want several", len(out))
	}
	return out
}

// TestCPIStackSumsToCycles is half the reconciliation contract: every
// thread-cycle of the measurement window is attributed to exactly one
// stack component, so per-thread components sum to the simulated cycle
// count — cold and across a warmup rebase.
func TestCPIStackSumsToCycles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		warmup uint64
	}{
		{"cold", 0},
		{"with-warmup", 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, o, wins, res := runObserved(t, tc.warmup, cpistack.Options{}, 2048, 20_000)
			for tid := 0; tid < o.Threads(); tid++ {
				if got, want := o.CycleCount(tid), res.Cycles; got != want {
					t.Errorf("thread %d: stack components sum to %d cycles, simulated %d", tid, got, want)
				}
			}
			// The telemetry windows decompose the same totals exactly:
			// within each window the per-thread stacks sum to the span.
			var winSum uint64
			for _, w := range measuredWindows(t, wins) {
				var sum uint64
				for _, col := range w.Stack {
					for _, v := range col {
						sum += v
					}
				}
				if want := w.Cycles() * uint64(o.Threads()); sum != want {
					t.Errorf("window %d: stack sums to %d thread-cycles, span holds %d", w.Index, sum, want)
				}
				winSum += sum
			}
			if want := res.Cycles * uint64(o.Threads()); winSum != want {
				t.Errorf("windows sum to %d thread-cycles, run measured %d", winSum, want)
			}
		})
	}
}

// TestCPIStackOccupancyMatchesTracker is the other half: the
// occupancy-by-fate decomposition replays the tracker's clipped-interval
// arithmetic (uop residencies at the classification sites, register-file
// intervals through the tracker's sink), so per-structure sums match the
// tracker's ACE and occupied bit-cycle totals bit for bit. The fates are
// booked at classification like the window's AVF and occupancy, so in
// every telemetry window the committed fate is the window's AVF and the
// fate total its occupancy, as float equality.
func TestCPIStackOccupancyMatchesTracker(t *testing.T) {
	for _, tc := range []struct {
		name   string
		warmup uint64
	}{
		{"cold", 0},
		{"with-warmup", 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proc, o, wins, _ := runObserved(t, tc.warmup, cpistack.Options{}, 2048, 20_000)
			trk := proc.Tracker()
			measured := measuredWindows(t, wins)
			for _, s := range cpistack.OccupancyStructs() {
				if got, want := o.ACEBitCycles(s), trk.ACEBitCycles(s); got != want {
					t.Errorf("%s: observer ACE bit-cycles %d, tracker %d", s, got, want)
				}
				if got, want := o.ResidentBitCycles(s), trk.OccupiedBitCycles(s); got != want {
					t.Errorf("%s: observer resident bit-cycles %d, tracker %d", s, got, want)
				}
				var aceSum, residentSum uint64
				for _, w := range measured {
					byFate := w.Fates[s.String()]
					var resident uint64
					for _, v := range byFate {
						resident += v
					}
					committed := byFate[avf.FateCommitted.String()]
					aceSum += committed
					residentSum += resident
					if w.Cycles() == 0 {
						continue // the final window of a run ending on a boundary
					}
					den := float64(trk.Bits(s)) * float64(w.Cycles())
					if got, want := float64(committed)/den, w.AVF[s.String()]; got != want {
						t.Errorf("window %d %s: committed fate reads AVF %v, window avf %v", w.Index, s, got, want)
					}
					if got, want := float64(resident)/den, w.Occupancy[s.String()]; got != want {
						t.Errorf("window %d %s: fate total reads occupancy %v, window occupancy %v", w.Index, s, got, want)
					}
				}
				if want := trk.ACEBitCycles(s); aceSum != want {
					t.Errorf("%s: windows' committed fate sums to %d bit-cycles, tracker ACE %d", s, aceSum, want)
				}
				if want := trk.OccupiedBitCycles(s); residentSum != want {
					t.Errorf("%s: windows' fate split sums to %d bit-cycles, tracker %d", s, residentSum, want)
				}
			}
		})
	}
}

// TestCPIStackDetachedRunIdentical checks the observer never perturbs the
// simulation: cycles, commits, and AVF match a detached run.
func TestCPIStackDetachedRunIdentical(t *testing.T) {
	run := func(attach bool) *Results {
		cfg := DefaultConfig(2)
		proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			proc.SetCPIStack(cpistack.New(cpistack.Options{}))
		}
		res, err := proc.Run(Limits{TotalInstructions: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(true), run(false)
	if with.Cycles != without.Cycles || with.Total != without.Total {
		t.Fatalf("observer perturbed the run: %d/%d cycles, %d/%d commits",
			with.Cycles, without.Cycles, with.Total, without.Total)
	}
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		if with.StructAVF(s) != without.StructAVF(s) {
			t.Fatalf("%s AVF differs with observer attached", s)
		}
	}
}

// TestCPIStackComponentsPopulated sanity-checks the attribution rule on a
// memory-bound 2-thread mix: the base component exists (work committed),
// and at least one memory-stall component is charged — an all-base stack
// would mean the priority chain short-circuits.
func TestCPIStackComponentsPopulated(t *testing.T) {
	_, o, _, _ := runObserved(t, 0, cpistack.Options{}, 0, 20_000)
	var base, mem uint64
	for tid := 0; tid < o.Threads(); tid++ {
		base += o.ComponentCycles(tid, cpistack.CompBase)
		mem += o.ComponentCycles(tid, cpistack.CompDCacheMiss) +
			o.ComponentCycles(tid, cpistack.CompL2Miss)
	}
	if base == 0 {
		t.Error("no cycles attributed to base on a committing run")
	}
	if mem == 0 {
		t.Error("no cycles attributed to memory stalls on an mcf mix")
	}
}
