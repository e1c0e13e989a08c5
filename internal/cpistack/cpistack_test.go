package cpistack

import (
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/isa"
	"smtavf/internal/obs"
	"smtavf/internal/pipeline"
)

// testObserver builds a configured 2-thread observer with a small window.
func testObserver(window uint64) *Observer {
	o := New(Options{WindowCycles: window})
	var caps [avf.NumStructs]uint64
	for _, s := range OccupancyStructs() {
		caps[s] = 1000
	}
	o.Configure(pipeline.DefaultBits(), caps, 2, 0)
	return o
}

// aluSlot fills a fresh ALU slot of pl resident in the IQ over
// [iqStart, iqStart+iqCycles) and in the ROB over
// [robStart, robStart+robCycles).
func aluSlot(pl *pipeline.Pool, iqStart, iqCycles, robStart, robCycles uint64) pipeline.UID {
	u := pl.Alloc()
	pl.Reset(u, &isa.Instruction{Class: isa.IntALU}, 0, 0, 0, false, 0)
	r := &pl.Res[u]
	r.EnterIQ, r.IQCycles = iqStart, iqCycles
	r.EnterROB, r.ROBCycles = robStart, robCycles
	return u
}

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	o.Configure(pipeline.DefaultBits(), [avf.NumStructs]uint64{}, 2, 0)
	o.Tick(0, []Component{CompBase, CompIdle})
	o.Record(nil, 0, 0, false)
	o.Interval(avf.Reg, 0, 64, 0, 10, true)
	o.Rebase(5)
	o.Publish(nil)
	if o.CycleCount(0) != 0 || o.FormatStack() != "" {
		t.Fatal("nil observer accumulated state")
	}
}

func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Components() {
		n := c.String()
		if n == "" || strings.Contains(n, "component(") {
			t.Fatalf("component %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate component name %q", n)
		}
		seen[n] = true
	}
	if got := Component(NumComponents).String(); got != "component(11)" {
		t.Fatalf("out-of-range String() = %q", got)
	}
}

// TestRegisterIntervalFates pins the register file's sink path: ACE
// residency books the committed fate, un-ACE residency the dead fate, and
// intervals of the uop-tracked structures are left to Record.
func TestRegisterIntervalFates(t *testing.T) {
	o := testObserver(10)
	o.Interval(avf.Reg, 0, 64, 5, 25, true)
	if got := o.ACEBitCycles(avf.Reg); got != 64*20 {
		t.Errorf("cumulative ACE bit-cycles %d, want %d", got, 64*20)
	}
	// Un-ACE register residency is dead-value time.
	o.Interval(avf.Reg, 1, 64, 0, 10, false)
	if got := o.FateBitCycles(avf.Reg, avf.FateDead); got != 64*10 {
		t.Errorf("dead bit-cycles %d, want %d", got, 64*10)
	}
	// Non-Reg structures arrive via Record, not the sink: dropped here.
	o.Interval(avf.IQ, 0, 80, 0, 10, true)
	if got := o.ACEBitCycles(avf.IQ); got != 0 {
		t.Errorf("sink IQ interval accepted: %d bit-cycles", got)
	}
}

// TestRecordUsesFateAndClipsAtRebase checks Record's residency split and
// that Rebase drops prior accounting and clips later spans, mirroring the
// tracker.
func TestRecordUsesFateAndClipsAtRebase(t *testing.T) {
	o := testObserver(10)
	pl := pipeline.NewPool(2)
	o.Record(pl, aluSlot(pl, 2, 6, 0, 0), 8, false) // committed fate
	if got := o.ACEBitCycles(avf.IQ); got != 80*6 {
		t.Fatalf("IQ ACE bit-cycles %d, want %d", got, 80*6)
	}
	o.Rebase(10)
	if o.ACEBitCycles(avf.IQ) != 0 || o.CycleCount(0) != 0 {
		t.Fatal("rebase kept prior accounting")
	}
	// An interval straddling the rebase point is clipped to the measured
	// side, exactly like avf.Tracker.AddInterval.
	o.Record(pl, aluSlot(pl, 6, 8, 0, 0), 14, true) // [6, 14) -> [10, 14), squashed fate, un-ACE
	if got := o.FateBitCycles(avf.IQ, avf.FateSquashed); got != 80*4 {
		t.Fatalf("clipped squashed bit-cycles %d, want %d", got, 80*4)
	}
	if got := o.ACEBitCycles(avf.IQ); got != 0 {
		t.Fatalf("squashed uop classified ACE: %d", got)
	}
}

// TestLiveGaugesShareLastClosedWindow: a published observer's component
// gauges read the all-thread shares of the last closed gauge window, and
// the windows gauge counts the windows begun.
func TestLiveGaugesShareLastClosedWindow(t *testing.T) {
	o := testObserver(10)
	reg := obs.NewRegistry()
	o.Publish(reg)
	for cyc := uint64(0); cyc < 25; cyc++ {
		comps := []Component{CompBase, CompIdle}
		if cyc >= 10 { // window 1: thread 0 stalls on L2 for 4 cycles
			if cyc < 14 {
				comps[0] = CompL2Miss
			}
		}
		o.Tick(cyc, comps)
	}
	if got := reg.Gauge("cpistack.windows", "").Value(); got != 3 {
		t.Errorf("cpistack.windows = %v, want 3", got)
	}
	for c, want := range map[Component]float64{CompBase: 6.0 / 20, CompL2Miss: 4.0 / 20, CompIdle: 10.0 / 20} {
		if got := reg.Gauge("cpistack."+c.String(), "").Value(); got != want {
			t.Errorf("cpistack.%s = %v, want %v (window 1's share)", c, got, want)
		}
	}
}
