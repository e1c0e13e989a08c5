package avf

import "testing"

// recSink records every interval and rebase it observes.
type recSink struct {
	intervals int
	bitCycles uint64
	rebases   []uint64
}

func (r *recSink) Interval(s Struct, tid int, bits, start, end uint64, ace bool) {
	r.intervals++
	r.bitCycles += bits * (end - start)
}

func (r *recSink) Rebase(cycle uint64) { r.rebases = append(r.rebases, cycle) }

// rebaseBlindSink implements only Sink, not RebaseObserver.
type rebaseBlindSink struct{ intervals int }

func (p *rebaseBlindSink) Interval(Struct, int, uint64, uint64, uint64, bool) { p.intervals++ }

// TestAddSinkTees pins the fan-out contract fault injection and the
// CPI-stack observer rely on: a nil sink attaches nothing, a later sink
// joins the earlier ones and every sink receives every interval and
// rebase, and a sink without RebaseObserver is skipped rather than
// crashed into.
func TestAddSinkTees(t *testing.T) {
	var bits [NumStructs]uint64
	bits[IQ] = 100
	trk := NewTracker(1, bits)

	trk.AddSink(nil)
	if trk.HasSink() {
		t.Fatal("AddSink(nil) attached a sink")
	}
	first := &recSink{}
	trk.AddSink(first)
	trk.AddInterval(IQ, 0, 10, 0, 5, true)
	if first.intervals != 1 || first.bitCycles != 50 {
		t.Fatalf("single sink saw %d intervals / %d bit-cycles", first.intervals, first.bitCycles)
	}

	second := &recSink{}
	trk.AddSink(second)
	trk.AddInterval(IQ, 0, 10, 5, 10, false)
	if first.intervals != 2 || second.intervals != 1 {
		t.Fatalf("fan-out delivery: first saw %d, second saw %d", first.intervals, second.intervals)
	}
	if second.bitCycles != 50 {
		t.Fatalf("second sink bit-cycles %d, want 50", second.bitCycles)
	}

	// Rebase reaches both sinks, and the tracker clips later
	// intervals identically for both.
	trk.Rebase(20)
	for _, s := range []*recSink{first, second} {
		if len(s.rebases) != 1 || s.rebases[0] != 20 {
			t.Fatalf("rebase notification missing: %v", s.rebases)
		}
	}
	trk.AddInterval(IQ, 0, 10, 15, 25, true) // clipped to [20, 25)
	if first.bitCycles != 100+50 || second.bitCycles != 50+50 {
		t.Fatalf("clipped interval delivery: %d / %d", first.bitCycles, second.bitCycles)
	}

	// A third, rebase-blind sink joins; rebasing must not panic and the
	// observers still hear it.
	blind := &rebaseBlindSink{}
	trk.AddSink(blind)
	trk.Rebase(30)
	if len(first.rebases) != 2 || len(second.rebases) != 2 {
		t.Fatalf("third sink cost a rebase: %v / %v", first.rebases, second.rebases)
	}
	trk.AddInterval(IQ, 0, 1, 30, 31, true)
	if blind.intervals != 1 || first.intervals != 4 || second.intervals != 3 {
		t.Fatalf("three-sink delivery: %d / %d / %d", first.intervals, second.intervals, blind.intervals)
	}
}
