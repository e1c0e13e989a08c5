package pipeline

import (
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/isa"
)

// intervalLog captures the positioned interval stream so tests can assert
// the attached-sink path's intervals and their order alongside its totals.
type intervalLog struct {
	got []Residency
}

func (l *intervalLog) Interval(s avf.Struct, tid int, bits, start, end uint64, ace bool) {
	l.got = append(l.got, Residency{s, bits, start, end})
}

func testTrackerPair() (*avf.Tracker, *avf.Tracker) {
	var bits [avf.NumStructs]uint64
	for s := 0; s < avf.NumStructs; s++ {
		bits[s] = 1 << 16
	}
	return avf.NewTracker(2, bits), avf.NewTracker(2, bits)
}

// classifyBoth runs the same slot through the interval path on ti and the
// batched path on tb, then checks every accumulator agrees bit-for-bit.
func classifyBoth(t *testing.T, p *Pool, u UID, squashed bool, ti, tb *avf.Tracker) {
	t.Helper()
	bits := DefaultBits()
	p.Classify(ti, bits, u, squashed)
	p.ClassifyBatch(tb, bits, u, squashed)
	for _, s := range avf.PipelineStructs() {
		for tid := 0; tid < 2; tid++ {
			if got, want := tb.ThreadACEBitCycles(s, tid), ti.ThreadACEBitCycles(s, tid); got != want {
				t.Errorf("%s tid %d: batched ACE %d, interval %d", s, tid, got, want)
			}
		}
		if got, want := tb.OccupiedBitCycles(s), ti.OccupiedBitCycles(s); got != want {
			t.Errorf("%s: batched occupancy %d, interval %d", s, got, want)
		}
	}
}

// TestClassifyBatchZeroLengthResidency: a uop squashed in the front end
// never entered any structure; every residency interval is zero-length and
// both accounting paths must agree on exactly zero.
func TestClassifyBatchZeroLengthResidency(t *testing.T) {
	p := NewPool(4)
	in := isa.Instruction{Seq: 1, PC: 0x100, Class: isa.IntALU}
	u := p.Alloc()
	p.Reset(u, &in, 0, 1, 10, false, 12)
	ti, tb := testTrackerPair()
	classifyBoth(t, p, u, true, ti, tb)
	for _, s := range avf.PipelineStructs() {
		if got := tb.OccupiedBitCycles(s); got != 0 {
			t.Errorf("%s: zero-length residency accumulated %d bit-cycles", s, got)
		}
	}
}

// TestClassifyBatchSquashBeforeIssue: a dispatched-but-never-issued uop has
// IQ and ROB residency but no FU interval (IssuedAt and FUCycles both
// zero); the batch must not conjure an FU span from the zero record.
func TestClassifyBatchSquashBeforeIssue(t *testing.T) {
	p := NewPool(4)
	in := isa.Instruction{Seq: 2, PC: 0x104, Class: isa.IntALU, Dest: 3}
	u := p.Alloc()
	p.Reset(u, &in, 1, 2, 20, false, 22)
	r := &p.Res[u]
	r.EnterIQ, r.IQCycles = 22, 6
	r.EnterROB, r.ROBCycles = 22, 6
	ti, tb := testTrackerPair()
	classifyBoth(t, p, u, true, ti, tb)
	if got := tb.OccupiedBitCycles(avf.FU); got != 0 {
		t.Errorf("unissued uop accumulated %d FU bit-cycles", got)
	}
	if got, want := tb.OccupiedBitCycles(avf.IQ), 6*DefaultBits().IQEntry; got != want {
		t.Errorf("IQ occupancy %d, want %d", got, want)
	}
	if got := tb.ThreadACEBitCycles(avf.IQ, 1); got != 0 {
		t.Errorf("squashed uop accumulated %d ACE bit-cycles", got)
	}
}

// TestClassifyBatchMatchesIntervalPath covers a committed memory uop with
// every residency populated: totals agree bit-for-bit, and the interval
// path emits exactly the slot's Residencies, in their order.
func TestClassifyBatchMatchesIntervalPath(t *testing.T) {
	p := NewPool(4)
	in := isa.Instruction{Seq: 3, PC: 0x108, Class: isa.Load, Dest: 4, Addr: 0x4000, Size: 8}
	u := p.Alloc()
	p.Reset(u, &in, 0, 3, 30, false, 32)
	r := &p.Res[u]
	r.EnterIQ, r.IQCycles = 32, 4
	r.EnterROB, r.ROBCycles = 32, 12
	r.EnterLSQ, r.LSQTagCycles = 32, 12
	r.DataAt, r.LSQDataCycles = 39, 5
	r.IssuedAt, r.FUCycles = 36, 3
	ti, tb := testTrackerPair()
	log := &intervalLog{}
	ti.AddSink(log)
	classifyBoth(t, p, u, false, ti, tb)
	want := p.Residencies(u, DefaultBits())
	if len(log.got) != len(want) {
		t.Fatalf("sink saw %d intervals, want %d", len(log.got), len(want))
	}
	for i, w := range want {
		if log.got[i] != w {
			t.Errorf("interval %d = %+v, Residencies gives %+v", i, log.got[i], w)
		}
	}
	if got := tb.ThreadACEBitCycles(avf.IQ, 0); got != 4*DefaultBits().IQEntry {
		t.Errorf("committed IQ ACE bit-cycles %d, want %d", got, 4*DefaultBits().IQEntry)
	}
}
