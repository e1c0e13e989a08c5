package propagation

import (
	"runtime"
	"testing"
	"unsafe"

	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

// TestRecordAllocsBounded drives Record for 100,000 uops and bounds what
// the tracer allocates: the log's nodes plus at most one chunk, and
// nothing more when a Rebase lets it record as much again. Allocated bytes
// do not depend on the host, so the bound holds on any machine; a log kept
// in one growing slice copies itself at every regrowth and allocates
// several times its size.
func TestRecordAllocsBounded(t *testing.T) {
	const uops = 100_000
	pl := pipeline.NewPool(1)
	id := pl.Alloc()
	pl.Reset(id, &isa.Instruction{Class: isa.Load, PC: 0x400, Addr: 0x1000}, 0, 1, 0, false, 0)
	tr := New(Options{})
	record := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range uint64(uops) {
			tr.Record(pl, id, i, false)
		}
		runtime.ReadMemStats(&after)
		if tr.Len() != uops || tr.Dropped() != 0 {
			t.Fatalf("recorded %d nodes and dropped %d, want %d and 0", tr.Len(), tr.Dropped(), uops)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	nodeSize, chunkSize := uint64(unsafe.Sizeof(node{})), uint64(unsafe.Sizeof(chunk{}))
	limit := uops*nodeSize + chunkSize
	got := record()
	t.Logf("%d uops allocated %d B (%d B a node, %d B a chunk)", uops, got, nodeSize, chunkSize)
	if got > limit {
		t.Fatalf("recording %d uops allocated %d B, want at most %d (the nodes plus one chunk)", uops, got, limit)
	}
	tr.Rebase(0)
	if got := record(); got >= chunkSize {
		t.Fatalf("recording again after Rebase allocated %d B, want no new chunk (%d B)", got, chunkSize)
	}
}

// TestNodeSize pins the packed node layout.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 88 {
		t.Fatalf("a node is %d B, want at most 88", got)
	}
}

// TestRecordStopsAtUnfitValue records a uop whose cycle, register id or
// thread id the packed node cannot hold between two that fit. Recording
// must stop there, as at the node cap: the uop and every later one are
// counted in Dropped, nothing is wrapped into the log, and a Rebase starts
// recording again. Values at the edges of each range still fit.
func TestRecordStopsAtUnfitValue(t *testing.T) {
	const rebase = 1 << 33
	pl := pipeline.NewPool(1)
	id := pl.Alloc()
	// slot sets up an ALU uop of thread tid writing register dest, issued
	// at cycle issue (never, if 0) and written back the cycle after.
	slot := func(tid, dest int32, issue uint64) {
		pl.Reset(id, &isa.Instruction{Class: isa.IntALU, PC: 0x400}, tid, 7, rebase, false, 0)
		pl.Meta[id].PhysDest = dest
		if issue > 0 {
			pl.Set(id, pipeline.FIssued)
			pl.Res[id].IssuedAt = issue
			pl.Meta[id].ReadyAt = issue + 1
		}
	}
	for _, c := range []struct {
		name         string
		tid, dest    int32
		issue, retir uint64
		fits         bool
	}{
		{"retire at the horizon", 0, 1, rebase, rebase + 1<<31 - 1, true},
		{"retire past the horizon", 0, 1, rebase, rebase + 1<<31, false},
		{"issue at the horizon", 0, 1, rebase - 1<<31, rebase + 5, true},
		{"issue before the horizon", 0, 1, rebase - 1<<31 - 1, rebase + 5, false},
		{"never issued, rebase past 2^31", 0, 1, 0, rebase + 5, true},
		{"largest register id", 0, 1<<15 - 1, rebase, rebase + 5, true},
		{"register id past int16", 0, 1 << 15, rebase, rebase + 5, false},
		{"largest thread id", 255, 1, rebase, rebase + 5, true},
		{"thread id past 255", 256, 1, rebase, rebase + 5, false},
	} {
		tr := New(Options{})
		tr.Rebase(rebase)
		slot(0, 1, rebase+1)
		tr.Record(pl, id, rebase+2, false)
		slot(c.tid, c.dest, c.issue)
		tr.Record(pl, id, c.retir, false)
		slot(0, 1, rebase+1)
		tr.Record(pl, id, rebase+3, false)
		wantLen, wantDropped := 3, uint64(0)
		if !c.fits {
			wantLen, wantDropped = 1, 2
		}
		if tr.Len() != wantLen || tr.Dropped() != wantDropped {
			t.Fatalf("%s: recorded %d nodes and dropped %d, want %d and %d",
				c.name, tr.Len(), tr.Dropped(), wantLen, wantDropped)
		}
		nodes := tr.Decoded()
		if n := nodes[0]; n.Retire != rebase+2 || n.IssueAt != rebase+1 {
			t.Fatalf("%s: first node decodes to issue %d, retire %d", c.name, n.IssueAt, n.Retire)
		}
		if c.fits {
			n := nodes[1]
			if n.TID != c.tid || n.PhysDest != c.dest || n.IssueAt != c.issue || n.Retire != c.retir {
				t.Fatalf("%s: node decodes to %+v", c.name, n)
			}
			continue
		}
		if got := tr.Analyze(nil).Dropped; got != wantDropped {
			t.Fatalf("%s: atlas reports %d dropped, want %d", c.name, got, wantDropped)
		}
		tr.Rebase(rebase)
		tr.Record(pl, id, rebase+3, false)
		if tr.Len() != 1 || tr.Dropped() != 0 {
			t.Fatalf("%s: after a Rebase recorded %d nodes and dropped %d, want 1 and 0", c.name, tr.Len(), tr.Dropped())
		}
	}
}
