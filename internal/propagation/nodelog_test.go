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
