package mem

import (
	"testing"

	"smtavf/internal/avf"
)

func smallCache(next *Cache, memLat int, trk *avf.Tracker) *Cache {
	cfg := Config{Name: "test", Size: 1 << 10, Ways: 2, LineSize: 64, Latency: 1, Ports: 2}
	return New(cfg, next, memLat, trk, avf.DL1Data, avf.DL1Tag)
}

func testTracker() *avf.Tracker {
	var bits [avf.NumStructs]uint64
	for i := range bits {
		bits[i] = 1 << 20
	}
	return avf.NewTracker(1, bits)
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := smallCache(nil, 100, nil)
	r := c.Access(10, 0x1000, 8, false, 0)
	if r.Kind == Hit {
		t.Fatal("cold access hit")
	}
	if r.Ready != 10+1+100 {
		t.Fatalf("miss ready = %d, want 111", r.Ready)
	}
	r2 := c.Access(200, 0x1000, 8, false, 0)
	if r2.Kind != Hit {
		t.Fatal("second access missed")
	}
	if r2.Ready != 201 {
		t.Fatalf("hit ready = %d, want 201", r2.Ready)
	}
}

func TestCacheHitUnderFill(t *testing.T) {
	c := smallCache(nil, 100, nil)
	c.Access(10, 0x1000, 8, false, 0) // ready at 111
	// A second access to the same line before the fill completes merges
	// with the outstanding miss (MSHR behaviour) and counts as a hit.
	r := c.Access(20, 0x1008, 8, false, 0)
	if r.Kind != Hit {
		t.Fatal("merged access classified as miss")
	}
	if r.Ready != 111+1 {
		t.Fatalf("merged ready = %d, want 112", r.Ready)
	}
}

func TestCacheSameSetEviction(t *testing.T) {
	c := smallCache(nil, 100, nil)
	// 1KB, 2-way, 64B lines → 8 sets; addresses 512B apart share a set.
	stride := uint64(8 * 64)
	c.Access(0, 0x0, 8, false, 0)
	c.Access(0, stride, 8, false, 0)
	c.Access(0, 2*stride, 8, false, 0) // evicts 0x0 (LRU)
	if c.Contains(0x0) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(stride) || !c.Contains(2*stride) {
		t.Fatal("younger lines evicted")
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
}

func TestCacheWritebackCounted(t *testing.T) {
	c := smallCache(nil, 100, nil)
	stride := uint64(8 * 64)
	c.Access(0, 0x0, 8, true, 0) // dirty
	c.Access(0, stride, 8, false, 0)
	c.Access(0, 2*stride, 8, false, 0) // evicts dirty 0x0
	if c.Writeback != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writeback)
	}
}

func TestTwoLevelLatency(t *testing.T) {
	l2 := New(Config{Name: "L2", Size: 1 << 16, Ways: 4, LineSize: 128, Latency: 12}, nil, 200, nil, 0, 0)
	l1 := New(Config{Name: "L1", Size: 1 << 10, Ways: 2, LineSize: 64, Latency: 1}, l2, 0, nil, 0, 0)
	// Cold: L1 miss + L2 miss: 1 + 12 + 200.
	r := l1.Access(0, 0x4000, 8, false, 0)
	if r.Kind != L2Miss {
		t.Fatalf("kind = %v, want L2Miss", r.Kind)
	}
	if r.Ready != 213 {
		t.Fatalf("ready = %d, want 213", r.Ready)
	}
	// Evict from L1, keep in L2 → L1 miss that hits L2.
	stride := uint64(8 * 64)
	l1.Access(300, 0x4000+stride, 8, false, 0)
	l1.Access(600, 0x4000+2*stride, 8, false, 0)
	if l1.Contains(0x4000) {
		t.Fatal("expected L1 eviction")
	}
	r = l1.Access(1000, 0x4000, 8, false, 0)
	if r.Kind != L1Miss {
		t.Fatalf("kind = %v, want L1Miss", r.Kind)
	}
	if r.Ready != 1000+1+12 {
		t.Fatalf("ready = %d, want 1013", r.Ready)
	}
}

func TestPorts(t *testing.T) {
	c := smallCache(nil, 100, nil)
	if !c.TryPort(5) || !c.TryPort(5) {
		t.Fatal("two ports must be available")
	}
	if c.TryPort(5) {
		t.Fatal("third access in one cycle granted")
	}
	if !c.TryPort(6) {
		t.Fatal("ports did not reset next cycle")
	}
	unported := New(Config{Name: "np", Size: 1 << 10, Ways: 2, LineSize: 64, Latency: 1}, nil, 10, nil, 0, 0)
	for i := 0; i < 10; i++ {
		if !unported.TryPort(1) {
			t.Fatal("port-less cache must always grant")
		}
	}
}

func TestDataAVFReadEndsACEInterval(t *testing.T) {
	trk := testTracker()
	c := smallCache(nil, 100, trk)
	c.Access(0, 0x1000, 8, false, 0) // fill completes at 101
	c.Access(1001, 0x1000, 8, false, 0)
	// The read delivers at 1001+latency = 1002; the word survived
	// 1002-101 = 901 cycles to be read: ACE.
	if got := trk.ACEBitCycles(avf.DL1Data); got != 901*64 {
		t.Fatalf("ACE bit-cycles = %d, want %d", got, 901*64)
	}
}

func TestDataAVFOverwriteIsUnACE(t *testing.T) {
	trk := testTracker()
	c := smallCache(nil, 100, trk)
	c.Access(0, 0x1000, 8, false, 0)   // fill at 101
	c.Access(1001, 0x1000, 8, true, 0) // overwrite: interval is un-ACE
	if got := trk.ACEBitCycles(avf.DL1Data); got != 0 {
		t.Fatalf("overwrite interval counted ACE: %d", got)
	}
}

func TestDataAVFCleanEvictionIsUnACE(t *testing.T) {
	trk := testTracker()
	c := smallCache(nil, 100, trk)
	stride := uint64(8 * 64)
	c.Access(0, 0x0, 8, false, 0)
	c.Access(200, stride, 8, false, 0)
	c.Access(400, 2*stride, 8, false, 0) // evicts clean 0x0
	if got := trk.ACEBitCycles(avf.DL1Data); got != 0 {
		t.Fatalf("clean eviction counted ACE: %d", got)
	}
}

func TestDataAVFDirtyEvictionIsACE(t *testing.T) {
	trk := testTracker()
	c := smallCache(nil, 100, trk)
	stride := uint64(8 * 64)
	c.Access(0, 0x0, 8, true, 0) // dirty word, written at fill time 101
	c.Access(200, stride, 8, false, 0)
	c.Access(400, 2*stride, 8, false, 0) // evicts dirty 0x0 at cycle 400
	// The dirty word must survive from its write (101) to the writeback
	// (400): 299 cycles ACE. Clean words of the line contribute nothing.
	if got := trk.ACEBitCycles(avf.DL1Data); got != 299*64 {
		t.Fatalf("dirty eviction ACE bit-cycles = %d, want %d", got, 299*64)
	}
}

func TestTagAVFFillToLastAccess(t *testing.T) {
	trk := testTracker()
	c := smallCache(nil, 100, trk)
	c.Access(0, 0x1000, 8, false, 0)    // fill at 101
	c.Access(1101, 0x1000, 8, false, 0) // last access, delivers at 1102
	c.CloseAccounting(2000)
	// Tag ACE from fill (101) to last access (1102): 1001 cycles.
	tagBits := uint64(c.cfg.TagBits())
	if got := trk.ACEBitCycles(avf.DL1Tag); got != 1001*tagBits {
		t.Fatalf("tag ACE bit-cycles = %d, want %d", got, 1001*tagBits)
	}
}

func TestTagAVFDirtyLineACEUntilEviction(t *testing.T) {
	trk := testTracker()
	c := smallCache(nil, 100, trk)
	c.Access(0, 0x1000, 8, true, 0) // fill+write at 101, dirty
	c.CloseAccounting(601)
	// Dirty line: the tag addresses the writeback, ACE until "eviction"
	// at close: 500 cycles (the fill-to-last-access interval is empty).
	tagBits := uint64(c.cfg.TagBits())
	if got := trk.ACEBitCycles(avf.DL1Tag); got != 500*tagBits {
		t.Fatalf("tag ACE bit-cycles = %d, want %d", got, 500*tagBits)
	}
}

func TestMissRateAccounting(t *testing.T) {
	c := smallCache(nil, 100, nil)
	c.Access(0, 0x1000, 8, false, 0)
	c.Access(10, 0x1000, 8, false, 0)
	c.Access(20, 0x1000, 8, false, 0)
	c.Access(30, 0x2000, 8, false, 0)
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestConfigDerived(t *testing.T) {
	cfg := Config{Size: 64 << 10, Ways: 4, LineSize: 64}
	if cfg.Sets() != 256 {
		t.Fatalf("sets = %d", cfg.Sets())
	}
	// 48-bit addresses, 14 bits of set+offset, +2 state bits.
	if cfg.TagBits() != 48-14+2 {
		t.Fatalf("tag bits = %d", cfg.TagBits())
	}
}

func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	New(Config{Name: "bad", Size: 3 << 10, Ways: 2, LineSize: 64, Latency: 1}, nil, 1, nil, 0, 0)
}

func TestThreadsShareAndEvictEachOther(t *testing.T) {
	c := smallCache(nil, 100, nil)
	stride := uint64(8 * 64)
	c.Access(0, 0x0, 8, false, 0)
	c.Access(0, stride, 8, false, 1)
	c.Access(0, 2*stride, 8, false, 2)
	if c.Contains(0x0) {
		t.Fatal("thread 0's line should have been evicted by contention")
	}
}
