package mem

import (
	"testing"

	"smtavf/internal/avf"
)

func smallTLB(trk *avf.Tracker) *TLB {
	cfg := TLBConfig{Name: "test", Entries: 16, Ways: 4, PageSize: 4096, MissPenalty: 200}
	return NewTLB(cfg, trk, avf.DTLB)
}

func TestTLBMissThenHit(t *testing.T) {
	tl := smallTLB(nil)
	pen, miss := tl.Access(0, 0x1000, 0)
	if !miss || pen != 200 {
		t.Fatalf("cold access: pen=%d miss=%v", pen, miss)
	}
	pen, miss = tl.Access(300, 0x1008, 0)
	if miss || pen != 0 {
		t.Fatalf("same-page access: pen=%d miss=%v", pen, miss)
	}
}

func TestTLBThreadsDistinct(t *testing.T) {
	// The same virtual page in two threads is two translations.
	tl := smallTLB(nil)
	tl.Access(0, 0x1000, 0)
	_, miss := tl.Access(10, 0x1000, 1)
	if !miss {
		t.Fatal("thread 1 hit thread 0's translation")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tl := smallTLB(nil)
	// 4 sets × 4 ways; pages 4 apart share a set.
	for i := uint64(0); i < 5; i++ {
		tl.Access(i*10, (i*4)<<12, 0)
	}
	_, miss := tl.Access(100, 0, 0)
	if !miss {
		t.Fatal("LRU translation survived five same-set fills")
	}
}

func TestTLBAVFFillToLastAccess(t *testing.T) {
	trk := testTracker()
	tl := smallTLB(trk)
	tl.Access(0, 0x1000, 0)   // fill completes at 200
	tl.Access(700, 0x1000, 0) // last access
	tl.CloseAccounting(1000)
	eb := uint64(tl.cfg.EntryBits())
	if got := trk.ACEBitCycles(avf.DTLB); got != 500*eb {
		t.Fatalf("TLB ACE bit-cycles = %d, want %d", got, 500*eb)
	}
}

func TestTLBMissRate(t *testing.T) {
	tl := smallTLB(nil)
	tl.Access(0, 0x1000, 0)
	tl.Access(10, 0x1000, 0)
	if tl.Accesses != 2 || tl.Misses != 1 {
		t.Fatalf("accesses=%d misses=%d, want 2 and 1", tl.Accesses, tl.Misses)
	}
}

func TestTLBEntryBits(t *testing.T) {
	cfg := TLBConfig{Entries: 256, Ways: 4, PageSize: 4096, MissPenalty: 200}
	// vtag = 48-12-6 = 30, pfn = 36, +3 state = 69.
	if got := cfg.EntryBits(); got != 69 {
		t.Fatalf("entry bits = %d, want 69", got)
	}
}

func TestTLBNonPowerOfTwoSetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTLB(TLBConfig{Name: "bad", Entries: 12, Ways: 4, PageSize: 4096}, nil, 0)
}
