package mem

import (
	"fmt"
	"math/bits"

	"smtavf/internal/avf"
)

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name        string
	Entries     int
	Ways        int
	PageSize    int // bytes
	MissPenalty int // cycles added on a miss (paper: 200)
}

// Validate rejects a geometry NewTLB cannot index: an entry count, way
// count or page size below 1, or a set count that is not a positive power
// of two.
func (c TLBConfig) Validate() error {
	if c.Entries < 1 || c.Ways < 1 || c.PageSize < 1 {
		return fmt.Errorf("mem: entries, ways and page size must be >= 1, got %d, %d and %d", c.Entries, c.Ways, c.PageSize)
	}
	return validSets(c.Entries / c.Ways)
}

// EntryBits returns the bit width of one TLB entry: virtual tag + physical
// frame number + valid/permission state.
func (c TLBConfig) EntryBits() int {
	pageBits := bits.Len(uint(c.PageSize) - 1)
	vtag := physAddrBits - pageBits - bits.Len(uint(c.Entries/c.Ways)-1)
	pfn := physAddrBits - pageBits
	return vtag + pfn + 3
}

type tlbEntry struct {
	tag        uint64
	valid      bool
	owner      int
	fill       uint64
	lastAccess uint64
}

// TLB is a set-associative, LRU translation buffer with fill→last-access
// AVF accounting on its entries.
type TLB struct {
	cfg      TLBConfig
	sets     int
	pageBits uint
	entries  []tlbEntry
	order    []uint8

	trk *avf.Tracker
	st  avf.Struct

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB; if trk is non-nil its entries are AVF instrumented
// under structure st.
func NewTLB(cfg TLBConfig, trk *avf.Tracker, st avf.Struct) *TLB {
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("mem: TLB set count must be a power of two: " + cfg.Name)
	}
	t := &TLB{
		cfg:      cfg,
		sets:     sets,
		pageBits: uint(bits.Len(uint(cfg.PageSize) - 1)),
		entries:  make([]tlbEntry, cfg.Entries),
		order:    make([]uint8, cfg.Entries),
		trk:      trk,
		st:       st,
	}
	for s := 0; s < sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			t.order[s*cfg.Ways+w] = uint8(w)
		}
	}
	return t
}

// ArrayBits returns the total entry-array capacity in bits.
func (t *TLB) ArrayBits() uint64 {
	return uint64(t.cfg.Entries) * uint64(t.cfg.EntryBits())
}

// Access translates addr for thread tid at cycle now, returning the extra
// latency (0 on a hit, MissPenalty on a miss) and whether it missed.
// Threads have disjoint address spaces, so tid participates in the tag.
func (t *TLB) Access(now uint64, addr uint64, tid int) (penalty int, miss bool) {
	t.Accesses++
	page := addr >> t.pageBits
	set := int(page) & (t.sets - 1)
	tag := (page>>uint(bits.Len(uint(t.sets)-1)))<<4 | uint64(tid)
	base := set * t.cfg.Ways
	for w := 0; w < t.cfg.Ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.tag == tag {
			t.touch(base, w)
			if t.trk != nil && now > e.lastAccess {
				e.lastAccess = now
			}
			return 0, false
		}
	}
	t.Misses++
	victim := 0
	for w := 0; w < t.cfg.Ways; w++ {
		if t.order[base+w] == uint8(t.cfg.Ways-1) {
			victim = w
			break
		}
	}
	e := &t.entries[base+victim]
	t.close(e, now)
	fillAt := now + uint64(t.cfg.MissPenalty)
	*e = tlbEntry{tag: tag, valid: true, owner: tid, fill: fillAt, lastAccess: fillAt}
	t.touch(base, victim)
	return t.cfg.MissPenalty, true
}

func (t *TLB) touch(base, w int) {
	old := t.order[base+w]
	for i := 0; i < t.cfg.Ways; i++ {
		if t.order[base+i] < old {
			t.order[base+i]++
		}
	}
	t.order[base+w] = 0
}

// close finalizes an entry's AVF interval: ACE from fill to last access,
// un-ACE afterwards.
func (t *TLB) close(e *tlbEntry, now uint64) {
	if !e.valid || t.trk == nil {
		return
	}
	eb := uint64(t.cfg.EntryBits())
	t.trk.AddInterval(t.st, e.owner, eb, e.fill, e.lastAccess, true)
	t.trk.AddInterval(t.st, e.owner, eb, e.lastAccess, now, false)
	e.valid = false
}

// CloseAccounting finalizes entries still resident at the end of a run.
func (t *TLB) CloseAccounting(now uint64) {
	if t.trk == nil {
		return
	}
	for i := range t.entries {
		t.close(&t.entries[i], now)
	}
}

// MissRate returns misses/accesses.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
