// Package mem implements the simulated memory hierarchy: set-associative
// write-back caches with miss-status merging, TLBs, and the AVF
// instrumentation for the DL1 data and tag arrays and the TLBs (the
// address-based-structure method of Biswas et al., ISCA 2005).
package mem

import (
	"fmt"
	"math/bits"

	"smtavf/internal/avf"
)

// wordSize is the AVF tracking granularity within a cache line, in bytes.
const wordSize = 8

// physAddrBits sizes the tag field of cache lines and TLB entries.
const physAddrBits = 48

// Config describes one cache level.
type Config struct {
	Name     string
	Size     int // total bytes
	Ways     int
	LineSize int // bytes
	Latency  int // access latency in cycles
	Ports    int // accesses per cycle (0 = unlimited)
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Size / (c.Ways * c.LineSize) }

// Validate rejects a geometry New cannot index: a size, way count or line
// size below 1, or a set count that is not a positive power of two.
func (c Config) Validate() error {
	if c.Size < 1 || c.Ways < 1 || c.LineSize < 1 {
		return fmt.Errorf("mem: size, ways and line size must be >= 1, got %d, %d and %d", c.Size, c.Ways, c.LineSize)
	}
	return validSets(c.Sets())
}

// validSets checks the set count the index masks assume.
func validSets(sets int) error {
	if sets < 1 || sets&(sets-1) != 0 {
		return fmt.Errorf("mem: set count %d is not a positive power of two", sets)
	}
	return nil
}

// TagBits returns the per-line tag-array bit count (address tag plus
// valid and dirty state).
func (c Config) TagBits() int {
	return physAddrBits - bits.Len(uint(c.Sets()*c.LineSize)-1) + 2
}

// MissKind classifies how deep an access had to go.
type MissKind int

// Miss classifications returned by Cache.Access.
const (
	Hit    MissKind = iota // hit in this cache
	L1Miss                 // missed here, hit in the next level
	L2Miss                 // missed here and in the next level (memory access)
)

// Result describes the outcome of a cache access.
type Result struct {
	Ready uint64   // cycle at which the data is available
	Kind  MissKind // how deep the access went
}

// line is one cache line's timing state. The LRU rank lives here, beside
// the tag the lookup already reads; an instrumented cache keeps its AVF
// state in separate arrays indexed like lines, so the levels without
// instrumentation (the L2 and the IL1) carry none of it.
type line struct {
	tag     uint64
	readyAt uint64 // fill completion time (hit-under-fill returns this)
	owner   int32  // last accessing thread (AVF attribution)
	valid   bool
	dirty   bool
	rank    uint8 // LRU rank within the set: 0 = most recent, Ways-1 = victim
}

// lineAVF is the per-line AVF state of an instrumented cache.
type lineAVF struct {
	fill       uint64 // cycle the current fill completed
	lastAccess uint64
	wordDirty  uint64 // bitmask of dirty words
}

// Cache is one level of a write-back, write-allocate, true-LRU cache
// hierarchy with immediate-install miss handling: on a miss the victim is
// replaced at once and the new line carries a future readyAt, so later
// accesses to an in-flight line merge with the outstanding miss (the MSHR
// behaviour that matters for timing).
type Cache struct {
	cfg      Config
	sets     int
	setMask  uint64
	offBits  uint
	lines    []line // sets*ways
	next     *Cache // lower level; nil means memory backs this cache
	memLat   int    // memory latency when next == nil
	wordsPer int

	// AVF instrumentation (nil tracker disables it): per-line state, and
	// each word's last read/write/fill cycle at wordEvent[i*wordsPer+w]
	// for line i.
	trk        *avf.Tracker
	avf        []lineAVF
	wordEvent  []uint64
	dataStruct avf.Struct
	tagStruct  avf.Struct
	tagBits    uint64

	// port arbitration
	portCycle uint64
	portUsed  int

	// statistics
	Accesses  uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// New builds a cache level. next is the lower level (nil = memory with
// memLatency cycles). If trk is non-nil, the data and tag arrays are AVF
// instrumented under dataStruct/tagStruct.
func New(cfg Config, next *Cache, memLatency int, trk *avf.Tracker, dataStruct, tagStruct avf.Struct) *Cache {
	sets := cfg.Sets()
	if sets&(sets-1) != 0 {
		panic("mem: cache set count must be a power of two: " + cfg.Name)
	}
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		setMask:    uint64(sets - 1),
		offBits:    uint(bits.Len(uint(cfg.LineSize) - 1)),
		lines:      make([]line, sets*cfg.Ways),
		next:       next,
		memLat:     memLatency,
		wordsPer:   cfg.LineSize / wordSize,
		trk:        trk,
		dataStruct: dataStruct,
		tagStruct:  tagStruct,
		tagBits:    uint64(cfg.TagBits()),
	}
	for base := 0; base < len(c.lines); base += cfg.Ways {
		for w := range c.lines[base : base+cfg.Ways] {
			c.lines[base+w].rank = uint8(w)
		}
	}
	if trk != nil {
		c.avf = make([]lineAVF, len(c.lines))
		c.wordEvent = make([]uint64, len(c.lines)*c.wordsPer)
	}
	return c
}

func (c *Cache) setOf(addr uint64) int { return int((addr >> c.offBits) & c.setMask) }
func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> (c.offBits + uint(bits.Len(uint(c.sets)-1)))
}

// TryPort consumes one access port for the given cycle, reporting whether
// one was available. Callers that fail must retry on a later cycle.
func (c *Cache) TryPort(now uint64) bool {
	if c.cfg.Ports <= 0 {
		return true
	}
	if c.portCycle != now {
		c.portCycle = now
		c.portUsed = 0
	}
	if c.portUsed >= c.cfg.Ports {
		return false
	}
	c.portUsed++
	return true
}

// Access performs a read or write of size bytes at addr on behalf of thread
// tid, at cycle now. It returns when the data is ready and how deep the
// access went. Port arbitration is the caller's business (TryPort).
func (c *Cache) Access(now uint64, addr uint64, size int, write bool, tid int) Result {
	c.Accesses++
	tag := c.tagOf(addr)
	base := c.setOf(addr) * c.cfg.Ways
	set := c.lines[base : base+c.cfg.Ways]
	for w := range set {
		ln := &set[w]
		if ln.valid && ln.tag == tag {
			touch(set, w)
			ready := now
			if ln.readyAt > ready {
				ready = ln.readyAt // hit under an in-flight fill
			}
			ready += uint64(c.cfg.Latency)
			c.recordAccess(base+w, ready, addr, size, write, tid)
			return Result{Ready: ready, Kind: Hit}
		}
	}

	// Miss: fetch the line from below, evict the LRU victim, install.
	c.Misses++
	kind := L1Miss
	var fillReady uint64
	lineAddr := addr &^ (uint64(c.cfg.LineSize) - 1)
	if c.next != nil {
		r := c.next.Access(now+uint64(c.cfg.Latency), lineAddr, c.cfg.LineSize, false, tid)
		fillReady = r.Ready
		if r.Kind != Hit {
			kind = L2Miss
		}
	} else {
		fillReady = now + uint64(c.cfg.Latency) + uint64(c.memLat)
	}

	victim := 0
	for w := range set {
		if set[w].rank == uint8(len(set)-1) {
			victim = w
			break
		}
	}
	i := base + victim
	c.evict(i, now)
	ln := &set[victim]
	ln.tag = tag
	ln.valid = true
	ln.dirty = false
	ln.readyAt = fillReady
	ln.owner = int32(tid)
	if c.trk != nil {
		c.avf[i] = lineAVF{fill: fillReady, lastAccess: fillReady}
		words := c.words(i)
		for w := range words {
			words[w] = fillReady
		}
	}
	touch(set, victim)
	c.recordAccess(i, fillReady, addr, size, write, tid)
	return Result{Ready: fillReady, Kind: kind}
}

// Contains reports whether addr currently hits without side effects.
func (c *Cache) Contains(addr uint64) bool {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// touch makes way w the most recently used of set.
func touch(set []line, w int) {
	old := set[w].rank
	for i := range set {
		if set[i].rank < old {
			set[i].rank++
		}
	}
	set[w].rank = 0
}

// words returns line i's per-word event cycles.
func (c *Cache) words(i int) []uint64 { return c.wordEvent[i*c.wordsPer : (i+1)*c.wordsPer] }

// recordAccess applies the AVF word rules for a read or write of line i at
// cycle at.
func (c *Cache) recordAccess(i int, at uint64, addr uint64, size int, write bool, tid int) {
	ln := &c.lines[i]
	if write {
		ln.dirty = true
	}
	ln.owner = int32(tid)
	if c.trk == nil {
		return
	}
	la := &c.avf[i]
	if at > la.lastAccess {
		la.lastAccess = at
	}
	words := c.words(i)
	off := int(addr) & (c.cfg.LineSize - 1)
	w0 := off / wordSize
	w1 := (off + size - 1) / wordSize
	for w := w0; w <= w1 && w < len(words); w++ {
		last := words[w]
		if at > last {
			// A read ends an interval the data had to survive: ACE.
			// A write ends an interval about to be overwritten: un-ACE.
			c.trk.AddInterval(c.dataStruct, tid, wordSize*8, last, at, !write)
			words[w] = at
		}
		if write {
			la.wordDirty |= 1 << uint(w)
		}
	}
}

// evict closes the AVF accounting of line i, the victim, at cycle now.
func (c *Cache) evict(i int, now uint64) {
	ln := &c.lines[i]
	if !ln.valid {
		return
	}
	c.Evictions++
	if ln.dirty {
		c.Writeback++
	}
	ln.valid = false
	if c.trk == nil {
		return
	}
	// Data words: intervals ending in eviction are un-ACE for clean words
	// ("cache lines that will not be accessed before eviction"); dirty
	// words must survive until the writeback reads them — ACE.
	la := &c.avf[i]
	owner := int(ln.owner)
	for w, last := range c.words(i) {
		dirty := la.wordDirty&(1<<uint(w)) != 0
		c.trk.AddInterval(c.dataStruct, owner, wordSize*8, last, now, dirty)
	}
	// Tag: ACE from fill to last access (a flipped tag falsifies every
	// lookup in that window); ACE until eviction too when the line is
	// dirty (the writeback address depends on the tag).
	c.trk.AddInterval(c.tagStruct, owner, c.tagBits, la.fill, la.lastAccess, true)
	c.trk.AddInterval(c.tagStruct, owner, c.tagBits, la.lastAccess, now, ln.dirty)
}

// CloseAccounting finalizes AVF intervals for lines still resident at the
// end of a run, treating the end of simulation as an eviction.
func (c *Cache) CloseAccounting(now uint64) {
	if c.trk == nil {
		return
	}
	for i := range c.lines {
		c.evict(i, now)
	}
}
