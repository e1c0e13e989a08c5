package core

import (
	"smtavf/internal/branch"
	"smtavf/internal/pipeline"
	"smtavf/internal/trace"
)

// threadSpacing separates the address spaces of the contexts. The large
// component keeps the spaces disjoint; the page-granular stagger breaks the
// set-index congruence that identical virtual layouts would otherwise have
// in the shared caches and TLBs (real systems get this de-aliasing from
// physical page placement).
const (
	threadSpacing = 1 << 40
	threadStagger = 977 * 4096
)

// threadOffset is the address-space offset of thread tid.
func threadOffset(tid int) uint64 {
	return uint64(tid)*threadSpacing + uint64(tid)*threadStagger
}

// rr reduces a round-robin position j in [0, 2n) to a thread index in
// [0, n) with a compare and subtract, where % by the thread count would
// divide.
func rr(j, n int) int {
	if j >= n {
		j -= n
	}
	return j
}

// thread is one hardware context. The fetch-policy inputs come first:
// the fetch stage reads them for every thread every cycle.
type thread struct {
	// Fetch-policy inputs.
	outL1, outL2   int // outstanding (unresolved) L1 / L2 data misses
	predL1, predL2 int // in-flight loads predicted to miss
	recentACE      float64
	vaLastACE      uint64

	id     int
	stream *trace.Stream
	wrong  *trace.WrongPath
	offset uint64 // address-space offset (id * threadSpacing)

	// Private microarchitecture state.
	rob *pipeline.ROB
	lsq *pipeline.LSQ
	ras *branch.RAS

	// Fetch state. fetchQ holds the uops fetched and still in the
	// front-end pipe, in fetch order.
	fetchQ        pipeline.Ring
	stallUntil    uint64 // IL1/ITLB miss or redirect penalty
	stallICache   bool   // current stallUntil is an IL1/ITLB miss (CPI stack)
	lastFetchLine uint64 // last IL1 line touched (access per line)

	// free recycles this thread's pool slots: fetch acquires, the
	// classification sites release (docs/performance.md has the ownership
	// rule). The free list is per-thread so a thread's slots are reused in
	// a deterministic order regardless of the other threads' progress.
	free []pipeline.UID

	// Wrong-path mode: set between fetching a mispredicted CTI and its
	// resolution; while set, fetch synthesizes wrong-path uops.
	wrongPath   bool
	wrongPathPC uint64
	wpBranch    pipeline.UID // NoUID when no mispredicted branch is pending

	// Progress.
	committed  uint64
	nextCommit uint64 // trace sequence number the next commit must carry
	quota      uint64 // per-thread instruction limit (0 = unlimited)
	finished   bool

	// Statistics.
	fetched        uint64
	wrongPathFetch uint64
	mispredicts    uint64
	branches       uint64
	flushes        uint64
	squashedUops   uint64
	loadForwards   uint64
	dl1Loads       uint64
	dl1LoadMisses  uint64
	l2LoadMisses   uint64
	renameStalls   uint64
	iqFullStalls   uint64
	robFullStalls  uint64
	lsqFullStalls  uint64
}

// acquireUop returns a pool slot id, recycling the thread's free list when
// possible. The caller owns it until it hands it back with releaseUop at a
// classification site; the slot's fields are stale until Pool.Reset.
func (t *thread) acquireUop(pool *pipeline.Pool) pipeline.UID {
	if n := len(t.free); n > 0 {
		u := t.free[n-1]
		t.free = t.free[:n-1]
		return u
	}
	return pool.Alloc()
}

// releaseUop returns slot u to the free list. u must have left every
// pipeline structure and waiter list, and the flight recorder must already
// have copied it; the next acquireUop may hand the same slot out again.
func (t *thread) releaseUop(u pipeline.UID) {
	t.free = append(t.free, u)
}

// icount is the ICOUNT fetch-policy metric: instructions in the front end
// and the issue queue.
func (t *thread) icount(iq *pipeline.IQ) int {
	return t.fetchQ.Len() + iq.ThreadCount(t.id)
}

// done reports whether the thread has reached its quota.
func (t *thread) done() bool { return t.finished }
