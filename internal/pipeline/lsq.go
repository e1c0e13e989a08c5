package pipeline

import "smtavf/internal/isa"

// LSQ is one thread's load/store queue (paper Table 1: 48 entries per
// thread): memory uops in program order. Its tag array (addresses) and
// data array (store data and returned load data) are AVF tracked
// separately, matching the paper's LSQ_tag and LSQ_data series.
type LSQ struct {
	pool *Pool
	buf  []UID
	head int
	n    int

	// Disambiguation index (docs/performance.md): stores resident in the
	// queue in age order, and the subset not yet known executed. The wait
	// test is O(1) — the front of unexec, after lazily dropping executed
	// stores, is the oldest store whose address/data is still unknown —
	// and the forward scan walks only the stores older than the load
	// instead of every entry.
	stores Ring
	unexec Ring

	// sleepers holds loads parked by the core because ForwardCheck said
	// wait. Entries may be stale (squashed, recycled slots) — the core
	// validates flags before re-waking, so staleness only costs a spurious
	// recheck, never a wrong issue.
	sleepers []UID
}

// NewLSQ builds a load/store queue over pool with the given capacity.
func NewLSQ(pool *Pool, capacity int) *LSQ {
	return &LSQ{
		pool:   pool,
		buf:    make([]UID, capacity),
		stores: NewRing(capacity),
		unexec: NewRing(capacity),
	}
}

// Len returns the number of occupied entries.
func (q *LSQ) Len() int { return q.n }

// Capacity returns the entry count.
func (q *LSQ) Capacity() int { return len(q.buf) }

// Full reports whether no entries remain.
func (q *LSQ) Full() bool { return q.n == len(q.buf) }

// Push appends the memory uop u at the tail at cycle now.
func (q *LSQ) Push(u UID, now uint64) {
	if q.Full() {
		panic("pipeline: LSQ push when full")
	}
	p := q.pool
	p.Res[u].EnterLSQ = now
	idx := wrap(q.head+q.n, len(q.buf))
	p.Meta[u].LSQIdx = int32(idx)
	q.buf[idx] = u
	q.n++
	if p.Ins[u].Class == isa.Store {
		q.stores.PushBack(u)
		q.unexec.PushBack(u)
	}
}

// PopHead removes the oldest entry, which must be u, closing its tag and
// data residencies at cycle now.
func (q *LSQ) PopHead(u UID, now uint64) {
	if q.n == 0 || q.buf[q.head] != u {
		panic("pipeline: LSQ pop out of order")
	}
	q.closeEntry(u, now)
	q.head = wrap(q.head+1, len(q.buf))
	q.n--
	if q.pool.Ins[u].Class == isa.Store {
		q.stores.PopFront()
		// The oldest entry is the oldest store, so if it still sits on the
		// unexecuted index it can only be at the front.
		if q.unexec.Len() > 0 && q.unexec.Front() == u {
			q.unexec.PopFront()
		}
	}
}

// PopTail removes the youngest entry (squash rollback), closing residency.
func (q *LSQ) PopTail(now uint64) UID {
	if q.n == 0 {
		panic("pipeline: LSQ tail pop when empty")
	}
	u := q.buf[wrap(q.head+q.n-1, len(q.buf))]
	q.closeEntry(u, now)
	q.n--
	if q.pool.Ins[u].Class == isa.Store {
		q.stores.PopBack()
		if q.unexec.Len() > 0 && q.unexec.Back() == u {
			q.unexec.PopBack()
		}
	}
	return u
}

func (q *LSQ) closeEntry(u UID, now uint64) {
	p := q.pool
	p.Res[u].LSQTagCycles += now - p.Res[u].EnterLSQ
	if d := p.Res[u].DataAt; d > 0 && now > d {
		p.Res[u].LSQDataCycles += now - d
	}
}

// AddSleeper parks load u until a store of this thread executes.
func (q *LSQ) AddSleeper(u UID) { q.sleepers = append(q.sleepers, u) }

// Sleepers returns the parked loads; the caller wakes the valid ones and
// must follow with ClearSleepers.
func (q *LSQ) Sleepers() []UID { return q.sleepers }

// ClearSleepers empties the parked-load list.
func (q *LSQ) ClearSleepers() { q.sleepers = q.sleepers[:0] }

// Tail returns the youngest entry, or NoUID when empty.
func (q *LSQ) Tail() UID {
	if q.n == 0 {
		return NoUID
	}
	return q.buf[wrap(q.head+q.n-1, len(q.buf))]
}

// ForwardCheck inspects the stores older than the load ld. It returns:
//
//   - forward=true when an older store to the same address has its data
//     ready — the load is satisfied in the queue;
//   - wait=true when some older store's address or data is still unknown,
//     so the load cannot safely access the cache yet (conservative memory
//     disambiguation, which needs no misspeculation recovery).
func (q *LSQ) ForwardCheck(ld UID) (forward, wait bool) {
	p := q.pool
	// Drop executed stores from the front of the unexecuted index
	// (amortized O(1): each store is popped once). The surviving front is
	// the oldest store whose address/data is still unknown.
	for q.unexec.Len() > 0 && p.Flags[q.unexec.Front()]&FExecuted != 0 {
		q.unexec.PopFront()
	}
	gseq := p.GSeq[ld]
	if q.unexec.Len() > 0 && p.GSeq[q.unexec.Front()] < gseq {
		return false, true
	}
	// Every store older than ld has executed: scan them for an address
	// match. Any match forwards — the original full scan kept the
	// youngest, but the result is a plain bool either way.
	addr := p.Ins[ld].Addr
	for i := 0; i < q.stores.Len(); i++ {
		s := q.stores.At(i)
		if p.GSeq[s] >= gseq {
			break
		}
		if p.Ins[s].Addr == addr {
			return true, false
		}
	}
	return false, false
}
