package pipeline

// IQ is the shared issue queue (paper Table 1: 96 entries). Entries wait
// for their source operands; ready entries are selected oldest-first up to
// the issue width each cycle.
//
// Selection is event-driven (docs/performance.md): instead of scanning and
// sorting every entry each cycle, the queue maintains a ready set — the
// entries whose register operands are all available — in ascending GSeq
// order. The core marks an entry ready at dispatch when its operands are
// already available, or later through the register file's writeback wakeup
// (RegFile.WatchSources / RegFile.Write); both paths land in MarkReady.
// Pool.IQIdx tracks each entry's slot so Remove is O(1), and membership in
// the ready set is O(log n) maintenance instead of an O(n log n) rebuild.
// Both arrays hold pool ids, so the queue carries no GC-visible pointers.
type IQ struct {
	pool     *Pool
	capacity int
	entries  []UID
	ready    []UID // register-ready entries in ascending GSeq (issue order)
	// perThread counts occupied entries per thread, for the ICOUNT fetch
	// policy and for static-partition ablations.
	perThread []int
	partition int // per-thread entry cap; 0 = fully shared
}

// NewIQ builds an issue queue over pool with the given capacity for the
// given number of threads. partition, if nonzero, statically caps each
// thread's share (the reliability-aware IQ-partition ablation of
// DESIGN.md §8).
func NewIQ(pool *Pool, capacity, threads, partition int) *IQ {
	return &IQ{
		pool:      pool,
		capacity:  capacity,
		entries:   make([]UID, 0, capacity),
		ready:     make([]UID, 0, capacity),
		perThread: make([]int, threads),
		partition: partition,
	}
}

// Len returns the number of occupied entries.
func (q *IQ) Len() int { return len(q.entries) }

// Capacity returns the total entry count.
func (q *IQ) Capacity() int { return q.capacity }

// ThreadCount returns the number of entries occupied by thread tid.
func (q *IQ) ThreadCount(tid int) int { return q.perThread[tid] }

// CanInsert reports whether thread tid may insert another entry.
func (q *IQ) CanInsert(tid int) bool {
	if len(q.entries) >= q.capacity {
		return false
	}
	if q.partition > 0 && q.perThread[tid] >= q.partition {
		return false
	}
	return true
}

// Insert places u in the queue at cycle now. The caller must have checked
// CanInsert, and must follow up with MarkReady once u's register operands
// are all available (immediately, or via the register file's wakeup).
func (q *IQ) Insert(u UID, now uint64) {
	p := q.pool
	if !q.CanInsert(int(p.TID[u])) {
		panic("pipeline: IQ insert without capacity")
	}
	p.Flags[u] = p.Flags[u]&^FInReady | FInIQ
	p.Res[u].EnterIQ = now
	p.Meta[u].IQIdx = int32(len(q.entries))
	q.entries = append(q.entries, u)
	q.perThread[p.TID[u]]++
}

// MarkReady adds the resident entry u to the ready set. Idempotence is the
// caller's problem: u must not already be in the set.
func (q *IQ) MarkReady(u UID) {
	p := q.pool
	if p.Flags[u]&FInIQ == 0 || p.Flags[u]&FInReady != 0 {
		panic("pipeline: MarkReady of a non-resident or already-ready entry")
	}
	i := q.readySearch(p.GSeq[u])
	q.ready = append(q.ready, 0)
	copy(q.ready[i+1:], q.ready[i:])
	q.ready[i] = u
	p.Flags[u] |= FInReady
}

// readySearch returns the insertion index of gseq in the ready set (the
// count of ready entries with a smaller GSeq). GSeqs are unique, so this
// also locates an existing member exactly.
func (q *IQ) readySearch(gseq uint64) int {
	gs := q.pool.GSeq
	lo, hi := 0, len(q.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if gs[q.ready[mid]] < gseq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// AppendReady appends the ready entries to dst, oldest first, and returns
// the extended slice. The core copies the set into its own scratch buffer
// because issuing removes entries from the set mid-iteration.
func (q *IQ) AppendReady(dst []UID) []UID {
	return append(dst, q.ready...)
}

// ReadyLen returns the size of the ready set.
func (q *IQ) ReadyLen() int { return len(q.ready) }

// Unready takes resident entry u back out of the ready set without removing
// it from the queue — the load-sleep path (docs/performance.md): a load
// blocked on an older store's unknown address parks until a store of its
// thread executes, instead of being re-scanned every cycle. The caller
// re-wakes it with MarkReady.
func (q *IQ) Unready(u UID) {
	q.dropReady(u)
	q.pool.Flags[u] &^= FInReady
}

// remove deletes entry i, closing its residency at cycle now.
func (q *IQ) remove(i int, now uint64) {
	p := q.pool
	u := q.entries[i]
	inReady := p.Flags[u]&FInReady != 0
	p.Flags[u] &^= FInIQ | FInReady
	p.Meta[u].IQIdx = -1
	p.Res[u].IQCycles += now - p.Res[u].EnterIQ
	q.perThread[p.TID[u]]--
	last := len(q.entries) - 1
	q.entries[i] = q.entries[last]
	p.Meta[q.entries[i]].IQIdx = int32(i)
	q.entries = q.entries[:last]
	if inReady {
		q.dropReady(u)
	}
}

// dropReady removes u from the ready set. The FInReady flag is already
// cleared by the caller.
func (q *IQ) dropReady(u UID) {
	i := q.readySearch(q.pool.GSeq[u])
	if i >= len(q.ready) || q.ready[i] != u {
		panic("pipeline: ready set out of sync")
	}
	copy(q.ready[i:], q.ready[i+1:])
	q.ready = q.ready[:len(q.ready)-1]
}

// Remove deletes u from the queue, closing its residency at cycle now. If
// u is still watching register operands (it was removed by a squash rather
// than issued), the caller must also drop it from the register file's
// waiter lists with RegFile.Unwatch.
func (q *IQ) Remove(u UID, now uint64) {
	i := int(q.pool.Meta[u].IQIdx)
	if i < 0 || i >= len(q.entries) || q.entries[i] != u {
		panic("pipeline: IQ remove of absent entry")
	}
	q.remove(i, now)
}
