package pipeline

// ROB is one thread's reorder buffer (paper Table 1: 96 entries per
// thread): a FIFO of in-flight uops in program order, dequeued at commit
// from the head and rolled back from the tail on a squash. The ring holds
// pool ids, so the buffer carries no GC-visible pointers.
type ROB struct {
	pool *Pool
	buf  []UID
	head int
	n    int
}

// NewROB builds a reorder buffer over pool with the given capacity.
func NewROB(pool *Pool, capacity int) *ROB {
	return &ROB{pool: pool, buf: make([]UID, capacity)}
}

// Len returns the number of occupied entries.
func (r *ROB) Len() int { return r.n }

// Capacity returns the entry count.
func (r *ROB) Capacity() int { return len(r.buf) }

// Full reports whether no entries remain.
func (r *ROB) Full() bool { return r.n == len(r.buf) }

// Push appends u at the tail at cycle now.
func (r *ROB) Push(u UID, now uint64) {
	if r.Full() {
		panic("pipeline: ROB push when full")
	}
	r.pool.Res[u].EnterROB = now
	r.buf[wrap(r.head+r.n, len(r.buf))] = u
	r.n++
}

// Head returns the oldest uop without removing it, or NoUID when empty.
func (r *ROB) Head() UID {
	if r.n == 0 {
		return NoUID
	}
	return r.buf[r.head]
}

// PopHead removes and returns the oldest uop, closing its ROB residency at
// cycle now.
func (r *ROB) PopHead(now uint64) UID {
	u := r.Head()
	if u == NoUID {
		panic("pipeline: ROB pop when empty")
	}
	r.pool.Res[u].ROBCycles += now - r.pool.Res[u].EnterROB
	r.head = wrap(r.head+1, len(r.buf))
	r.n--
	return u
}

// Tail returns the youngest uop, or NoUID when empty.
func (r *ROB) Tail() UID {
	if r.n == 0 {
		return NoUID
	}
	return r.buf[wrap(r.head+r.n-1, len(r.buf))]
}

// PopTail removes and returns the youngest uop (squash rollback), closing
// its ROB residency at cycle now.
func (r *ROB) PopTail(now uint64) UID {
	u := r.Tail()
	if u == NoUID {
		panic("pipeline: ROB tail pop when empty")
	}
	r.pool.Res[u].ROBCycles += now - r.pool.Res[u].EnterROB
	r.n--
	return u
}

// At returns the i-th oldest uop (0 = head).
func (r *ROB) At(i int) UID {
	if i < 0 || i >= r.n {
		panic("pipeline: ROB index out of range")
	}
	return r.buf[wrap(r.head+i, len(r.buf))]
}
