package pipeline

// Ring is a fixed-capacity deque of pool ids in age order. Entries enter
// at the back and leave from either end (commit or dispatch from the
// front, squash from the back), and one array serves the whole run. The
// LSQ's disambiguation index and the core's fetch queue are rings.
type Ring struct {
	buf  []UID
	head int
	n    int
}

// NewRing builds an empty ring holding up to capacity ids.
func NewRing(capacity int) Ring { return Ring{buf: make([]UID, capacity)} }

// Len returns the number of ids held.
func (r *Ring) Len() int { return r.n }

// Front returns the oldest id; the ring must not be empty.
func (r *Ring) Front() UID { return r.buf[r.head] }

// Back returns the youngest id; the ring must not be empty.
func (r *Ring) Back() UID { return r.buf[wrap(r.head+r.n-1, len(r.buf))] }

// At returns the i-th oldest id (0 = front), for i < Len.
func (r *Ring) At(i int) UID { return r.buf[wrap(r.head+i, len(r.buf))] }

// PushBack appends u as the youngest id. It panics when the ring is full.
func (r *Ring) PushBack(u UID) {
	if r.n == len(r.buf) {
		panic("pipeline: ring overflow")
	}
	r.buf[wrap(r.head+r.n, len(r.buf))] = u
	r.n++
}

// PopFront drops the oldest id; the ring must not be empty.
func (r *Ring) PopFront() {
	r.head = wrap(r.head+1, len(r.buf))
	r.n--
}

// PopBack drops the youngest id; the ring must not be empty.
func (r *Ring) PopBack() { r.n-- }

// wrap reduces a ring position i in [0, 2n) into [0, n) with one compare
// and subtract. Every ring index is head plus an offset below the
// capacity, and % by a capacity known only at run time costs a division.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}
