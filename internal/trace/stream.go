package trace

import (
	"fmt"

	"smtavf/internal/isa"
)

// Stream adapts a Generator into a replayable instruction source. The
// simulator fetches speculatively and must re-fetch correct-path
// instructions after a pipeline squash (branch misprediction recovery or a
// FLUSH-policy flush), so Stream buffers generated instructions until the
// simulator releases them at commit.
type Stream struct {
	gen    Generator
	buf    []isa.Instruction // buf[i] holds sequence base+i
	base   uint64            // sequence number of buf[0]
	head   uint64            // released low-water mark (base ≤ head)
	cursor uint64            // sequence number the next Next returns
}

// NewStream wraps gen.
func NewStream(gen Generator) *Stream {
	return &Stream{gen: gen}
}

// Name identifies the underlying workload.
func (s *Stream) Name() string { return s.gen.Name() }

// Cursor returns the sequence number the next call to Next will return.
func (s *Stream) Cursor() uint64 { return s.cursor }

// Next returns the next correct-path instruction at the cursor, generating
// it if it has not been produced before, and advances the cursor.
func (s *Stream) Next() isa.Instruction {
	var in isa.Instruction
	s.NextInto(&in)
	return in
}

// NextInto is Next writing into dst in place: the fetch hot path hands the
// pool slot's own instruction record, so delivery is a single struct copy
// with no intermediate value.
func (s *Stream) NextInto(dst *isa.Instruction) {
	if s.cursor >= s.base+uint64(len(s.buf)) {
		s.fill()
	}
	*dst = s.buf[s.cursor-s.base]
	s.cursor++
}

// fill generates forward until the cursor's instruction is buffered.
func (s *Stream) fill() {
	for s.cursor >= s.base+uint64(len(s.buf)) {
		in := s.gen.Next()
		if in.Seq != s.base+uint64(len(s.buf)) {
			panic(fmt.Sprintf("trace: generator %s produced seq %d, want %d",
				s.gen.Name(), in.Seq, s.base+uint64(len(s.buf))))
		}
		s.buf = append(s.buf, in)
	}
}

// Peek returns the instruction at the cursor without consuming it.
func (s *Stream) Peek() isa.Instruction {
	in := s.Next()
	s.cursor--
	return in
}

// PeekPC returns the PC of the instruction at the cursor without consuming
// it — the fetch stage's per-iteration address probe, kept free of the full
// struct copy Peek would make.
func (s *Stream) PeekPC() uint64 {
	if s.cursor >= s.base+uint64(len(s.buf)) {
		s.fill()
	}
	return s.buf[s.cursor-s.base].PC
}

// Rewind moves the cursor back to sequence number seq, so that seq is the
// next instruction delivered. seq must not precede the released low-water
// mark nor exceed the current cursor.
func (s *Stream) Rewind(seq uint64) {
	if seq < s.head {
		panic(fmt.Sprintf("trace: rewind to released seq %d (head %d)", seq, s.head))
	}
	if seq > s.cursor {
		panic(fmt.Sprintf("trace: rewind forward to %d (cursor %d)", seq, s.cursor))
	}
	s.cursor = seq
}

// Release discards buffered instructions with sequence numbers below seq.
// The simulator calls this as instructions commit; a released instruction
// can never be re-fetched.
//
// Releasing is lazy: the low-water mark advances but released entries stay
// in place until the dead prefix outgrows the live tail, when one compaction
// reclaims the lot — amortized O(1) per instruction, where eager shifting
// cost a full-window copy per commit (docs/performance.md).
func (s *Stream) Release(seq uint64) {
	if seq <= s.head {
		return
	}
	if seq > s.cursor {
		panic(fmt.Sprintf("trace: release beyond cursor: %d > %d", seq, s.cursor))
	}
	s.head = seq
	if dead := int(s.head - s.base); dead >= 64 && dead*2 >= len(s.buf) {
		n := copy(s.buf, s.buf[dead:])
		s.buf = s.buf[:n]
		s.base = s.head
	}
}

// Buffered returns the number of instructions currently held for replay.
func (s *Stream) Buffered() int { return len(s.buf) - int(s.head-s.base) }
