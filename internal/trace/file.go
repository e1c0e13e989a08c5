package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"smtavf/internal/isa"
)

// Trace file format: a fixed 8-byte magic, a length-prefixed workload
// name, a record count, then fixed-width little-endian instruction
// records. The format is versioned through the magic string.
const (
	traceMagic  = "SMTTRC01"
	recordBytes = 8 + 8 + 1 + 2 + 2 + 2 + 8 + 1 + 1 + 8 // see encode
)

// flag bits of the record's flags byte.
const (
	flagTaken = 1 << iota
	flagDead
)

// WriteTrace serializes a recorded instruction sequence.
func WriteTrace(w io.Writer, name string, ins []isa.Instruction) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	if len(name) > 255 {
		return fmt.Errorf("trace: workload name longer than 255 bytes")
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	var buf [recordBytes]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(ins)))
	if _, err := bw.Write(buf[:8]); err != nil {
		return err
	}
	for i := range ins {
		encode(&buf, &ins[i])
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encode(buf *[recordBytes]byte, in *isa.Instruction) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], in.Seq)
	le.PutUint64(buf[8:], in.PC)
	buf[16] = byte(in.Class)
	le.PutUint16(buf[17:], uint16(in.Src1))
	le.PutUint16(buf[19:], uint16(in.Src2))
	le.PutUint16(buf[21:], uint16(in.Dest))
	le.PutUint64(buf[23:], in.Addr)
	buf[31] = in.Size
	var flags byte
	if in.Taken {
		flags |= flagTaken
	}
	if in.Dead {
		flags |= flagDead
	}
	buf[32] = flags
	le.PutUint64(buf[33:], in.Target)
}

func decode(buf *[recordBytes]byte) isa.Instruction {
	le := binary.LittleEndian
	return isa.Instruction{
		Seq:    le.Uint64(buf[0:]),
		PC:     le.Uint64(buf[8:]),
		Class:  isa.Class(buf[16]),
		Src1:   isa.RegID(int16(le.Uint16(buf[17:]))),
		Src2:   isa.RegID(int16(le.Uint16(buf[19:]))),
		Dest:   isa.RegID(int16(le.Uint16(buf[21:]))),
		Addr:   le.Uint64(buf[23:]),
		Size:   buf[31],
		Taken:  buf[32]&flagTaken != 0,
		Dead:   buf[32]&flagDead != 0,
		Target: le.Uint64(buf[33:]),
	}
}

// ReadTrace parses a trace produced by WriteTrace.
func ReadTrace(r io.Reader) (name string, ins []isa.Instruction, err error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return "", nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return "", nil, fmt.Errorf("trace: bad magic %q (not a trace file?)", magic)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return "", nil, err
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return "", nil, err
	}
	var buf [recordBytes]byte
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return "", nil, err
	}
	count := binary.LittleEndian.Uint64(buf[:8])
	const sanity = 1 << 32
	if count > sanity {
		return "", nil, fmt.Errorf("trace: implausible record count %d", count)
	}
	// The header's count is a claim, not an allocation size: the slice
	// grows as records arrive, so a count the file cannot back fails at
	// the first missing record instead of reserving memory for it.
	ins = make([]isa.Instruction, 0, min(int(count), 1<<12))
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return "", nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		in := decode(&buf)
		if err := checkRecord(&in); err != nil {
			return "", nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		ins = append(ins, in)
	}
	return string(nameBuf), ins, nil
}

// checkRecord rejects a decoded instruction the simulator cannot
// represent: an unknown class, or a register operand that is neither
// absent nor an architectural register.
func checkRecord(in *isa.Instruction) error {
	if int(in.Class) >= isa.NumClasses {
		return fmt.Errorf("instruction class %d out of range", in.Class)
	}
	for _, r := range [...]isa.RegID{in.Src1, in.Src2, in.Dest} {
		if r != isa.RegNone && !r.Valid() {
			return fmt.Errorf("register %d out of range", r)
		}
	}
	return nil
}

// Record captures the next n instructions of a generator.
func Record(gen Generator, n int) []isa.Instruction {
	out := make([]isa.Instruction, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}

// Replay turns a finite recorded instruction sequence into the infinite
// stream the simulator needs: the recording repeats, with sequence numbers
// renumbered to stay continuous (the paper's SimPoint regions are loops of
// this kind anyway). The lap boundary behaves like a program's outermost
// loop back-edge.
type Replay struct {
	name string
	ins  []isa.Instruction
	next uint64
	pos  int
}

var _ Generator = (*Replay)(nil)

// NewReplay wraps a recorded sequence; it must be non-empty.
func NewReplay(name string, ins []isa.Instruction) (*Replay, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("trace: empty recording for %q", name)
	}
	return &Replay{name: name, ins: ins}, nil
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Len returns the length of one lap of the recording.
func (r *Replay) Len() int { return len(r.ins) }

// Next implements Generator.
func (r *Replay) Next() isa.Instruction {
	in := r.ins[r.pos]
	r.pos++
	if r.pos == len(r.ins) {
		r.pos = 0
	}
	in.Seq = r.next
	r.next++
	return in
}

// LoadTraceFile reads a trace file from disk and wraps it for replay.
func LoadTraceFile(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name, ins, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return NewReplay(name, ins)
}
