package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"smtavf/internal/isa"
)

func TestTraceRoundTrip(t *testing.T) {
	gen := NewSynthetic(testProfile(), 5)
	ins := Record(gen, 5000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "test", ins); err != nil {
		t.Fatal(err)
	}
	name, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "test" {
		t.Fatalf("name %q", name)
	}
	if len(got) != len(ins) {
		t.Fatalf("%d records, want %d", len(got), len(ins))
	}
	for i := range ins {
		if got[i] != ins[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], ins[i])
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, _, err := ReadTrace(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated record section.
	gen := NewSynthetic(testProfile(), 5)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "x", Record(gen, 10)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// TestReadTraceRejectsMalformed: a header count the file cannot back, a
// record the simulator cannot represent and a truncated record are each
// an error — not an allocation sized by the header, and not a run over
// an instruction no pipeline structure can hold.
func TestReadTraceRejectsMalformed(t *testing.T) {
	valid := isa.Instruction{PC: 0x100, Class: isa.IntALU, Src1: 1, Src2: isa.RegNone, Dest: 2}
	encode := func(mutate func(*isa.Instruction)) []byte {
		in := valid
		mutate(&in)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, "gcc", []isa.Instruction{in}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	whole := encode(func(*isa.Instruction) {})
	if _, ins, err := ReadTrace(bytes.NewReader(whole)); err != nil || len(ins) != 1 {
		t.Fatalf("valid one-record trace: %d records, %v", len(ins), err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		// Magic, name "gcc", count 2^32, no records: 20 bytes.
		{"count-without-records", binary.LittleEndian.AppendUint64([]byte(traceMagic+"\x03gcc"), 1<<32)},
		{"class-200", encode(func(in *isa.Instruction) { in.Class = 200 })},
		{"src1-500", encode(func(in *isa.Instruction) { in.Src1 = 500 })},
		{"dest-minus-7", encode(func(in *isa.Instruction) { in.Dest = -7 })},
		{"truncated-record", whole[:len(whole)-1]},
	}
	for _, tc := range cases {
		if _, ins, err := ReadTrace(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: accepted with %d records", tc.name, len(ins))
		}
	}
}

// FuzzReadTrace: ReadTrace never panics on arbitrary bytes, and whatever
// it accepts writes back and reads again to the same name and records.
func FuzzReadTrace(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteTrace(&seed, "gcc", Record(NewSynthetic(testProfile(), 5), 8)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		name, ins, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, name, ins); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		name2, ins2, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if name2 != name || !slices.Equal(ins2, ins) {
			t.Fatalf("round trip changed the trace: %q %+v -> %q %+v", name, ins, name2, ins2)
		}
	})
}

func TestTraceNameLength(t *testing.T) {
	var buf bytes.Buffer
	long := strings.Repeat("x", 256)
	if err := WriteTrace(&buf, long, nil); err == nil {
		t.Fatal("over-long name accepted")
	}
}

func TestReplayLoopsWithContinuousSeq(t *testing.T) {
	gen := NewSynthetic(testProfile(), 7)
	ins := Record(gen, 100)
	r, err := NewReplay("loop", ins)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 100 {
		t.Fatalf("Len %d", r.Len())
	}
	for i := uint64(0); i < 350; i++ {
		in := r.Next()
		if in.Seq != i {
			t.Fatalf("replay seq %d at position %d", in.Seq, i)
		}
		// Laps repeat the same PCs.
		if in.PC != ins[i%100].PC {
			t.Fatalf("lap %d diverged at %d", i/100, i%100)
		}
	}
}

func TestReplayEmptyRejected(t *testing.T) {
	if _, err := NewReplay("x", nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

func TestLoadTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bzip2.trc")
	gen := NewSynthetic(testProfile(), 9)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(f, "bzip2", Record(gen, 200)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "bzip2" || r.Len() != 200 {
		t.Fatalf("loaded %q/%d", r.Name(), r.Len())
	}
	if _, err := LoadTraceFile(filepath.Join(dir, "missing.trc")); err == nil {
		t.Fatal("missing file accepted")
	}
}
