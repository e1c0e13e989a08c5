package pipetrace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

// uop fills a fresh slot of pl with a full lifecycle: fetched at fetch,
// dispatched 4 cycles later, issued after one IQ cycle, one-cycle
// execution, residencies closed as the pipeline would leave them.
func uop(pl *pipeline.Pool, tid int, gseq, seq, pc uint64, class isa.Class, fetch uint64) pipeline.UID {
	u := pl.Alloc()
	pl.Reset(u, &isa.Instruction{Seq: seq, PC: pc, Class: class}, int32(tid), gseq, fetch, false, 0)
	dispatch := fetch + 4
	r := &pl.Res[u]
	r.EnterIQ, r.IQCycles = dispatch, 1
	r.EnterROB, r.ROBCycles = dispatch, 4
	r.IssuedAt, r.FUCycles = dispatch+1, 1
	pl.Set(u, pipeline.FIssued|pipeline.FExecuted)
	pl.Meta[u].ReadyAt = dispatch + 2
	if class.IsMem() {
		pl.Meta[u].LSQIdx = 0
		r.EnterLSQ, r.LSQTagCycles = dispatch, 4
		r.DataAt, r.LSQDataCycles = dispatch+2, 2
	}
	return u
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	pl := pipeline.NewPool(1)
	r.Record(pl, uop(pl, 0, 0, 0, 0x100, isa.IntALU, 5), 20, false)
	r.Rebase(10)
	r.SetBits(pipeline.DefaultBits())
	if r.Len() != 0 || r.Records() != nil {
		t.Fatal("nil recorder retained state")
	}
	if r.ACEBitCycles(avf.IQ) != 0 || r.ResidentBitCycles(avf.ROB) != 0 {
		t.Fatal("nil recorder reported bit-cycles")
	}
	p := r.Provenance()
	if p.Records != 0 || len(p.PCs) != 0 {
		t.Fatalf("nil recorder produced provenance: %+v", p)
	}
}

func TestWindowGating(t *testing.T) {
	pl := pipeline.NewPool(6)
	r := New(Options{WindowStart: 100, WindowEnd: 200})
	for i, fetch := range []uint64{50, 100, 199, 200, 1000} {
		r.Record(pl, uop(pl, 0, uint64(i), uint64(i), 0x100, isa.IntALU, fetch), fetch+20, false)
	}
	if r.Len() != 2 {
		t.Fatalf("window [100,200) retained %d records, want 2", r.Len())
	}
	for _, rec := range r.Records() {
		if rec.Fetch < 100 || rec.Fetch >= 200 {
			t.Fatalf("record fetched at %d escaped the window", rec.Fetch)
		}
	}
	// WindowEnd 0 means unbounded.
	r = New(Options{WindowStart: 100})
	r.Record(pl, uop(pl, 0, 0, 0, 0x100, isa.IntALU, 1_000_000), 1_000_020, false)
	if r.Len() != 1 {
		t.Fatal("unbounded window dropped a record")
	}
}

// TestWindowBoundaryResidencySplit pins how sampling windows partition
// provenance: gating is by fetch cycle only, so two complementary windows
// split the uop population exactly — counts, fate totals, and per-struct
// bit-cycles all reconcile with an unwindowed recorder — and a uop fetched
// inside a window keeps its *entire* residency even when the spans run
// past WindowEnd (residency is attributed to the fetch window, never
// split at the boundary).
func TestWindowBoundaryResidencySplit(t *testing.T) {
	const boundary = 100
	full := New(Options{})
	lo := New(Options{WindowEnd: boundary})
	hi := New(Options{WindowStart: boundary})

	// Fetches straddling the boundary; the uop fetched at 99 dispatches at
	// 103 so all of its residency lies beyond WindowEnd.
	fetches := []uint64{90, 95, 99, 100, 101, 110}
	pool := pipeline.NewPool(len(fetches))
	for i, fetch := range fetches {
		class := isa.IntALU
		if i%2 == 1 {
			class = isa.Load
		}
		u := uop(pool, 0, uint64(i), uint64(i), 0x100+16*fetch, class, fetch)
		for _, r := range []*Recorder{full, lo, hi} {
			r.Record(pool, u, fetch+20, false)
		}
	}

	if lo.Len()+hi.Len() != full.Len() {
		t.Fatalf("windows retain %d+%d records, full recorder %d",
			lo.Len(), hi.Len(), full.Len())
	}
	if lo.Len() != 3 || hi.Len() != 3 {
		t.Fatalf("boundary fetch landed wrong: lo=%d hi=%d, want 3+3", lo.Len(), hi.Len())
	}
	for _, rec := range lo.Records() {
		if rec.Fetch >= boundary {
			t.Fatalf("record fetched at %d leaked into [0,%d)", rec.Fetch, boundary)
		}
	}
	for _, rec := range hi.Records() {
		if rec.Fetch < boundary {
			t.Fatalf("record fetched at %d leaked into [%d,inf)", rec.Fetch, boundary)
		}
	}

	// The 99-fetch uop's residency ([103, ...) entirely past the boundary)
	// must still be aggregated by the low window, in full.
	var pastEnd bool
	for _, rec := range lo.Records() {
		if rec.Fetch == 99 && rec.ROB.Start >= boundary && rec.ROB.Cycles > 0 {
			pastEnd = true
		}
	}
	if !pastEnd {
		t.Fatal("boundary-straddling uop lost its past-WindowEnd residency")
	}

	// Bit-cycles and fate counts partition exactly across the windows.
	for _, s := range RecordStructs {
		if got, want := lo.ACEBitCycles(s)+hi.ACEBitCycles(s), full.ACEBitCycles(s); got != want {
			t.Errorf("%s: windowed ACE bit-cycles sum to %d, full recorder %d", s, got, want)
		}
		if got, want := lo.ResidentBitCycles(s)+hi.ResidentBitCycles(s), full.ResidentBitCycles(s); got != want {
			t.Errorf("%s: windowed resident bit-cycles sum to %d, full recorder %d", s, got, want)
		}
	}
	pf, pl, ph := full.Provenance(), lo.Provenance(), hi.Provenance()
	for i := range pf.Fates {
		if got, want := pl.Fates[i].Count+ph.Fates[i].Count, pf.Fates[i].Count; got != want {
			t.Errorf("%s: windowed fate counts sum to %d, full recorder %d",
				pf.Fates[i].Fate, got, want)
		}
	}
	if got, want := len(pl.PCs)+len(ph.PCs), len(pf.PCs); got != want {
		t.Errorf("windowed PC profiles sum to %d, full recorder %d", got, want)
	}
}

// TestProvenanceOnlyKeepsAggregationExact: a provenance-only recorder
// retains no records yet folds every uop exactly as a retaining recorder
// does, and refuses to export a trace it does not have.
func TestProvenanceOnlyKeepsAggregationExact(t *testing.T) {
	only, full := New(Options{ProvenanceOnly: true}), New(Options{})
	pl := pipeline.NewPool(3)
	alu := uop(pl, 0, 0, 0, 0x100, isa.IntALU, 10)
	ld := uop(pl, 0, 1, 1, 0x104, isa.Load, 11)
	wp := uop(pl, 1, 2, 0, 0x200, isa.Store, 12)
	pl.Set(wp, pipeline.FWrongPath)
	for _, r := range []*Recorder{only, full} {
		r.Record(pl, alu, 30, false)
		r.Record(pl, ld, 31, false)
		r.Record(pl, wp, 32, true)
	}
	if only.Len() != 0 || only.Records() != nil {
		t.Fatalf("provenance-only recorder retained %d records", only.Len())
	}
	for _, s := range RecordStructs {
		if got, want := only.ACEBitCycles(s), full.ACEBitCycles(s); got != want {
			t.Errorf("%s: provenance-only ACE bit-cycles %d, retaining %d", s, got, want)
		}
		if got, want := only.ResidentBitCycles(s), full.ResidentBitCycles(s); got != want {
			t.Errorf("%s: provenance-only resident bit-cycles %d, retaining %d", s, got, want)
		}
	}
	prov := only.Provenance()
	if prov.Records != 3 || len(prov.PCs) != 3 {
		t.Fatalf("provenance-only folded %d uops over %d PCs, want 3 over 3", prov.Records, len(prov.PCs))
	}
	if want := full.Provenance(); !reflect.DeepEqual(prov, want) {
		t.Fatalf("provenance-only report differs:\n%+v\nretaining:\n%+v", prov, want)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := only.WriteFile(path, ""); err == nil {
		t.Fatal("provenance-only WriteFile succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("provenance-only WriteFile left a file behind: %v", err)
	}
}

func TestRebaseClipsIntervals(t *testing.T) {
	pl := pipeline.NewPool(2)
	r := New(Options{})
	r.Record(pl, uop(pl, 0, 0, 0, 0x100, isa.IntALU, 10), 30, false)
	if r.Len() != 1 {
		t.Fatal("no record before rebase")
	}
	r.Rebase(16)
	if r.Len() != 0 || r.ACEBitCycles(avf.ROB) != 0 {
		t.Fatal("rebase did not clear the recorder")
	}
	// ROB residency [14, 18) clipped at 16 leaves 2 cycles.
	r.Record(pl, uop(pl, 0, 1, 1, 0x100, isa.IntALU, 10), 30, false)
	bits := pipeline.DefaultBits()
	if got, want := r.ACEBitCycles(avf.ROB), 2*bits.ROBEntry; got != want {
		t.Fatalf("clipped ROB bit-cycles = %d, want %d", got, want)
	}
	// IQ residency [14, 15) lies entirely before the rebase: dropped.
	if got := r.ACEBitCycles(avf.IQ); got != 0 {
		t.Fatalf("pre-rebase IQ interval contributed %d bit-cycles", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	pl := pipeline.NewPool(2)
	r := New(Options{})
	r.Record(pl, uop(pl, 0, 0, 0, 0x100, isa.IntALU, 10), 18, false)
	r.Record(pl, uop(pl, 1, 1, 0, 0x200, isa.Load, 11), 19, false)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Records()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	for i := range got {
		if got[i] != r.Records()[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], r.Records()[i])
		}
	}
	// A foreign schema version is rejected.
	bad := `{"v":99,"tid":0,"fate":"committed"}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
		t.Fatal("schema v99 accepted")
	}
}

// FuzzReadJSONL: ReadJSONL never panics on arbitrary bytes, and whatever
// it accepts re-encodes and decodes to equal records.
func FuzzReadJSONL(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteJSONL(&golden, goldenRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	for _, line := range bytes.SplitAfter(golden.Bytes(), []byte("\n")) {
		f.Add(line)
	}
	f.Add([]byte(`{"v":99,"tid":0,"fate":"committed"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, recs); err != nil {
			t.Fatalf("re-encoding accepted records: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded records rejected: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(back, recs) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", recs, back)
		}
	})
}

func TestFormatForPath(t *testing.T) {
	cases := map[string]Format{
		"run.kanata":    FormatKanata,
		"run.kan":       FormatKanata,
		"RUN.KANATA.GZ": FormatKanata,
		"run.json":      FormatChrome,
		"run.json.gz":   FormatChrome,
		"run.jsonl":     FormatJSONL,
		"run.jsonl.gz":  FormatJSONL,
		"run":           FormatJSONL,
	}
	for path, want := range cases {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %s, want %s", path, got, want)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, "nope", nil); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestProvenanceOrderingAndTotals(t *testing.T) {
	pl := pipeline.NewPool(4)
	r := New(Options{})
	// Two instances of the hot PC, one of a cold one, one wrong-path uop.
	r.Record(pl, uop(pl, 0, 0, 0, 0x100, isa.IntALU, 10), 18, false)
	r.Record(pl, uop(pl, 0, 1, 1, 0x100, isa.IntALU, 20), 28, false)
	r.Record(pl, uop(pl, 0, 2, 2, 0x104, isa.IntALU, 30), 38, false)
	wp := uop(pl, 1, 3, 0, 0x200, isa.Load, 40)
	pl.Set(wp, pipeline.FWrongPath)
	r.Record(pl, wp, 48, true)

	p := r.Provenance()
	if p.Records != 4 {
		t.Fatalf("records = %d, want 4", p.Records)
	}
	if len(p.PCs) != 3 {
		t.Fatalf("distinct PCs = %d, want 3", len(p.PCs))
	}
	if p.PCs[0].PC != 0x100 || p.PCs[0].Count != 2 {
		t.Fatalf("hottest PC = %+v, want 0x100 with count 2", p.PCs[0])
	}
	for _, s := range RecordStructs {
		var aceSum, resSum uint64
		for i := range p.PCs {
			aceSum += p.PCs[i].ACE[s]
			resSum += p.PCs[i].Resident[s]
		}
		if aceSum != p.TotalACE[s] || aceSum != r.ACEBitCycles(s) {
			t.Errorf("%s: per-PC ACE sum %d, total %d, recorder %d",
				s, aceSum, p.TotalACE[s], r.ACEBitCycles(s))
		}
		if resSum != p.TotalResident[s] || resSum != r.ResidentBitCycles(s) {
			t.Errorf("%s: per-PC resident sum %d, total %d, recorder %d",
				s, resSum, p.TotalResident[s], r.ResidentBitCycles(s))
		}
		var fateSum uint64
		for i := range p.Fates {
			fateSum += p.Fates[i].Resident[s]
		}
		if fateSum != p.TotalResident[s] {
			t.Errorf("%s: per-fate resident sum %d, total %d", s, fateSum, p.TotalResident[s])
		}
	}
	// Only the wrong-path load occupied the LSQ: residency but no ACE.
	if p.TotalACE[avf.LSQTag] != 0 || p.TotalResident[avf.LSQTag] == 0 {
		t.Errorf("wrong-path LSQ accounting: ACE=%d resident=%d",
			p.TotalACE[avf.LSQTag], p.TotalResident[avf.LSQTag])
	}

	hs := p.Hotspots(avf.ROB, 2)
	if len(hs) != 2 || hs[0].ACE[avf.ROB] < hs[1].ACE[avf.ROB] {
		t.Fatalf("Hotspots(ROB, 2) = %+v", hs)
	}
	out := p.FormatHotspots(avf.ROB, 2)
	if !strings.Contains(out, "T0 0x100 ialu") {
		t.Fatalf("hotspot table missing hot PC:\n%s", out)
	}
	fates := p.FormatFates()
	if !strings.Contains(fates, "wrong_path") || !strings.Contains(fates, "committed") {
		t.Fatalf("fate table incomplete:\n%s", fates)
	}
}

func TestProvenanceMixedClassPC(t *testing.T) {
	pl := pipeline.NewPool(2)
	r := New(Options{})
	r.Record(pl, uop(pl, 0, 0, 0, 0x100, isa.Branch, 10), 18, false)
	r.Record(pl, uop(pl, 0, 1, 1, 0x100, isa.Load, 20), 28, false)
	p := r.Provenance()
	if len(p.PCs) != 1 || p.PCs[0].Op != "mixed" || p.PCs[0].Count != 2 {
		t.Fatalf("PC hosting two classes = %+v, want op \"mixed\", count 2", p.PCs[0])
	}
}

// TestRecordSpanConsistency: a Record carries the slot's Residencies
// spans, stage cycles and Fate.
func TestRecordSpanConsistency(t *testing.T) {
	pl := pipeline.NewPool(2)
	u := uop(pl, 0, 0, 0, 0x100, isa.Store, 10)
	r := New(Options{})
	r.Record(pl, u, 30, false)
	rec := r.Records()[0]
	bits := pipeline.DefaultBits()
	for i, res := range pl.Residencies(u, bits) {
		sp := rec.Span(RecordStructs[i])
		if res.Struct != RecordStructs[i] {
			t.Fatalf("RecordStructs[%d]=%s but Residencies yields %s", i, RecordStructs[i], res.Struct)
		}
		if sp.Start != res.Start || sp.End() != res.End {
			t.Errorf("%s: record span [%d,%d), residency [%d,%d)",
				res.Struct, sp.Start, sp.End(), res.Start, res.End)
		}
	}
	if rec.Dispatch != int64(pl.Res[u].EnterROB) || rec.Issue != int64(pl.Res[u].IssuedAt) || rec.Writeback != int64(pl.Meta[u].ReadyAt) {
		t.Fatalf("stage cycles %d/%d/%d do not match uop", rec.Dispatch, rec.Issue, rec.Writeback)
	}
	if rec.Fate != avf.FateCommitted || !rec.ACE {
		t.Fatalf("committed store recorded fate %s, ACE %v", rec.Fate, rec.ACE)
	}
	// A uop dropped in the front end never reached any stage.
	fe := pl.Alloc()
	pl.Reset(fe, &isa.Instruction{PC: 0x300, Class: isa.IntALU}, 0, 9, 50, true, 0)
	r.Record(pl, fe, 55, true)
	rec = r.Records()[1]
	if rec.Dispatch != -1 || rec.Issue != -1 || rec.Writeback != -1 {
		t.Fatalf("front-end drop has stage cycles %d/%d/%d, want -1", rec.Dispatch, rec.Issue, rec.Writeback)
	}
	if rec.Fate != avf.FateWrongPath || rec.ACE || !rec.WrongPath {
		t.Fatalf("wrong-path drop recorded fate %s, ACE %v, wrong path %v", rec.Fate, rec.ACE, rec.WrongPath)
	}
}
