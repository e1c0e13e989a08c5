package crossval

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
)

// stats builds an inject.Stats by hand: structure s with k ACE strikes
// out of n, classified as SDC.
func stats(pairs map[avf.Struct][2]uint64) *inject.Stats {
	st := &inject.Stats{Confidence: 0.99, StoppedEarly: true}
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		st.PerStruct[s] = inject.StructStats{Struct: s}
	}
	for s, kn := range pairs {
		r := &st.PerStruct[s]
		r.Strikes = kn[1]
		r.Outcomes[inject.SDC] = kn[0]
		r.Outcomes[inject.Masked] = kn[1] - kn[0]
		r.AVF = float64(kn[0]) / float64(kn[1])
		r.Lo, r.Hi = inject.Wilson(kn[0], kn[1], 0.99)
		r.HalfWidth = (r.Hi - r.Lo) / 2
		st.TotalStrikes += kn[1]
	}
	return st
}

func TestBuildVerdicts(t *testing.T) {
	var tracker [avf.NumStructs]float64
	tracker[avf.IQ] = 0.20  // inside the CI of 2000/10000
	tracker[avf.ROB] = 0.50 // far outside the CI of 1000/10000
	st := stats(map[avf.Struct][2]uint64{
		avf.IQ:  {2000, 10000},
		avf.ROB: {1000, 10000},
	})
	rep := Build(Meta{Workload: "w", Policy: "ICOUNT", Seed: 3, Every: 1}, tracker, st)

	if len(rep.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (strike-free structures omitted)", len(rep.Entries))
	}
	if rep.Pass() {
		t.Error("report with an out-of-CI structure must fail")
	}
	failed := rep.Failed()
	if len(failed) != 1 || failed[0].Struct != avf.ROB.String() {
		t.Fatalf("failed = %+v, want exactly ROB", failed)
	}
	iq := rep.Entries[0]
	if iq.Struct != avf.IQ.String() || !iq.Pass {
		t.Fatalf("IQ entry = %+v, want pass", iq)
	}
	if iq.V != SchemaVersion || iq.Seeds != 1 || iq.Seed != 3 {
		t.Errorf("entry metadata wrong: %+v", iq)
	}
	if math.Abs(iq.Delta-(iq.InjectAVF-iq.TrackerAVF)) > 1e-12 {
		t.Errorf("delta %v inconsistent with %v - %v", iq.Delta, iq.InjectAVF, iq.TrackerAVF)
	}
	// z sanity: IQ tracker sits on the point estimate, ROB is many SEs out.
	if math.Abs(iq.Z) > 1 {
		t.Errorf("IQ z = %v, want small", iq.Z)
	}
	rob := failed[0]
	if math.Abs(rob.Z) < 10 {
		t.Errorf("ROB z = %v, want large (0.50 vs 0.10 at n=10000)", rob.Z)
	}
	table := rep.Table()
	if !strings.Contains(table, "FAIL") || !strings.Contains(table, "PASS") {
		t.Errorf("table should carry both verdicts:\n%s", table)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var tracker [avf.NumStructs]float64
	tracker[avf.IQ] = 0.2
	st := stats(map[avf.Struct][2]uint64{avf.IQ: {2000, 10000}})
	rep := Build(Meta{Workload: "w", Policy: "P"}, tracker, st)

	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rep.Entries) || got[0] != rep.Entries[0] {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", got, rep.Entries)
	}

	// Future schema versions are refused, not silently misread.
	if _, err := ReadJSONL(strings.NewReader(`{"v":99}`)); err == nil {
		t.Error("expected an error on a newer schema version")
	}
}

func TestFileRoundTripGzip(t *testing.T) {
	var tracker [avf.NumStructs]float64
	tracker[avf.IQ] = 0.2
	tracker[avf.ROB] = 0.1
	st := stats(map[avf.Struct][2]uint64{avf.IQ: {2000, 10000}, avf.ROB: {1000, 10000}})
	rep := Build(Meta{Workload: "w"}, tracker, st)

	for _, name := range []string{"r.jsonl", "r.jsonl.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := rep.WriteFile(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(rep.Entries) {
			t.Fatalf("%s: %d entries, want %d", name, len(got), len(rep.Entries))
		}
		for i := range got {
			if got[i] != rep.Entries[i] {
				t.Errorf("%s entry %d: %+v != %+v", name, i, got[i], rep.Entries[i])
			}
		}
	}
}

func TestPool(t *testing.T) {
	var tracker [avf.NumStructs]float64
	tracker[avf.IQ] = 0.2
	a := Build(Meta{Workload: "w", Seed: 1}, tracker, stats(map[avf.Struct][2]uint64{avf.IQ: {210, 1000}}))
	tracker[avf.IQ] = 0.22
	b := Build(Meta{Workload: "w", Seed: 2}, tracker, stats(map[avf.Struct][2]uint64{avf.IQ: {190, 1000}}))

	pooled, err := Pool([]*Report{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Meta.Seeds != 2 || pooled.Meta.Seed != 0 {
		t.Errorf("pooled meta = %+v, want 2 seeds, no single seed", pooled.Meta)
	}
	e := pooled.Entries[0]
	if e.Strikes != 2000 || e.ACEStrikes != 400 {
		t.Errorf("pooled counts = %d/%d, want 400/2000", e.ACEStrikes, e.Strikes)
	}
	if math.Abs(e.TrackerAVF-0.21) > 1e-12 {
		t.Errorf("pooled tracker AVF = %v, want the mean 0.21", e.TrackerAVF)
	}
	if math.Abs(e.InjectAVF-0.2) > 1e-12 {
		t.Errorf("pooled inject AVF = %v, want 400/2000", e.InjectAVF)
	}
	// Pooling must tighten the interval.
	if e.HalfWidth >= a.Entries[0].HalfWidth {
		t.Errorf("pooled half-width %v not tighter than single-seed %v", e.HalfWidth, a.Entries[0].HalfWidth)
	}
	if !e.Pass {
		t.Errorf("pooled entry should pass: %+v", e)
	}

	// Unequal strike counts: the tracker pools strike-weighted, matching
	// the proportion's inherent weighting (seeds that drew more strikes
	// dominate both sides identically). 0.2 × 3000 + 0.22 × 1000 over
	// 4000 strikes → 0.205, not the unweighted mean 0.21.
	tracker[avf.IQ] = 0.2
	c := Build(Meta{Workload: "w", Seed: 3}, tracker, stats(map[avf.Struct][2]uint64{avf.IQ: {600, 3000}}))
	tracker[avf.IQ] = 0.22
	d := Build(Meta{Workload: "w", Seed: 4}, tracker, stats(map[avf.Struct][2]uint64{avf.IQ: {220, 1000}}))
	wp, err := Pool([]*Report{c, d})
	if err != nil {
		t.Fatal(err)
	}
	if got := wp.Entries[0].TrackerAVF; math.Abs(got-0.205) > 1e-12 {
		t.Errorf("weighted pooled tracker AVF = %v, want 0.205", got)
	}
	if got := wp.Entries[0].InjectAVF; math.Abs(got-0.205) > 1e-12 {
		t.Errorf("pooled inject AVF = %v, want 820/4000", got)
	}

	// Degenerate pools.
	if _, err := Pool(nil); err == nil {
		t.Error("pooling nothing should error")
	}
	if single, err := Pool([]*Report{a}); err != nil || single != a {
		t.Error("pooling one report should return it unchanged")
	}
	b.Confidence = 0.95
	if _, err := Pool([]*Report{a, b}); err == nil {
		t.Error("pooling mixed confidence levels should error")
	}
}

// FuzzReadJSONL: ReadJSONL never panics, and whatever it accepts
// re-encodes through WriteJSONL and reads back equal. The seeds are a real
// smtsim -inject-report file (testdata/report.jsonl), each of its lines,
// and the reports the tests above build.
func FuzzReadJSONL(f *testing.F) {
	file, err := os.ReadFile(filepath.Join("testdata", "report.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	for _, line := range bytes.SplitAfter(file, []byte("\n")) {
		f.Add(line)
	}
	var tracker [avf.NumStructs]float64
	tracker[avf.IQ], tracker[avf.ROB] = 0.2, 0.5
	st := stats(map[avf.Struct][2]uint64{avf.IQ: {2000, 10000}, avf.ROB: {1000, 10000}})
	a := Build(Meta{Workload: "w", Policy: "ICOUNT", Seed: 3, Every: 1}, tracker, st)
	b := Build(Meta{Workload: "w", Seed: 4}, tracker, stats(map[avf.Struct][2]uint64{avf.IQ: {190, 1000}}))
	pooled, err := Pool([]*Report{a, b})
	if err != nil {
		f.Fatal(err)
	}
	for _, rep := range []*Report{a, b, pooled} {
		var buf bytes.Buffer
		if err := rep.WriteJSONL(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := (&Report{Entries: entries}).WriteJSONL(&buf); err != nil {
			t.Fatalf("re-encoding accepted entries: %v", err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded entries rejected: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(back, entries) {
			t.Fatalf("entries changed across the round trip:\n got %+v\nwant %+v", back, entries)
		}
	})
}
