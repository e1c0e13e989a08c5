package propagation_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/inject"
	"smtavf/internal/propagation"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runAtlas drives one deterministic simulation with a campaign and tracer
// attached, samples strikesPer strikes into every structure, and analyzes.
func runAtlas(t *testing.T, benches []string, total uint64, every, seed uint64,
	strikesPer int, opt propagation.Options) (*propagation.Atlas, []inject.Strike) {
	t.Helper()
	tracer, camp, res := record(t, benches, total, every, seed, opt)
	var strikes []inject.Strike
	for _, s := range avf.Structs() {
		strikes = append(strikes, camp.SampleStrikes(s, res.Cycles, strikesPer)...)
	}
	return tracer.Analyze(strikes), strikes
}

// record drives one deterministic simulation with a campaign and tracer
// attached.
func record(t *testing.T, benches []string, total uint64, every, seed uint64,
	opt propagation.Options) (*propagation.Tracer, *inject.Campaign, *core.Results) {
	t.Helper()
	cfg := core.DefaultConfig(len(benches))
	cfg.Seed = seed
	profiles := make([]trace.Profile, 0, len(benches))
	for _, b := range benches {
		p, err := workload.Profile(b)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	camp, err := inject.NewCampaign(core.StructBits(cfg), every, seed)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := core.New(cfg, profiles)
	if err != nil {
		t.Fatal(err)
	}
	proc.AttachSink(camp)
	tracer := propagation.New(opt)
	proc.SetPropagation(tracer)
	res, err := proc.Run(core.Limits{TotalInstructions: total})
	if err != nil {
		t.Fatal(err)
	}
	if tracer.Len() == 0 {
		t.Fatal("tracer recorded no nodes")
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d nodes below the cap", tracer.Dropped())
	}
	return tracer, camp, res
}

// TestConsumersMatchLinearScan checks the binary-searched register
// consumer lookup against the linear scan for every writer of a recorded
// two-thread run.
func TestConsumersMatchLinearScan(t *testing.T) {
	tracer, _, _ := record(t, []string{"mcf", "gcc"}, 20_000, 2, 7, propagation.Options{})
	writers, err := tracer.CheckConsumers()
	if err != nil {
		t.Fatal(err)
	}
	if writers == 0 {
		t.Fatal("no register writers recorded")
	}
}

// TestAtlasEndToEnd runs a two-thread workload and checks the atlas
// surfaces every acceptance property: resolved victims, multi-hop
// propagation over every modeled edge type, and — the SMT-specific result
// — cross-thread contamination through the shared DL1 (a nonzero
// off-diagonal contamination-matrix entry).
func TestAtlasEndToEnd(t *testing.T) {
	atlas, strikes := runAtlas(t, []string{"mcf", "gcc"}, 20_000, 2, 7, 64,
		propagation.Options{})
	if atlas.Strikes != len(strikes) {
		t.Fatalf("atlas covers %d strikes, sampled %d", atlas.Strikes, len(strikes))
	}
	if atlas.Resolved == 0 {
		t.Fatal("no strike resolved a victim")
	}
	sum := 0
	for _, n := range atlas.Terminals {
		sum += n
	}
	if sum != atlas.Strikes {
		t.Fatalf("terminal counts sum to %d, want %d", sum, atlas.Strikes)
	}
	if atlas.Terminals[propagation.TerminalSDC] == 0 {
		t.Error("no trace terminated in SDC")
	}
	for _, typ := range []string{propagation.EdgeReg, propagation.EdgeMemory} {
		if atlas.EdgeCounts[typ] == 0 {
			t.Errorf("no %s edges traversed", typ)
		}
	}
	if atlas.MaxDepth < 2 {
		t.Errorf("max depth %d, want multi-hop propagation", atlas.MaxDepth)
	}
	// The SMT headline: corruption crossing the thread boundary through
	// the shared DL1 must appear off the matrix diagonal.
	if atlas.CrossEdges() == 0 {
		t.Fatal("no cross-thread contamination recorded")
	}
	off := false
	for i := range atlas.Matrix {
		for j := range atlas.Matrix[i] {
			if i != j && atlas.Matrix[i][j] > 0 {
				off = true
			}
		}
	}
	if !off {
		t.Fatal("contamination matrix has no nonzero off-diagonal entry")
	}

	tables := atlas.Tables(10)
	for _, want := range []string{"fault-propagation atlas", "root causes",
		"contamination matrix", "escape routes"} {
		if !bytes.Contains([]byte(tables), []byte(want)) {
			t.Errorf("Tables output missing %q", want)
		}
	}
}

// TestTraceJSONLRoundTrip checks traces survive serialization bit-exactly
// and that re-aggregating the decoded traces reproduces the matrix.
func TestTraceJSONLRoundTrip(t *testing.T) {
	atlas, _ := runAtlas(t, []string{"mcf", "gcc"}, 12_000, 3, 11, 24,
		propagation.Options{MaxRecordedHops: 8})
	var buf bytes.Buffer
	if err := propagation.WriteJSONL(&buf, atlas.Traces); err != nil {
		t.Fatal(err)
	}
	back, err := propagation.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(atlas.Traces) {
		t.Fatalf("read %d traces, wrote %d", len(back), len(atlas.Traces))
	}
	for i := range back {
		if !reflect.DeepEqual(back[i], atlas.Traces[i]) {
			t.Fatalf("trace %d changed across the round trip:\n got %+v\nwant %+v",
				i, back[i], atlas.Traces[i])
		}
	}
	rebuilt := propagation.NewAtlas(2)
	for _, tr := range back {
		rebuilt.Add(tr)
	}
	if !reflect.DeepEqual(rebuilt.Matrix, atlas.Matrix) {
		t.Fatalf("matrix rebuilt from JSONL = %v, want %v", rebuilt.Matrix, atlas.Matrix)
	}
}

// TestGoldenJSONL pins the serialized atlas of a small deterministic run:
// the same seed must produce byte-identical traces across releases, and
// the golden file itself must parse under the current schema version.
func TestGoldenJSONL(t *testing.T) {
	atlas, _ := runAtlas(t, []string{"mcf", "gcc"}, 8_000, 4, 13, 8,
		propagation.Options{MaxRecordedHops: 8})
	var buf bytes.Buffer
	if err := propagation.WriteJSONL(&buf, atlas.Traces); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "atlas.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("atlas JSONL drifted from %s (rerun with -update if intended);\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
	traces, err := propagation.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for i := range traces {
		if traces[i].V != propagation.SchemaVersion {
			t.Fatalf("golden trace %d carries schema v%d, want v%d",
				i, traces[i].V, propagation.SchemaVersion)
		}
	}
}

// TestDetachedTracerNoOps pins the nil-receiver convention the hot path
// relies on.
func TestDetachedTracerNoOps(t *testing.T) {
	var tr *propagation.Tracer
	tr.Record(nil, 0, false)
	tr.Rebase(5)
	tr.Configure(core.DefaultConfig(1).Bits, core.DefaultConfig(1).DL1, 1)
	tr.PublishTelemetry(nil)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("detached tracer reports state")
	}
}

// TestMaskedAndProtectedStrikes checks the terminal taxonomy: masked
// strikes carry no victim, and parity/ECC outcomes cut propagation at hop
// zero even when the victim resolves.
func TestMaskedAndProtectedStrikes(t *testing.T) {
	atlas, strikes := runAtlas(t, []string{"mcf"}, 6_000, 4, 3, 16,
		propagation.Options{})
	for i, tr := range atlas.Traces {
		st := strikes[i]
		switch st.Outcome {
		case inject.Masked:
			if tr.Resolved || tr.Terminal != propagation.TerminalMasked || tr.Tainted != 0 {
				t.Fatalf("masked strike %d traced: %+v", i, tr)
			}
		case inject.SDC:
			if tr.Resolved && tr.Tainted == 0 {
				t.Fatalf("resolved SDC strike %d tainted nothing: %+v", i, tr)
			}
		}
		if tr.TID != st.TID || tr.Cycle != st.Cycle || tr.Struct != st.Struct.String() {
			t.Fatalf("trace %d does not mirror its strike: %+v vs %+v", i, tr, st)
		}
	}
}
