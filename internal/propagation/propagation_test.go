package propagation_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// TestConsumersMatchLinearScan checks the precomputed register consumer
// ranges against the linear scan for every writer of a recorded two-thread
// run.
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

// TestAnalyzeMatchesReference requires the interval index to find the
// windows a scan finds, and the indexed analysis to trace every strike
// into every structure exactly as the linear-scan, map-based reference
// does, on 1-, 2- and 4-thread runs, under the default bounds and under
// bounds tight enough to truncate expansions.
func TestAnalyzeMatchesReference(t *testing.T) {
	tight := propagation.Options{MaxNodes: 64, MaxHops: 3, MaxRecordedHops: 4}
	for _, benches := range [][]string{
		{"gcc"},
		{"mcf", "gcc"},
		{"gcc", "mcf", "vpr", "perlbmk"},
	} {
		tracer, camp, res := record(t, benches, 20_000, 2, 5, propagation.Options{})
		if err := tracer.CheckCover(); err != nil {
			t.Fatalf("%d threads: %v", len(benches), err)
		}
		var strikes []inject.Strike
		for _, s := range avf.Structs() {
			strikes = append(strikes, camp.SampleStrikes(s, res.Cycles, 64)...)
		}
		for _, opt := range []propagation.Options{{}, tight} {
			traces, err := tracer.CheckAnalyze(strikes, opt)
			if err != nil {
				t.Fatalf("%d threads, %+v: %v", len(benches), opt, err)
			}
			// The comparison must reach every path it guards: register
			// victims, DL1 seeds, cross-thread edges, and truncation.
			var reg, dl1, cross, truncated bool
			for _, tr := range traces {
				reg = reg || tr.Resolved && tr.Struct == avf.Reg.String()
				dl1 = dl1 || tr.Resolved && tr.Struct == avf.DL1Data.String() && tr.Tainted > 1
				cross = cross || tr.CrossThread > 0
				truncated = truncated || tr.Truncated
			}
			if !reg || !dl1 || cross != (len(benches) > 1) || opt == tight && !truncated {
				t.Fatalf("%d threads, %+v: resolved reg %v, expanded dl1 %v, cross-thread %v, truncated %v",
					len(benches), opt, reg, dl1, cross, truncated)
			}
		}
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
	tr.Record(nil, 0, 0, false)
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

// TestReadJSONLRejectsMalformed checks the reader refuses every trace
// Analyze cannot have written and Atlas.Add could not fold safely, and
// still accepts a well-formed one.
func TestReadJSONLRejectsMalformed(t *testing.T) {
	const ok = `{"v":1,"struct":"IQ","terminal":"sdc","depth":2,"tainted":3,` +
		`"edges":{"reg":1,"cross_thread":1},"pairs":{"0>0":1,"0>1":1},` +
		`"hops":[{"hop":1,"type":"reg"},{"hop":2,"type":"cross_thread","to_tid":1}]}`
	if _, err := propagation.ReadJSONL(strings.NewReader(ok + "\n")); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	for name, line := range map[string]string{
		"hop below one":         `{"v":1,"struct":"IQ","terminal":"sdc","hops":[{"hop":-1,"type":"reg"}]}`,
		"pair thread id 20000":  `{"v":1,"struct":"IQ","terminal":"sdc","pairs":{"20000>0":1}}`,
		"hop above depth":       `{"v":1,"depth":1,"hops":[{"hop":1,"type":"reg"},{"hop":2,"type":"reg"}]}`,
		"hop skips a level":     `{"v":1,"depth":3,"hops":[{"hop":1,"type":"reg"},{"hop":3,"type":"reg"}]}`,
		"unknown edge type":     `{"v":1,"edges":{"wire":1}}`,
		"unknown hop type":      `{"v":1,"depth":1,"hops":[{"hop":1,"type":"wire"}]}`,
		"pair key without >":    `{"v":1,"pairs":{"0-1":1}}`,
		"pair key not decimal":  `{"v":1,"pairs":{"01>1":1}}`,
		"pair thread id 1024":   `{"v":1,"pairs":{"0>1024":1}}`,
		"negative edge count":   `{"v":1,"edges":{"reg":-1}}`,
		"negative pair count":   `{"v":1,"pairs":{"0>1":-1}}`,
		"negative tainted":      `{"v":1,"tainted":-1}`,
		"hop thread id 1024":    `{"v":1,"depth":1,"hops":[{"hop":1,"type":"reg","from_tid":1024}]}`,
		"negative hop thread":   `{"v":1,"depth":1,"hops":[{"hop":1,"type":"reg","to_tid":-1}]}`,
		"newer schema version":  `{"v":2}`,
		"second line malformed": ok + "\n" + `{"v":1,"edges":{"reg":-1}}`,
	} {
		if _, err := propagation.ReadJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: accepted %s", name, line)
		}
	}
}

// FuzzReadJSONL: whatever ReadJSONL accepts folds into an atlas and renders
// without panicking, and re-encodes to traces it accepts again.
func FuzzReadJSONL(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "atlas.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := propagation.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		atlas := propagation.NewAtlas(2)
		for _, tr := range traces {
			atlas.Add(tr)
		}
		atlas.Tables(10)
		var buf bytes.Buffer
		if err := propagation.WriteJSONL(&buf, traces); err != nil {
			t.Fatalf("re-encoding accepted traces: %v", err)
		}
		if _, err := propagation.ReadJSONL(&buf); err != nil {
			t.Fatalf("re-encoded traces rejected: %v\n%s", err, buf.Bytes())
		}
	})
}
