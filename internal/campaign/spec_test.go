package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/inject"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"mix", Spec{Mix: "2ctx-CPU-A"}, true},
		{"benchmarks", Spec{Benchmarks: []string{"gcc", "mcf"}}, true},
		{"no source", Spec{}, false},
		{"two sources", Spec{Mix: "2ctx-CPU-A", Benchmarks: []string{"gcc"}}, false},
		{"bad version", Spec{V: 99, Mix: "2ctx-CPU-A"}, false},
		{"two kinds", Spec{Mix: "2ctx-CPU-A", CrossVal: &CrossValSpec{}, Explain: &ExplainSpec{}}, false},
		{"trace explain", Spec{TraceFiles: []string{"a.trace"}, Explain: &ExplainSpec{}}, false},
		{"bad protection struct", Spec{Mix: "2ctx-CPU-A", Protection: map[string]string{"Bogus": "ecc"}}, false},
		{"bad protection mode", Spec{Mix: "2ctx-CPU-A", Protection: map[string]string{"IQ": "raid"}}, false},
		{"good protection", Spec{Mix: "2ctx-CPU-A", Protection: map[string]string{"IQ": "ecc", "ROB": "parity"}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestSpecKind(t *testing.T) {
	if k := (Spec{Mix: "2ctx-CPU-A"}).Kind(); k != KindRun {
		t.Fatalf("plain spec kind = %s", k)
	}
	if k := (Spec{Mix: "2ctx-CPU-A", CrossVal: &CrossValSpec{}}).Kind(); k != KindCrossVal {
		t.Fatalf("crossval spec kind = %s", k)
	}
	if k := (Spec{Mix: "2ctx-CPU-A", Propagation: &PropagationSpec{}}).Kind(); k != KindPropagation {
		t.Fatalf("propagation spec kind = %s", k)
	}
	if k := (Spec{Mix: "2ctx-CPU-A", Explain: &ExplainSpec{}}).Kind(); k != KindExplain {
		t.Fatalf("explain spec kind = %s", k)
	}
}

func TestSpecResolveDefaults(t *testing.T) {
	spec := Spec{Mix: "2ctx-CPU-A"}
	rv, err := spec.Resolve(Defaults{Seed: 7, Warmup: 1000, Budget: func(n int) uint64 { return uint64(n) * 10 }})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Config.Seed != 7 {
		t.Errorf("seed = %d, want the default 7", rv.Config.Seed)
	}
	if rv.Config.Warmup != 1000 {
		t.Errorf("warmup = %d, want the default 1000", rv.Config.Warmup)
	}
	if rv.Quota != uint64(rv.Threads)*10 {
		t.Errorf("quota = %d, want the budget rule's %d", rv.Quota, rv.Threads*10)
	}
	if rv.Every != 1 || rv.CampaignSeed != 7 {
		t.Errorf("campaign knobs = (%d, %d), want (1, 7)", rv.Every, rv.CampaignSeed)
	}
	if !reflect.DeepEqual(rv.Seeds, []uint64{1}) {
		t.Errorf("seeds = %v, want [1]", rv.Seeds)
	}
	if len(rv.Profiles) != rv.Threads || rv.Threads != rv.Config.Threads {
		t.Errorf("profiles/threads mismatch: %d profiles, %d threads, cfg %d",
			len(rv.Profiles), rv.Threads, rv.Config.Threads)
	}
}

func TestSpecResolveOverrides(t *testing.T) {
	spec := Spec{
		Mix:           "2ctx-CPU-A",
		Policy:        "STALL",
		Seed:          11,
		Instructions:  5000,
		NoWarmup:      true,
		PhaseInterval: 256,
		Protection:    map[string]string{"IQ": "ecc"},
		Inject:        &InjectSpec{Every: 16, Seed: 99, Stop: inject.Stop{MaxStrikes: 5}},
		CrossVal:      &CrossValSpec{Seeds: []uint64{3, 4}},
	}
	rv, err := spec.Resolve(Defaults{Seed: 7, Warmup: 1000, Budget: func(int) uint64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Config.Seed != 11 || rv.Config.Warmup != 0 || rv.Config.PhaseInterval != 256 {
		t.Errorf("cfg (seed, warmup, phase) = (%d, %d, %d), want (11, 0, 256)",
			rv.Config.Seed, rv.Config.Warmup, rv.Config.PhaseInterval)
	}
	if rv.Config.Policy == nil || rv.Config.Policy.Name() != "STALL" {
		t.Errorf("policy = %v, want STALL", rv.Config.Policy)
	}
	if rv.Quota != 5000 || rv.Every != 16 || rv.CampaignSeed != 99 || rv.Stop.MaxStrikes != 5 {
		t.Errorf("quota/every/seed/stop = %d/%d/%d/%d", rv.Quota, rv.Every, rv.CampaignSeed, rv.Stop.MaxStrikes)
	}
	if !reflect.DeepEqual(rv.Seeds, []uint64{3, 4}) {
		t.Errorf("seeds = %v", rv.Seeds)
	}
	if rv.Protection[avf.IQ] != core.ProtectECC || rv.Protection[avf.ROB] != core.ProtectNone {
		t.Errorf("protection = %v", rv.Protection)
	}
}

func TestSpecResolveMachineOverride(t *testing.T) {
	machine := core.DefaultConfig(2)
	machine.IQSize = 16
	machine.Threads = 99 // must be forced back to the workload's count
	spec := Spec{Benchmarks: []string{"gcc", "mcf"}, Machine: &machine}
	rv, err := spec.Resolve(Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Config.IQSize != 16 {
		t.Errorf("machine override lost: IQSize = %d", rv.Config.IQSize)
	}
	if rv.Config.Threads != 2 {
		t.Errorf("threads = %d, want the workload's 2", rv.Config.Threads)
	}
	if rv.Config.Seed != 1 {
		t.Errorf("seed = %d, want the final fallback 1", rv.Config.Seed)
	}
}

func TestProtectionRoundTrip(t *testing.T) {
	got, err := ParseProtection(map[string]string{"IQ": "ecc", "DL1_data": "parity", "ROB": "none"})
	if err != nil {
		t.Fatal(err)
	}
	var want core.ProtectionModes
	want[avf.IQ] = core.ProtectECC
	want[avf.DL1Data] = core.ProtectParity
	if got != want {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if p, err := ParseProtection(nil); err != nil || p != (core.ProtectionModes{}) {
		t.Fatalf("nil map parsed to %v, %v; want all silent", p, err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Mix:        "2ctx-CPU-A",
		Policy:     "FLUSH",
		Seed:       3,
		Protection: map[string]string{"IQ": "ecc"},
		Inject:     &InjectSpec{Every: 8, Stop: inject.Stop{MaxStrikes: 100}},
	}
	data, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec.V = SpecVersion
	if len(back) != 1 || !reflect.DeepEqual(back[0], spec) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
	}
}

// invalidSpecDocs are spec files ReadFile must refuse.
var invalidSpecDocs = []string{
	`{"v":1}`,
	// A misspelt field used to run at the flag default budget.
	`{"v":1,"mix":"2ctx-CPU-A","instuctions":5000}`,
	// Decoding reaches inside the machine override too.
	`{"v":1,"mix":"2ctx-CPU-A","machine":{"IQPartiton":8}}`,
	`{"base":{"mix":"2ctx-CPU-A"},"polices":["FLUSH"]}`,
	// Unknown fetch policies, in a spec and in a matrix's policies axis.
	`{"base":{"mix":"2ctx-MIX-A","policy":"BOGUS"}}`,
	`{"base":{"mix":"2ctx-MIX-A","explain":{"policies":["ICOUNT","BOGUS"]}}}`,
	`{"v":1,"mix":"2ctx-MIX-A","policy":"BOGUS"}`,
	`{"v":1,"mix":"2ctx-MIX-A","explain":{"policies":["ICOUNT","BOGUS"]}}`,
	`{"base":{"mix":"2ctx-MIX-A"},"policies":["ICOUNT","BOGUS"]}`,
	// Unknown mixes and benchmarks, in a spec, a base and a mixes axis.
	`{"v":1,"mix":"nope"}`,
	`{"v":1,"benchmarks":["gcc","nope"]}`,
	`{"base":{"mix":"nope"}}`,
	`{"base":{"benchmarks":["gcc","nope"]}}`,
	`{"base":{"mix":"2ctx-CPU-A"},"mixes":["2ctx-CPU-A","4ctx-NOPE-Z"]}`,
	// Machines core.Config.Validate refuses: an override and a patch.
	`{"v":1,"mix":"2ctx-CPU-A","machine":{"IQSize":0}}`,
	`{"base":{"mix":"2ctx-CPU-A"},"machines":[{"IQSize":0}]}`,
	// Stopping rules out of range; each once ran as something else.
	`{"v":1,"mix":"2ctx-CPU-A","inject":{"stop":{"confidence":1.5}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","inject":{"stop":{"confidence":-0.5}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","inject":{"stop":{"half_width":-0.02}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","inject":{"stop":{"half_width":1}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","inject":{"stop":{"max_strikes":-1}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","inject":{"stop":{"batch":-1}}}`,
	`{"base":{"mix":"2ctx-CPU-A","crossval":{},"inject":{"stop":{"confidence":1.5}}}}`,
	// Negative propagation bounds once ran with the default in their place.
	`{"v":1,"mix":"2ctx-CPU-A","propagation":{"strikes":4,"options":{"cap":-7}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","propagation":{"strikes":4,"options":{"max_hops":-5}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","propagation":{"strikes":4,"options":{"max_nodes":-1}}}`,
	`{"v":1,"mix":"2ctx-CPU-A","propagation":{"strikes":4,"options":{"max_recorded_hops":-2}}}`,
	`{"base":{"mix":"2ctx-CPU-A","propagation":{"options":{"max_hops":-5}}}}`,
	// The retired sharded engine's fields: a spec file asking for a
	// sharded run is refused, not run monolithic.
	`{"v":1,"mix":"4ctx-MIX-A","instructions":8000,"shards":4,"shard_workers":2,"shard_warmup_window":4096}`,
	`{"v":1,"mix":"4ctx-MIX-A","shards":1}`,
	`{"base":{"mix":"4ctx-MIX-A","shard_workers":2}}`,
	`{"base":{"mix":"4ctx-MIX-A","shard_warmup_window":4096}}`,
	// The retired explain window: the observer's series is the telemetry
	// window's now.
	`{"v":1,"benchmarks":["mcf","gcc"],"explain":{"policies":["ICOUNT","FLUSH"],"window":5000}}`,
}

func TestReadSpecFileRejectsInvalid(t *testing.T) {
	for _, doc := range invalidSpecDocs {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("%s loaded without error", doc)
		}
	}
}

func TestReadFileMatrix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	doc := `{"base":{"benchmarks":["gcc","mcf"],"instructions":2000},"policies":["ICOUNT","FLUSH"],"machines":[{"IQSize":48},{"IQSize":192}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	points, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range points {
		names = append(names, p.Name)
	}
	want := []string{"ICOUNT/machine0", "ICOUNT/machine1", "FLUSH/machine0", "FLUSH/machine1"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("points %v, want %v", names, want)
	}
}

func TestSpecOmitsZeroFields(t *testing.T) {
	data, err := json.Marshal(Spec{V: SpecVersion, Mix: "2ctx-CPU-A"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"mix":"2ctx-CPU-A"}`
	if string(data) != want {
		t.Fatalf("minimal spec marshals to %s, want %s", data, want)
	}
}

// FuzzReadFile feeds arbitrary bytes to ReadFile as a spec file. It must
// not panic; every point it accepts must resolve; and each point must
// survive MarshalIndent -> ReadFile -> MarshalIndent byte for byte (bytes,
// not reflect.DeepEqual: an empty protection map reads back as nil).
func FuzzReadFile(f *testing.F) {
	for _, doc := range []string{
		// The CI sweep matrix.
		`{"base": {"benchmarks": ["gcc", "mcf"], "instructions": 20000, "warmup": 10000},
		  "policies": ["ICOUNT", "FLUSH"], "machines": [{"IQSize": 48}, {"IQSize": 192}]}`,
		// One spec of each kind, and a trace replay.
		`{"v":1,"mix":"2ctx-CPU-A","policy":"STALL","seed":3,"instructions":5000,"warmup":1000}`,
		`{"v":1,"benchmarks":["gcc","twolf"],"protection":{"IQ":"ecc","ROB":"parity"},
		  "inject":{"every":4,"seed":9,"stop":{"half_width":0.02,"max_strikes":500,"confidence":0.95,"batch":64}}}`,
		`{"v":1,"mix":"2ctx-MIX-A","crossval":{"seeds":[1,2,3]},"inject":{"stop":{"half_width":0.05}}}`,
		`{"v":1,"mix":"2ctx-MEM-A","propagation":{"strikes":8,"options":{"max_hops":4}}}`,
		`{"v":1,"mix":"2ctx-MEM-A","propagation":{"strikes":8,"options":{"cap":4096,"max_hops":4,"max_nodes":64,"max_recorded_hops":8}}}`,
		`{"v":1,"benchmarks":["mcf","gcc"],"explain":{"policies":["ICOUNT","FLUSH"]}}`,
		`{"v":1,"trace_files":["a.trc","b.trc"],"no_warmup":true,"phase_interval":256}`,
	} {
		f.Add(doc)
	}
	for _, doc := range badSubmissions {
		f.Add(doc)
	}
	for _, doc := range invalidSpecDocs {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		points, err := ReadFile(path)
		if err != nil {
			return
		}
		for i, p := range points {
			if _, err := p.Resolve(Defaults{}); err != nil {
				t.Fatalf("point %d was accepted but does not resolve: %v", i, err)
			}
			if pr := p.Propagation; pr != nil {
				if o := pr.Options; o.Cap < 0 || o.MaxHops < 0 || o.MaxNodes < 0 || o.MaxRecordedHops < 0 {
					t.Fatalf("point %d was accepted with negative propagation options %+v", i, o)
				}
			}
			first, err := p.MarshalIndent()
			if err != nil {
				t.Fatalf("point %d: %v", i, err)
			}
			if err := os.WriteFile(path, first, 0o644); err != nil {
				t.Fatal(err)
			}
			back, err := ReadFile(path)
			if err != nil || len(back) != 1 {
				t.Fatalf("point %d does not read back as one spec (%d points): %v\n%s", i, len(back), err, first)
			}
			second, err := back[0].MarshalIndent()
			if err != nil {
				t.Fatalf("point %d read back: %v", i, err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("point %d changed in a round trip:\n%s\nread back as\n%s", i, first, second)
			}
		}
	})
}
