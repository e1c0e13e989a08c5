package smtavf_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smtavf"
)

func TestNewOptionErrors(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	camp, err := smtavf.NewFaultCampaign(cfg, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []smtavf.Option
		want string
	}{
		{"no workload", nil, "no workload"},
		{"two workloads", []smtavf.Option{
			smtavf.WithBenchmarks("gcc", "mcf"),
			smtavf.WithPhases([][]string{{"eon"}, {"gcc"}}, 1_000),
		}, "exactly one workload source"},
		{"missing trace file", []smtavf.Option{smtavf.WithTraceFiles("x.trc", "y.trc")}, "x.trc"},
		{"unknown benchmark", []smtavf.Option{smtavf.WithBenchmarks("bogus", "mcf")}, "bogus"},
		{"thread mismatch", []smtavf.Option{smtavf.WithBenchmarks("gcc")}, "threads"},
		{"zero phase period", []smtavf.Option{smtavf.WithPhases([][]string{{"eon"}, {"gcc"}}, 0)}, "period"},
		{"zero shards", []smtavf.Option{smtavf.WithBenchmarks("gcc", "mcf"), smtavf.WithShards(0, 1)}, "shard count"},
		{"telemetry with shards", []smtavf.Option{
			smtavf.WithBenchmarks("gcc", "mcf"),
			smtavf.WithShards(2, 2),
			smtavf.WithTelemetry(smtavf.NewTelemetry(smtavf.TelemetryOptions{})),
		}, "WithTelemetry"},
		{"pipetrace with shards", []smtavf.Option{
			smtavf.WithBenchmarks("gcc", "mcf"),
			smtavf.WithShards(2, 2),
			smtavf.WithPipeTrace(smtavf.NewPipeTrace(smtavf.PipeTraceOptions{})),
		}, "WithPipeTrace"},
		{"fault injection with shards", []smtavf.Option{
			smtavf.WithBenchmarks("gcc", "mcf"),
			smtavf.WithShards(2, 2),
			smtavf.WithFaultInjection(camp),
		}, "WithFaultInjection"},
		{"propagation with shards", []smtavf.Option{
			smtavf.WithBenchmarks("gcc", "mcf"),
			smtavf.WithShards(2, 2),
			smtavf.WithPropagation(smtavf.NewPropagation(smtavf.PropagationOptions{})),
		}, "WithPropagation"},
		{"cpistack with shards", []smtavf.Option{
			smtavf.WithBenchmarks("gcc", "mcf"),
			smtavf.WithShards(2, 2),
			smtavf.WithCPIStack(smtavf.NewCPIStack(smtavf.CPIStackOptions{})),
		}, "WithCPIStack"},
		{"short warmup window", []smtavf.Option{
			smtavf.WithBenchmarks("gcc", "mcf"),
			smtavf.WithShardWarmupWindow(512),
		}, "4096"},
		{"nil option", []smtavf.Option{nil}, "nil Option"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := smtavf.New(cfg, tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// A sharded simulator commits exact counts, stays within the documented
// AVF tolerance of the monolithic run, and records one checkpoint per
// shard.
func TestNewSharded(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	quotas := []uint64{12_000, 12_000}

	mono, err := smtavf.New(cfg, smtavf.WithBenchmarks("gcc", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.RunPerThread(quotas)
	if err != nil {
		t.Fatal(err)
	}

	sharded, err := smtavf.New(cfg,
		smtavf.WithBenchmarks("gcc", "mcf"),
		smtavf.WithShards(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.RunPerThread(quotas)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Committed, want.Committed) || got.Total != want.Total {
		t.Fatalf("sharded commits %v (total %d), monolithic %v (total %d)",
			got.Committed, got.Total, want.Committed, want.Total)
	}
	for _, s := range smtavf.Structs() {
		d := got.StructAVF(s) - want.StructAVF(s)
		if d < 0 {
			d = -d
		}
		if d > smtavf.ShardTolerance {
			t.Errorf("struct %v: sharded AVF %.4f vs monolithic %.4f (|Δ| %.4f > %.3f)",
				s, got.StructAVF(s), want.StructAVF(s), d, smtavf.ShardTolerance)
		}
	}
	if cps := sharded.Checkpoints(); len(cps) != 3 {
		t.Fatalf("%d checkpoints, want 3", len(cps))
	}
	if mono.Checkpoints() != nil {
		t.Fatal("monolithic simulator reports checkpoints")
	}
	if _, err := sharded.Run(1_000); err == nil || !strings.Contains(err.Error(), "single-shot") {
		t.Fatalf("second sharded Run: %v", err)
	}
}

// Run on a sharded simulator splits the total evenly.
func TestNewShardedRunSplitsEvenly(t *testing.T) {
	sim, err := smtavf.New(smtavf.DefaultConfig(2),
		smtavf.WithBenchmarks("gcc", "mcf"),
		smtavf.WithShards(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(10_001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed[0] != 5_001 || res.Committed[1] != 5_000 {
		t.Fatalf("committed %v, want [5001 5000]", res.Committed)
	}
}

// Options attach observers on the monolithic path.
func TestNewWithObservers(t *testing.T) {
	cfg := smtavf.DefaultConfig(1)
	tel := smtavf.NewTelemetry(smtavf.TelemetryOptions{WindowCycles: 1_000})
	camp, err := smtavf.NewFaultCampaign(cfg, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := smtavf.New(cfg,
		smtavf.WithBenchmarks("gcc"),
		smtavf.WithTelemetry(tel),
		smtavf.WithFaultInjection(camp))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(6_000)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Windows() == 0 {
		t.Error("telemetry collected no windows")
	}
	if camp.Samples(res.Cycles) == 0 {
		t.Error("campaign observed no samples")
	}
}

// TestWithObservability: the campaign-observability option attaches to
// both execution paths, appends one run manifest per run, drives the
// progress tracker, and yields the sharded utilization timeline.
func TestWithObservability(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	ledgerPath := filepath.Join(t.TempDir(), "runs.jsonl")
	ledger, err := smtavf.OpenRunLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	reg := smtavf.NewMetricsRegistry()
	prog := smtavf.NewProgress(smtavf.ProgressOptions{Heartbeat: -1, Registry: reg})
	o := &smtavf.Observability{Registry: reg, Progress: prog, Ledger: ledger, Program: "apitest"}

	// Monolithic run with telemetry: progress advances in committed
	// instructions via the collector.
	tel := smtavf.NewTelemetry(smtavf.TelemetryOptions{WindowCycles: 1000, Registry: reg})
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("gcc", "mcf"),
		smtavf.WithTelemetry(tel), smtavf.WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(8_000)
	if err != nil {
		t.Fatal(err)
	}
	if snap := prog.Snapshot(); snap.Phase != "run" || snap.Done == 0 {
		t.Fatalf("monolithic progress = %+v", snap)
	}
	if tl := sim.Timeline(); tl != nil {
		t.Fatalf("monolithic simulator has a timeline: %v", tl)
	}

	// Sharded run with the same Observability (valid, unlike the
	// pipeline observers).
	sim2, err := smtavf.New(cfg, smtavf.WithBenchmarks("gcc", "mcf"),
		smtavf.WithShards(2, 2), smtavf.WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim2.Run(8_000)
	if err != nil {
		t.Fatal(err)
	}
	if snap := prog.Snapshot(); snap.Phase != "shards" || snap.Done != 2 {
		t.Fatalf("sharded progress = %+v", snap)
	}
	if tl := sim2.Timeline(); len(tl) == 0 {
		t.Fatal("sharded simulator recorded no timeline")
	} else {
		var b strings.Builder
		if err := smtavf.WriteTimeline(&b, tl); err != nil {
			t.Fatal(err)
		}
	}

	// Two manifests in the ledger, in run order, fully attributed.
	ms, err := smtavf.ReadRunLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("ledger has %d records, want 2", len(ms))
	}
	for i, m := range ms {
		if m.Kind != "run" || m.Program != "apitest" || m.Status != "ok" {
			t.Errorf("manifest %d header = %+v", i, m)
		}
		if m.ConfigDigest == "" || m.Policy != "ICOUNT" {
			t.Errorf("manifest %d provenance = %+v", i, m)
		}
		if len(m.Workloads) != 2 || m.Workloads[0] != "gcc" {
			t.Errorf("manifest %d workloads = %v", i, m.Workloads)
		}
	}
	if ms[0].Shards != 1 || ms[0].Cycles != res.Cycles {
		t.Errorf("monolithic manifest = %+v", ms[0])
	}
	if ms[1].Shards != 2 || ms[1].Cycles != res2.Cycles {
		t.Errorf("sharded manifest = %+v", ms[1])
	}
	if ms[0].Instructions != res.Total || ms[1].Instructions != res2.Total {
		t.Errorf("manifest instruction counts: %d/%d want %d/%d",
			ms[0].Instructions, ms[1].Instructions, res.Total, res2.Total)
	}
}

// TestObservabilityIsInert: attaching WithObservability must not change
// the simulated results on either path.
func TestObservabilityIsInert(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	runWith := func(opts ...smtavf.Option) *smtavf.Results {
		t.Helper()
		sim, err := smtavf.New(cfg, append([]smtavf.Option{smtavf.WithBenchmarks("gcc", "mcf")}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(8_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	o := &smtavf.Observability{
		Registry: smtavf.NewMetricsRegistry(),
		Progress: smtavf.NewProgress(smtavf.ProgressOptions{Heartbeat: -1}),
	}
	if !reflect.DeepEqual(runWith(), runWith(smtavf.WithObservability(o))) {
		t.Fatal("observability perturbed a monolithic run")
	}
	if !reflect.DeepEqual(
		runWith(smtavf.WithShards(2, 2)),
		runWith(smtavf.WithShards(2, 2), smtavf.WithObservability(o))) {
		t.Fatal("observability perturbed a sharded run")
	}
}
