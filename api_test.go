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

// Options attach observers to the run.
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

// TestWithObservability: the campaign-observability option appends one
// run manifest per run and drives the progress tracker under both stop
// rules.
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

	// A run with telemetry: progress advances in committed instructions
	// via the collector.
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
		t.Fatalf("progress = %+v", snap)
	}

	// A per-thread run with the same Observability: its phase totals the
	// quotas.
	sim2, err := smtavf.New(cfg, smtavf.WithBenchmarks("gcc", "mcf"), smtavf.WithObservability(o))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sim2.RunPerThread([]uint64{3_000, 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if snap := prog.Snapshot(); snap.Phase != "run" || snap.Total != 8_000 {
		t.Fatalf("per-thread progress = %+v", snap)
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
	if ms[0].Cycles != res.Cycles || ms[1].Cycles != res2.Cycles {
		t.Errorf("manifest cycles: %d/%d want %d/%d", ms[0].Cycles, ms[1].Cycles, res.Cycles, res2.Cycles)
	}
	if ms[0].Instructions != res.Total || ms[1].Instructions != res2.Total {
		t.Errorf("manifest instruction counts: %d/%d want %d/%d",
			ms[0].Instructions, ms[1].Instructions, res.Total, res2.Total)
	}
}

// TestObservabilityIsInert: attaching WithObservability must not change
// the simulated results.
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
		t.Fatal("observability perturbed a run")
	}
}
