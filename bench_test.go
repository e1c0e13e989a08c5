// Micro-benchmarks of the simulator with no twin in the repository
// benchmark (bench/): the ablations of DESIGN.md §9, the paper's §5
// sensitivity and extension studies, raw simulation speed, the sharded
// engine's speedup and what each observer costs when attached or
// detached. Each reports its headline quantities via b.ReportMetric.
// TestSimulatorAllocs bounds the raw-speed benchmark's allocations in
// tier 1. The paper's tables and figures are timed by bench/'s figures
// workload and checked by the TestFigure* and TestReportGolden tests of
// internal/experiments.
package smtavf_test

import (
	"runtime"
	"testing"

	"smtavf"
	"smtavf/internal/core"
	"smtavf/internal/experiments"
	"smtavf/internal/fetch"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

// dgPolicy builds a DG fetch policy with an explicit gating threshold.
func dgPolicy(threshold int) smtavf.Policy { return fetch.DG{Threshold: threshold} }

// benchBase is the 2-context instruction budget of these benchmarks (4-
// and 8-context runs use 2× and 4×).
const benchBase = 4_000

func newRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Base: benchBase, Seed: 1})
}

// --- Ablations (DESIGN.md §9) ---

func runAblation(tb testing.TB, threads int, benches []string, mutate func(*core.Config)) *smtavf.Results {
	tb.Helper()
	cfg := smtavf.DefaultConfig(threads)
	if mutate != nil {
		mutate(&cfg)
	}
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks(benches...))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sim.Run(uint64(benchBase) * uint64(threads) / 2)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

var ablationMix = []string{"gcc", "mcf", "vpr", "perlbmk"}

// BenchmarkAblationRegPool sweeps the shared register-pool size: a smaller
// pool throttles per-thread ROB utilization (the paper's §4.1 ROB effect).
func BenchmarkAblationRegPool(b *testing.B) {
	b.ReportAllocs()
	for _, pool := range []int{288, 448, 640} {
		pool := pool
		b.Run(string(rune('0'+pool/100))+"xx", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := runAblation(b, 4, ablationMix, func(c *core.Config) {
					c.IntPhysRegs, c.FPPhysRegs = pool, pool
				})
				b.ReportMetric(res.IPC(), "IPC")
				b.ReportMetric(100*res.StructAVF(smtavf.ROB), "ROB-AVF-%")
			}
		})
	}
}

// BenchmarkAblationIQPartition compares the fully shared IQ against static
// per-thread partitions (the paper's §5 reliability-aware resource
// allocation proposal).
func BenchmarkAblationIQPartition(b *testing.B) {
	b.ReportAllocs()
	for _, part := range []int{0, 24, 48} {
		part := part
		name := "shared"
		if part > 0 {
			name = map[int]string{24: "quarter", 48: "half"}[part]
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := runAblation(b, 4, ablationMix, func(c *core.Config) {
					c.IQPartition = part
				})
				b.ReportMetric(res.IPC(), "IPC")
				b.ReportMetric(100*res.StructAVF(smtavf.IQ), "IQ-AVF-%")
			}
		})
	}
}

// BenchmarkAblationDGThreshold sweeps the DG fetch-gating threshold.
func BenchmarkAblationDGThreshold(b *testing.B) {
	b.ReportAllocs()
	for _, th := range []int{0, 1, 2, 4} {
		th := th
		b.Run(string(rune('0'+th)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := runAblation(b, 4, ablationMix, func(c *core.Config) {
					c.Policy = dgPolicy(th)
				})
				b.ReportMetric(res.IPC(), "IPC")
				b.ReportMetric(100*res.StructAVF(smtavf.IQ), "IQ-AVF-%")
			}
		})
	}
}

// BenchmarkAblationStallPredict contrasts reactive STALL with the paper's
// proposed L2-miss-predictive STALLP.
func BenchmarkAblationStallPredict(b *testing.B) {
	b.ReportAllocs()
	for _, pol := range []string{"STALL", "STALLP"} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := runAblation(b, 4, ablationMix, func(c *core.Config) {
					if err := c.SetPolicy(pol); err != nil {
						b.Fatal(err)
					}
				})
				b.ReportMetric(res.IPC(), "IPC")
				b.ReportMetric(100*res.StructAVF(smtavf.IQ), "IQ-AVF-%")
			}
		})
	}
}

// BenchmarkSensitivity regenerates the §5 structure-size sweeps and
// reports how much absolute ACE exposure a 6x larger IQ buys.
func BenchmarkSensitivity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tables, err := r.Sensitivity()
		if err != nil {
			b.Fatal(err)
		}
		iq := tables[0]
		exp := iq.Row("ACE entries")
		b.ReportMetric(iq.Get(exp, len(iq.Cols)-1)/iq.Get(exp, 0), "IQ-exposure-growth-x")
	}
}

// BenchmarkExtensions regenerates the §5 proposal comparison (STALLP,
// VAware) and reports STALLP's IQ-AVF advantage over STALL on MIX.
func BenchmarkExtensions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newRunner()
		tb, err := r.Extensions()
		if err != nil {
			b.Fatal(err)
		}
		iq := tb.Row("IQ AVF")
		stall := tb.Get(iq, tb.Col("MIX/STALL"))
		if stall > 0 {
			b.ReportMetric(tb.Get(iq, tb.Col("MIX/STALLP"))/stall, "STALLP/STALL-IQ-AVF")
		}
	}
}

// BenchmarkSimulatorCycles measures raw simulation speed: simulated cycles
// per wall-clock second on a 4-context mixed workload.
func BenchmarkSimulatorCycles(b *testing.B) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res := runAblation(b, 4, ablationMix, nil)
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// simulatorAllocs is the allocation count of one BenchmarkSimulatorCycles
// op with compact cache lines (docs/performance.md, "Lean machine state"),
// and maxSimulatorAllocs allows 25% over it: 1,398.
const (
	simulatorAllocs    = 1_119
	maxSimulatorAllocs = simulatorAllocs * 5 / 4
)

// TestSimulatorAllocs runs BenchmarkSimulatorCycles' simulation and fails
// when it allocates more than 25% over the recorded count. The steady
// state allocates nothing per cycle, so creep here means the hot loop
// started allocating; unlike time, the count does not depend on the host.
func TestSimulatorAllocs(t *testing.T) {
	got := testing.AllocsPerRun(1, func() { runAblation(t, 4, ablationMix, nil) })
	t.Logf("allocs/op: %.0f (recorded %d, bound %d)", got, simulatorAllocs, maxSimulatorAllocs)
	if got > maxSimulatorAllocs {
		t.Errorf("BenchmarkSimulatorCycles' simulation allocates %.0f times, more than %d (%d recorded + 25%%)",
			got, maxSimulatorAllocs, simulatorAllocs)
	}
}

// BenchmarkShardSpeedup measures the parallel speedup of the sharded
// engine: the same 4-shard, 4-thread plan executed by a single worker vs
// one worker per core (GOMAXPROCS). Compare the two cycles/s metrics —
// their ratio is the speedup, which approaches min(shards, cores) on
// multi-core machines and sits near 1.0 on a single core (functional
// warmup re-runs each shard's prefix, so the serialized sharded run does
// strictly more work than the monolith; docs/sharding.md quantifies it).
func BenchmarkShardSpeedup(b *testing.B) {
	b.ReportAllocs()
	const perThread = 20_000
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			sim, err := smtavf.New(smtavf.DefaultConfig(4),
				smtavf.WithBenchmarks(ablationMix...),
				smtavf.WithShards(4, workers))
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.RunPerThread([]uint64{perThread, perThread, perThread, perThread})
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("workers-1", func(b *testing.B) { run(b, 1) })
	b.Run("workers-max", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkTelemetryOverhead measures the cost of the telemetry subsystem
// on the simulator hot path. "off" runs with no collector attached — the
// nil-receiver fast path, whose per-cycle cost is a handful of nil checks
// and must stay within 5% of BenchmarkSimulatorCycles. "on" attaches a
// collector with default 10k-cycle windows feeding the in-memory ring,
// showing what a live -telemetry/-debug-addr run pays.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, attach bool) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			opts := []smtavf.Option{smtavf.WithBenchmarks(ablationMix...)}
			if attach {
				opts = append(opts, smtavf.WithTelemetry(smtavf.NewTelemetry(smtavf.TelemetryOptions{})))
			}
			sim, err := smtavf.New(smtavf.DefaultConfig(4), opts...)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(uint64(benchBase) * 2)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// runSim builds a simulator from opts and runs the overhead benchmarks'
// budget.
func runSim(b *testing.B, cfg smtavf.Config, opts ...smtavf.Option) *smtavf.Results {
	sim, err := smtavf.New(cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(uint64(benchBase) * 2)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// runTypedNil runs ablationMix for the same budget on a processor built
// directly, with attach handing it a typed-nil observer. The With* options
// treat a nil observer as absent, so only this path attaches a typed-nil
// sink and exercises its nil-receiver no-op on the hot path; the Set*
// retire-observer setters attach nothing for nil.
func runTypedNil(b *testing.B, cfg core.Config, attach func(*core.Processor)) *core.Results {
	profiles := make([]trace.Profile, 0, len(ablationMix))
	for _, name := range ablationMix {
		p, err := workload.Profile(name)
		if err != nil {
			b.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	proc, err := core.New(cfg, profiles)
	if err != nil {
		b.Fatal(err)
	}
	attach(proc)
	res, err := proc.Run(core.Limits{TotalInstructions: uint64(benchBase) * 2})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkInjectOverhead measures the cost of a fault-injection
// campaign. "off" runs with no sink attached — the tracker's sink==nil
// fast path — and "nil" attaches a typed-nil *Campaign to a directly
// built processor, exercising the nil-receiver no-op on the hot path
// (the pipetrace convention); both must stay within 5% of
// BenchmarkSimulatorCycles. "on" attaches a dense every-cycle campaign and
// also runs the post-run strike phase, showing what a full -inject run
// pays.
func BenchmarkInjectOverhead(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, mode string) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			cfg := smtavf.DefaultConfig(4)
			opts := []smtavf.Option{smtavf.WithBenchmarks(ablationMix...)}
			var camp *smtavf.FaultCampaign
			if mode == "on" {
				var err error
				camp, err = smtavf.NewFaultCampaign(cfg, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				opts = append(opts, smtavf.WithFaultInjection(camp))
			}
			var res *smtavf.Results
			if mode == "nil" {
				res = runTypedNil(b, cfg, func(p *core.Processor) { p.AttachSink(camp) })
			} else {
				res = runSim(b, cfg, opts...)
			}
			if mode == "on" {
				camp.RunStrikes(res.Cycles, smtavf.StopWhen(0.02, 1<<20))
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("off", func(b *testing.B) { run(b, "off") })
	b.Run("nil", func(b *testing.B) { run(b, "nil") })
	b.Run("on", func(b *testing.B) { run(b, "on") })
}

// BenchmarkPipetraceOverhead measures the cost of the pipeline flight
// recorder. "off" runs with no recorder attached — the nil-receiver fast
// path at the commit/squash hooks, which must stay within 5% of
// BenchmarkSimulatorCycles. "on" attaches an unbounded recorder, showing
// what a full -pipetrace run pays (one Record per retired uop plus the
// provenance aggregation). "provenance" attaches a provenance-only
// recorder, what avfreport -provenance pays: its B/op stays near "off"
// instead of growing with the uop count.
func BenchmarkPipetraceOverhead(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, opt *smtavf.PipeTraceOptions) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			opts := []smtavf.Option{smtavf.WithBenchmarks(ablationMix...)}
			if opt != nil {
				opts = append(opts, smtavf.WithPipeTrace(smtavf.NewPipeTrace(*opt)))
			}
			sim, err := smtavf.New(smtavf.DefaultConfig(4), opts...)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(uint64(benchBase) * 2)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, &smtavf.PipeTraceOptions{}) })
	b.Run("provenance", func(b *testing.B) { run(b, &smtavf.PipeTraceOptions{ProvenanceOnly: true}) })
}

// BenchmarkPropagationOverhead measures the cost of the fault-propagation
// tracer. "off" runs with no tracer — an empty observer list at the
// commit/squash hooks — and "nil" hands a typed-nil *PropagationTracer to
// a directly built processor's SetPropagation, which attaches nothing;
// both must stay within noise of BenchmarkSimulatorCycles. "on" attaches a tracer, samples strikes into
// every structure, and runs the Analyze pass, showing what a full
// -propagation run pays.
func BenchmarkPropagationOverhead(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, mode string) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			cfg := smtavf.DefaultConfig(4)
			opts := []smtavf.Option{smtavf.WithBenchmarks(ablationMix...)}
			var (
				camp   *smtavf.FaultCampaign
				tracer *smtavf.PropagationTracer
			)
			if mode == "on" {
				var err error
				camp, err = smtavf.NewFaultCampaign(cfg, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				tracer = smtavf.NewPropagation(smtavf.PropagationOptions{})
				opts = append(opts, smtavf.WithFaultInjection(camp),
					smtavf.WithPropagation(tracer))
			}
			var res *smtavf.Results
			if mode == "nil" {
				res = runTypedNil(b, cfg, func(p *core.Processor) { p.SetPropagation(tracer) })
			} else {
				res = runSim(b, cfg, opts...)
			}
			if mode == "on" {
				var strikes []smtavf.InjectStrike
				for _, s := range smtavf.Structs() {
					strikes = append(strikes, camp.SampleStrikes(s, res.Cycles, 64)...)
				}
				if atlas := tracer.Analyze(strikes); atlas.Strikes != len(strikes) {
					b.Fatalf("atlas covers %d strikes, sampled %d", atlas.Strikes, len(strikes))
				}
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("off", func(b *testing.B) { run(b, "off") })
	b.Run("nil", func(b *testing.B) { run(b, "nil") })
	b.Run("on", func(b *testing.B) { run(b, "on") })
}

// BenchmarkCPIStackOverhead measures the cost of the explainability
// observer. "off" runs fully detached — SetCPIStack is never called, so
// the per-cycle attribution pass is skipped behind a single nil check
// and must stay within noise of BenchmarkSimulatorCycles. "on" attaches
// an observer with default 10k-cycle windows, showing what a full
// -cpistack run pays (one attribution pass per cycle plus windowed
// occupancy accounting per retired uop).
func BenchmarkCPIStackOverhead(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, attach bool) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			opts := []smtavf.Option{smtavf.WithBenchmarks(ablationMix...)}
			if attach {
				opts = append(opts, smtavf.WithCPIStack(smtavf.NewCPIStack(smtavf.CPIStackOptions{})))
			}
			sim, err := smtavf.New(smtavf.DefaultConfig(4), opts...)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(uint64(benchBase) * 2)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkObsOverhead measures the cost of the campaign-observability
// layer on the simulator hot path. "off" runs fully detached — the
// nil-receiver fast path every hot-loop handle pays. "on" attaches a
// full Observability (registry, progress tracker with heartbeats
// disabled) on both the monolithic and sharded paths; obs instruments
// are fed at campaign rate (windows, shards, phases), never per cycle,
// so both must stay within noise of the detached run.
func BenchmarkObsOverhead(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, shards int, attach bool) {
		b.ReportAllocs()
		var cycles uint64
		for i := 0; i < b.N; i++ {
			opts := []smtavf.Option{
				smtavf.WithBenchmarks(ablationMix...),
				smtavf.WithShards(shards, 0),
			}
			if attach {
				reg := smtavf.NewMetricsRegistry()
				opts = append(opts, smtavf.WithObservability(&smtavf.Observability{
					Registry: reg,
					Progress: smtavf.NewProgress(smtavf.ProgressOptions{Heartbeat: -1, Registry: reg}),
					Program:  "bench",
				}))
			}
			sim, err := smtavf.New(smtavf.DefaultConfig(4), opts...)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(uint64(benchBase) * 2)
			if err != nil {
				b.Fatal(err)
			}
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("mono-off", func(b *testing.B) { run(b, 1, false) })
	b.Run("mono-on", func(b *testing.B) { run(b, 1, true) })
	b.Run("sharded-off", func(b *testing.B) { run(b, 4, false) })
	b.Run("sharded-on", func(b *testing.B) { run(b, 4, true) })
}
