package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smtavf/internal/campaign"
	"smtavf/internal/core"
)

// traceRun collects one traced rep: the spans, plus the counts the layers
// report at the same boundaries.
type traceRun struct {
	tr *tracer

	mu        sync.Mutex
	layers    map[string]metric
	instr     uint64    // committed instructions, warmup included, of the simulation spans
	cycles    uint64    // measured cycles of the simulation spans
	newMS     []float64 // core.New durations
	untracedS float64   // wall of the untraced reference rep
	tracedS   float64   // wall of the traced rep; 0: the sum of its root spans
	calibMS   float64
}

func newTraceRun() *traceRun {
	return &traceRun{tr: newTracer(), layers: map[string]metric{}}
}

func (t *traceRun) set(name string, v float64, unit string) {
	t.mu.Lock()
	t.layers[name] = metric{Value: v, Unit: unit}
	t.mu.Unlock()
}

// add sums v into a layer metric, for an op a workload runs more than once.
func (t *traceRun) add(name string, v float64, unit string) {
	t.mu.Lock()
	t.layers[name] = metric{Value: t.layers[name].Value + v, Unit: unit}
	t.mu.Unlock()
}

// count adds a finished simulation's committed instructions, warmup
// included, and its measured cycles.
func (t *traceRun) count(res *core.Results, warmup uint64) {
	t.mu.Lock()
	t.instr += res.Total + warmup
	t.cycles += res.Cycles
	t.mu.Unlock()
}

func (t *traceRun) addNew(d time.Duration) {
	t.mu.Lock()
	t.newMS = append(t.newMS, float64(d)/1e6)
	t.mu.Unlock()
}

// newProcessor builds a processor inside a core.New span.
func (t *traceRun) newProcessor(parent int64, trace string, rv *campaign.Resolved) (proc *core.Processor, err error) {
	d, err := t.tr.do(parent, trace, "core", "core.New", func(int64) error {
		proc, err = core.New(rv.Config, rv.Profiles)
		return err
	})
	t.addNew(d)
	return proc, err
}

// run runs proc inside a Processor.Run span and counts the run.
func (t *traceRun) run(parent int64, trace string, proc *core.Processor, rv *campaign.Resolved) (res *core.Results, d time.Duration, err error) {
	d, err = t.tr.do(parent, trace, "core", "Processor.Run", func(int64) error {
		res, err = proc.Run(core.Limits{TotalInstructions: rv.Quota})
		return err
	})
	if err == nil {
		t.count(res, rv.Config.Warmup)
	}
	return res, d, err
}

// build times core.New of rv's configuration outside every span.
func build(rv *campaign.Resolved) (*core.Processor, time.Duration, error) {
	start := time.Now()
	proc, err := core.New(rv.Config, rv.Profiles)
	return proc, time.Since(start), err
}

// detached repeats a run with nothing attached, outside every span: the
// base an attached run's in-simulation cost is measured against. Observers
// never perturb the simulation, so cycles match the attached run's.
func detached(rv *campaign.Resolved) (newD, runD time.Duration, res *core.Results, err error) {
	proc, newD, err := build(rv)
	if err != nil {
		return 0, 0, nil, err
	}
	start := time.Now()
	res, err = proc.Run(core.Limits{TotalInstructions: rv.Quota})
	return newD, time.Since(start), res, err
}

// runnerDefaults mirrors the spec defaults experiments.Runner derives from
// avfreport's -base and -seed: warmup Base/2, and 1×/2×/4× Base
// instructions at 2/4/8 contexts.
func runnerDefaults(base, seed uint64) campaign.Defaults {
	return campaign.Defaults{
		Seed:   seed,
		Warmup: base / 2,
		Budget: func(contexts int) uint64 {
			switch {
			case contexts >= 8:
				return 4 * base
			case contexts >= 4:
				return 2 * base
			default:
				return base
			}
		},
	}
}

// genericOrder lists the per-layer metrics BENCHMARK.json declares; every
// workload reports all of them.
var genericOrder = []string{
	"core.ns_per_instr", "core.sim_s", "core.new_ms", "offcore.self_s", "trace.overhead_ratio", "host.calib_ms",
}

// finishTrace derives the workload's per-layer metrics from a traced rep:
// the detailed layer table plus the generic set every workload reports.
//   - core.sim_s sums the simulation spans (core layer, except core.New),
//     and core.ns_per_instr divides it by their committed instructions;
//   - offcore.self_s is the self time of every span outside the core
//     layer: the work of the layers above the simulator;
//   - trace.overhead_ratio is the traced rep's wall (its root spans; the
//     detached reference runs are not spanned) over the untraced rep's.
//
// core.instructions and core.cycles join the detailed table: they count
// the simulated work, which no optimization may change.
func (r *record) finishTrace(t *traceRun) {
	spans := t.tr.snapshot()
	for name, m := range t.layers {
		r.layers[name] = m
	}
	r.layers["core.instructions"] = metric{Value: float64(t.instr), Unit: "count"}
	r.layers["core.cycles"] = metric{Value: float64(t.cycles), Unit: "count"}
	var simS, rootS float64
	for _, s := range spans {
		if s.Layer == "core" && s.Name != "core.New" {
			simS += float64(s.dur()) / 1e9
		}
		if s.Parent == 0 {
			rootS += float64(s.dur()) / 1e9
		}
	}
	if t.tracedS > 0 {
		rootS = t.tracedS
	}
	var offcore float64
	for layer, self := range layerSelf(spans) {
		r.layers[layer+".self_s"] = metric{Value: self, Unit: "s"}
		if layer != "core" {
			offcore += self
		}
	}
	r.generic = map[string]metric{
		"core.ns_per_instr":    {Value: simS * 1e9 / float64(max(t.instr, 1)), Unit: "ns"},
		"core.sim_s":           {Value: simS, Unit: "s"},
		"core.new_ms":          {Value: summarize(t.newMS, "ms").Median, Unit: "ms"},
		"offcore.self_s":       {Value: offcore, Unit: "s"},
		"trace.overhead_ratio": {Value: rootS / t.untracedS, Unit: "ratio"},
		"host.calib_ms":        {Value: t.calibMS, Unit: "ms"},
	}
}

// writeTraceDir writes trace.json (Chrome trace_event) and layers.json
// (every workload's per-layer table) into dir.
func writeTraceDir(dir string, spans []span, recs []*record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("trace.json: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := map[string]map[string]metric{}
	for _, r := range recs {
		m := map[string]metric{}
		for k, v := range r.layers {
			m[k] = v
		}
		for k, v := range r.generic {
			m[k] = v
		}
		table[r.workload] = m
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}
