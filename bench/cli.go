package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smtavf/internal/avf"
	"smtavf/internal/campaign"
	"smtavf/internal/cliopts"
	"smtavf/internal/core"
	"smtavf/internal/cpistack"
	"smtavf/internal/crossval"
	"smtavf/internal/experiments"
	"smtavf/internal/inject"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

// The figures, faults and observe workloads time avfreport invocations.
// Each invocation has an in-process twin for the traced rep: it makes the
// exported calls avfreport makes, inside spans, and renders the same bytes
// avfreport prints, so its output digest must equal the invocation's.

const (
	faultMix   = "2ctx-CPU-A"
	observeMix = "4ctx-MIX-A"
	topRows    = 10  // avfreport's -propagation-top and -provenance-top default
	propN      = 256 // avfreport's -propagation-strikes default
)

var explainPolicies = []string{"ICOUNT", "STALL", "FLUSH"} // -explain-policies default

// cliOp is one avfreport invocation of a workload, the machines it builds
// before its first simulated cycle, and its traced twin.
type cliOp struct {
	kind   string
	args   func(sz sizes, seed uint64) []string
	build  func(sz sizes, seed uint64) error
	traced func(t *traceRun, trace string, sz sizes, seed uint64) ([]byte, error)
}

var cliWorkloads = map[string][]cliOp{
	"figures": {
		{"report", func(sz sizes, seed uint64) []string { return reportArgs(sz.FigureBase, seed) }, buildReport, tracedReport},
	},
	"faults": {
		{"crossval", func(sz sizes, seed uint64) []string {
			return reportArgs(sz.FaultBase, seed, "-crossval", faultMix, "-crossval-seeds", "2")
		}, buildCrossval, tracedCrossval},
		{"propagation", func(sz sizes, seed uint64) []string {
			return reportArgs(sz.FaultBase, seed, "-propagation", faultMix)
		}, buildPropagation, tracedPropagation},
		// The atlas again at the next seed: one seed in ten peaks a fifth
		// lower than the rest, and two seeds a rep keep that off the peak.
		{"propagation2", func(sz sizes, seed uint64) []string {
			return reportArgs(sz.FaultBase, seed+1, "-propagation", faultMix)
		}, func(sz sizes, seed uint64) error { return buildPropagation(sz, seed+1) },
			func(t *traceRun, trace string, sz sizes, seed uint64) ([]byte, error) {
				return tracedPropagation(t, trace, sz, seed+1)
			}},
	},
	"observe": {
		{"explain", func(sz sizes, seed uint64) []string {
			return reportArgs(sz.ObserveBase, seed, "-explain", observeMix)
		}, buildExplain, tracedExplain},
		{"provenance", func(sz sizes, seed uint64) []string {
			return reportArgs(sz.ObserveBase, seed, "-provenance", observeMix)
		}, buildProvenance, tracedProvenance},
	},
}

func reportArgs(base, seed uint64, mode ...string) []string {
	return append(mode, "-base", fmt.Sprint(base), "-seed", fmt.Sprint(seed), "-log-level", "warn")
}

// Before each rep a CLI workload takes setupSamples set-up samples; each
// repeats the set-up until setupSampleS has passed and records the mean.
const (
	setupSamples = 3
	setupSampleS = 0.1
)

// warmBase is the instruction budget of the untimed warm-up invocations.
const warmBase = 2

type cliWorkload struct {
	e   *env
	rec *record
	ops []cliOp
}

func (w *cliWorkload) record() *record { return w.rec }

// setup runs every invocation once, untimed, at a budget of two
// instructions: that loads the binary and shows it runs.
func (w *cliWorkload) setup() error {
	warm := w.e.sz
	warm.FigureBase, warm.FaultBase, warm.ObserveBase = warmBase, warmBase, warmBase
	for _, op := range w.ops {
		c, err := w.e.exec("avfreport", op.args(warm, w.e.seed)...)
		if err != nil {
			return err
		}
		if len(c.stdout) == 0 {
			return fmt.Errorf("%s warm-up printed nothing", op.kind)
		}
	}
	return nil
}

// sampleSetup times the workload's set-up: building every processor and
// observer one rep simulates on, through the exported calls avfreport
// makes. Work moved out of the simulation loop into that construction
// shows here. The set-up is timed in-process and averaged over repeats,
// since a process start or a single construction takes milliseconds and
// varies severalfold with the host's load; samples taken before every rep
// spread over the whole run, so one slow phase of the host moves few of
// them. Construction runs on one goroutine, and it is timed with
// GOMAXPROCS at 1: with two, every collection hands work to the other
// vCPU, and on a busy virtual machine waking it took ~10 ms per
// construction instead of ~1.5.
func (w *cliWorkload) sampleSetup() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < setupSamples; i++ {
		runtime.GC() // each sample starts from a collected heap
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start).Seconds() < setupSampleS {
			for _, op := range w.ops {
				if err := op.build(w.e.sz, w.e.seed); err != nil {
					return fmt.Errorf("%s set-up: %w", op.kind, err)
				}
			}
			n++
		}
		w.rec.setups = append(w.rec.setups, time.Since(start).Seconds()/float64(n))
	}
	return nil
}

// buildReport builds the processor of every mix run and single-thread
// baseline avfreport's default path simulates.
func buildReport(sz sizes, seed uint64) error {
	for _, s := range experiments.AllSpecs() {
		m, err := workload.Lookup(s.Contexts, s.Kind, s.Group)
		if err != nil {
			return err
		}
		rv, err := campaign.Spec{Mix: m.Name(), Policy: s.Policy}.Resolve(runnerDefaults(sz.FigureBase, seed))
		if err != nil {
			return err
		}
		if _, err := core.New(rv.Config, rv.Profiles); err != nil {
			return err
		}
	}
	for _, b := range singleBenchmarks() {
		p, err := workload.Profile(b)
		if err != nil {
			return err
		}
		cfg := core.DefaultConfig(1)
		cfg.Seed, cfg.Warmup = seed, sz.FigureBase/2
		if _, err := core.New(cfg, []trace.Profile{p}); err != nil {
			return err
		}
	}
	return nil
}

// singleBenchmarks lists each benchmark of the mixes once, in the order
// Runner.PreloadSingles runs them.
func singleBenchmarks() []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range workload.Mixes() {
		for _, b := range m.Benchmarks {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
	}
	return names
}

// crossvalSpec is avfreport -crossval's campaign at the first seed.
func crossvalSpec(seed uint64) campaign.Spec {
	return campaign.Spec{
		Policy:   "ICOUNT",
		Mix:      faultMix,
		Seed:     seed,
		Inject:   &campaign.InjectSpec{Stop: stopRule()},
		CrossVal: &campaign.CrossValSpec{Seeds: []uint64{seed, seed + 1}},
	}
}

// propagationSpec is avfreport -propagation's campaign.
func propagationSpec() campaign.Spec {
	return campaign.Spec{Policy: "ICOUNT", Mix: faultMix, Propagation: &campaign.PropagationSpec{Strikes: propN}}
}

// buildCrossval builds each fan-out seed's processor with its strike
// campaign attached.
func buildCrossval(sz sizes, seed uint64) error {
	spec := crossvalSpec(seed)
	for _, s := range spec.CrossVal.Seeds {
		sp := spec
		sp.Seed = s
		rv, err := sp.Resolve(runnerDefaults(sz.FaultBase, seed))
		if err != nil {
			return err
		}
		proc, err := core.New(rv.Config, rv.Profiles)
		if err != nil {
			return err
		}
		if _, err := newCampaign(proc, rv); err != nil {
			return err
		}
	}
	return nil
}

// buildPropagation builds the processor with a strike campaign and a
// propagation tracer attached.
func buildPropagation(sz sizes, seed uint64) error {
	spec := propagationSpec()
	rv, err := spec.Resolve(runnerDefaults(sz.FaultBase, seed))
	if err != nil {
		return err
	}
	proc, err := core.New(rv.Config, rv.Profiles)
	if err != nil {
		return err
	}
	if _, err := newCampaign(proc, rv); err != nil {
		return err
	}
	proc.SetPropagation(propagation.New(spec.Propagation.Options))
	return nil
}

// buildExplain builds each explained policy's processor with a CPI-stack
// observer attached.
func buildExplain(sz sizes, seed uint64) error {
	for _, p := range explainPolicies {
		rv, err := campaign.Spec{Mix: observeMix, Policy: p}.Resolve(runnerDefaults(sz.ObserveBase, seed))
		if err != nil {
			return err
		}
		proc, err := core.New(rv.Config, rv.Profiles)
		if err != nil {
			return err
		}
		proc.SetCPIStack(cpistack.New(cpistack.Options{WindowCycles: cpistack.DefaultWindowCycles}))
	}
	return nil
}

// buildProvenance builds the processor with a pipeline recorder attached.
func buildProvenance(sz sizes, seed uint64) error {
	rv, err := campaign.Spec{Mix: observeMix, Policy: "ICOUNT"}.Resolve(runnerDefaults(sz.ObserveBase, seed))
	if err != nil {
		return err
	}
	proc, err := core.New(rv.Config, rv.Profiles)
	if err != nil {
		return err
	}
	proc.SetPipeTrace(pipetrace.New(pipetrace.Options{}))
	return nil
}

// rep runs the workload's invocations in order, each a fresh process, and
// returns their summed wall time.
func (w *cliWorkload) rep() (float64, error) {
	if err := w.sampleSetup(); err != nil {
		return 0, err
	}
	r := w.rec
	r.reps++
	calib := calibrate()
	var wall, rss float64
	ok := true
	for _, op := range w.ops {
		r.attempted++
		c, err := w.e.exec("avfreport", op.args(w.e.sz, w.e.seed)...)
		if err != nil {
			if w.e.ctx.Err() != nil {
				return 0, err
			}
			r.failf(w.e.out, "%s rep %d: %v", op.kind, r.reps, err)
			ok = false
			continue
		}
		wall += c.wall
		rss = max(rss, c.rssMB)
		r.addOp(op.kind, c.wall*1e3)
		r.checkDigest(w.e, op.kind, digest(c.stdout), fmt.Sprintf("rep %d", r.reps))
	}
	fmt.Fprintf(w.e.out, "%s rep %d wall_s %.4f peak_rss_mb %.1f host.calib_ms %.1f\n", r.workload, r.reps, wall, rss, calib)
	if ok {
		r.walls = append(r.walls, wall)
		r.rss = append(r.rss, rss)
		r.calib = append(r.calib, calib)
	}
	return wall, nil
}

// traced runs one untraced rep for reference, then every op's twin.
func (w *cliWorkload) traced(t *traceRun) error {
	var err error
	if t.untracedS, err = w.rep(); err != nil {
		return err
	}
	t.calibMS = calibrate()
	for _, op := range w.ops {
		w.rec.attempted++
		out, err := op.traced(t, w.rec.workload+"/traced/"+op.kind, w.e.sz, w.e.seed)
		if err != nil {
			w.rec.failf(w.e.out, "%s traced: %v", op.kind, err)
			continue
		}
		if d, want := digest(out), w.rec.digests[op.kind]; d != want {
			w.rec.failf(w.e.out, "%s/%s traced: output digest %s differs from the untraced %s", w.rec.workload, op.kind, short(d), short(want))
		}
	}
	return nil
}

// pool runs fn(0..n-1) on GOMAXPROCS workers, like the experiments
// package's worker pool, and returns the errors joined.
func pool(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tracedReport is avfreport's default path: preload every mix run on the
// worker pool, preload the single-thread baselines, then print Tables 1-2
// and Figures 1-8.
func tracedReport(t *traceRun, trace string, sz sizes, seed uint64) ([]byte, error) {
	base, tr := sz.FigureBase, t.tr
	r := experiments.NewRunner(experiments.Options{Base: base, Seed: seed})
	specs := experiments.AllSpecs()
	mixes := make([]*core.Results, len(specs))
	mixDur := make([]time.Duration, len(specs))
	var preload, singles, assemble time.Duration
	var out bytes.Buffer
	_, err := tr.do(0, trace, "cmd", "avfreport", func(root int64) (err error) {
		preload, err = tr.do(root, trace, "experiments", "Runner.Preload", func(p int64) error {
			return pool(len(specs), func(i int) (err error) {
				s := specs[i]
				mixDur[i], err = tr.do(p, trace, "core", "Runner.Mix", func(int64) (err error) {
					mixes[i], err = r.Mix(s.Contexts, s.Kind, s.Group, s.Policy)
					return err
				})
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if singles, err = tr.do(root, trace, "core", "Runner.PreloadSingles", func(int64) error { return r.PreloadSingles() }); err != nil {
			return fmt.Errorf("preload singles: %w", err)
		}
		one := func(f func() (*experiments.Table, error)) func() ([]*experiments.Table, error) {
			return func() ([]*experiments.Table, error) {
				tb, err := f()
				return []*experiments.Table{tb}, err
			}
		}
		figures := []struct {
			name string
			run  func() ([]*experiments.Table, error)
		}{
			{"Figure1", one(r.Figure1)}, {"Figure2", one(r.Figure2)}, {"Figure3", one(r.Figure3)},
			{"Figure4", one(r.Figure4)}, {"Figure5", r.Figure5}, {"Figure6", r.Figure6},
			{"Figure7", one(r.Figure7)}, {"Figure8", r.Figure8},
		}
		assemble, err = tr.do(root, trace, "experiments", "assemble", func(a int64) error {
			fmt.Fprintln(&out, experiments.Table1())
			fmt.Fprintln(&out, experiments.Table2())
			for _, f := range figures {
				var ts []*experiments.Table
				if _, err := tr.do(a, trace, "experiments", "Runner."+f.name, func(int64) (err error) {
					ts, err = f.run()
					return err
				}); err != nil {
					return fmt.Errorf("%s: %w", f.name, err)
				}
				for _, tb := range ts {
					fmt.Fprintln(&out, tb)
				}
			}
			return nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	// Counts and references, outside the spans.
	warmup := base / 2
	var mixSum, mixMax time.Duration
	var fetched, wrong, dl1, dl1Miss, l2, l2Miss uint64
	for i, res := range mixes {
		t.count(res, warmup)
		mixSum += mixDur[i]
		mixMax = max(mixMax, mixDur[i])
		for _, th := range res.Thread {
			fetched += th.Fetched
			wrong += th.WrongPathFetch
		}
		dl1, dl1Miss = dl1+res.Counters.DL1Accesses, dl1Miss+res.Counters.DL1Misses
		l2, l2Miss = l2+res.Counters.L2Accesses, l2Miss+res.Counters.L2Misses
	}
	for _, b := range singleBenchmarks() {
		res, err := r.Single(b, base) // memoized by PreloadSingles
		if err != nil {
			return nil, err
		}
		t.count(res, warmup)
	}
	for _, s := range specs {
		m, err := workload.Lookup(s.Contexts, s.Kind, s.Group)
		if err != nil {
			return nil, err
		}
		rv, err := campaign.Spec{Mix: m.Name(), Policy: s.Policy}.Resolve(runnerDefaults(base, seed))
		if err != nil {
			return nil, err
		}
		_, newD, err := build(rv)
		if err != nil {
			return nil, err
		}
		t.addNew(newD)
	}
	workers := min(runtime.GOMAXPROCS(0), len(specs))
	t.set("experiments.preload_s", preload.Seconds(), "s")
	t.set("experiments.singles_s", singles.Seconds(), "s")
	t.set("experiments.assemble_s", assemble.Seconds(), "s")
	t.set("experiments.pool_busy_ratio", mixSum.Seconds()/(float64(workers)*preload.Seconds()), "ratio")
	t.set("experiments.mix_max_s", mixMax.Seconds(), "s")
	t.set("core.wrongpath_ratio", ratio(wrong, fetched), "ratio")
	t.set("mem.dl1_miss_ratio", ratio(dl1Miss, dl1), "ratio")
	t.set("mem.l2_miss_ratio", ratio(l2Miss, l2), "ratio")
	return out.Bytes(), nil
}

// stopRule is avfreport's -inject-ci/-inject-strikes default stopping rule.
func stopRule() inject.Stop {
	var inj cliopts.Inject
	inj.RegisterStop(flag.NewFlagSet("defaults", flag.ContinueOnError))
	return inject.StopWhen(inj.CI, inj.Strikes)
}

// trackerAVF extracts the per-structure tracker estimates a crossval
// report compares against.
func trackerAVF(res *core.Results) [avf.NumStructs]float64 {
	var tracker [avf.NumStructs]float64
	for s := range tracker {
		tracker[s] = res.StructAVF(avf.Struct(s))
	}
	return tracker
}

// newCampaign attaches a strike campaign to proc, as the runner does.
func newCampaign(proc *core.Processor, rv *campaign.Resolved) (*inject.Campaign, error) {
	camp, err := inject.NewCampaign(core.StructBits(rv.Config), rv.Every, rv.CampaignSeed)
	if err != nil {
		return nil, err
	}
	camp.SetProtection(rv.Protection.Detections())
	proc.AttachSink(camp)
	return camp, nil
}

// attachCampaign attaches a strike campaign inside a span.
func (t *traceRun) attachCampaign(parent int64, trace string, proc *core.Processor, rv *campaign.Resolved) (camp *inject.Campaign, err error) {
	_, err = t.tr.do(parent, trace, "inject", "inject.NewCampaign+AttachSink", func(int64) error {
		camp, err = newCampaign(proc, rv)
		return err
	})
	return camp, err
}

// tracedCrossval is avfreport -crossval: per fanout seed, concurrently,
// Spec.Resolve → core.New → inject.NewCampaign/AttachSink → Run →
// RunStrikes → crossval.Build; then crossval.Pool.
func tracedCrossval(t *traceRun, trace string, sz sizes, seed uint64) ([]byte, error) {
	tr := t.tr
	spec := crossvalSpec(seed)
	seeds := spec.CrossVal.Seeds
	d := runnerDefaults(sz.FaultBase, seed)
	perSeed := make([]*crossval.Report, len(seeds))
	resolved := make([]*campaign.Resolved, len(seeds))
	runs := make([]time.Duration, len(seeds))
	var strikesDur, buildDur time.Duration
	var events, strikes uint64
	var mu sync.Mutex
	var out []byte
	_, err := tr.do(0, trace, "cmd", "avfreport -crossval", func(root int64) error {
		err := pool(len(seeds), func(i int) error {
			sp := spec
			sp.Seed = seeds[i]
			var rv *campaign.Resolved
			if _, err := tr.do(root, trace, "campaign", "Spec.Resolve", func(int64) (err error) {
				rv, err = sp.Resolve(d)
				return err
			}); err != nil {
				return err
			}
			resolved[i] = rv
			proc, err := t.newProcessor(root, trace, rv)
			if err != nil {
				return err
			}
			camp, err := t.attachCampaign(root, trace, proc, rv)
			if err != nil {
				return err
			}
			var res *core.Results
			if res, runs[i], err = t.run(root, trace, proc, rv); err != nil {
				return err
			}
			var stats *inject.Stats
			sd := tr.timed(root, trace, "inject", "Campaign.RunStrikes", func() { stats = camp.RunStrikes(res.Cycles, rv.Stop) })
			bd := tr.timed(root, trace, "crossval", "crossval.Build", func() {
				perSeed[i] = crossval.Build(crossval.Meta{
					Workload: rv.Title,
					Policy:   rv.Spec.PolicyName(),
					Seed:     rv.Config.Seed,
					Seeds:    1,
					Every:    rv.Every,
					Cycles:   res.Cycles,
				}, trackerAVF(res), stats)
			})
			mu.Lock()
			strikesDur, buildDur = strikesDur+sd, buildDur+bd
			events, strikes = events+camp.Events(), strikes+stats.TotalStrikes
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
		var pooled *crossval.Report
		if _, err := tr.do(root, trace, "crossval", "crossval.Pool", func(int64) (err error) {
			pooled, err = crossval.Pool(perSeed)
			return err
		}); err != nil {
			return err
		}
		out = []byte(pooled.Table())
		return nil
	})
	if err != nil {
		return nil, err
	}

	var insim time.Duration
	for i, rv := range resolved {
		_, run, _, err := detached(rv)
		if err != nil {
			return nil, err
		}
		insim += runs[i] - run
	}
	t.set("inject.insim_s", insim.Seconds(), "s")
	t.set("inject.events", float64(events), "count")
	t.set("inject.ns_per_event", float64(insim)/float64(max(events, 1)), "ns")
	t.set("inject.strikes_s", strikesDur.Seconds(), "s")
	t.set("inject.strikes", float64(strikes), "count")
	t.set("inject.us_per_strike", float64(strikesDur)/1e3/float64(max(strikes, 1)), "us")
	t.set("crossval.build_ms", float64(buildDur)/1e6, "ms")
	return out, nil
}

// tracedPropagation is avfreport -propagation: core.New → AttachSink +
// SetPropagation → Run → SampleStrikes → Tracer.Analyze. Its layer
// metrics sum over the workload's propagation ops.
func tracedPropagation(t *traceRun, trace string, sz sizes, seed uint64) ([]byte, error) {
	tr := t.tr
	spec := propagationSpec()
	rv, err := spec.Resolve(runnerDefaults(sz.FaultBase, seed))
	if err != nil {
		return nil, err
	}
	var out []byte
	var run time.Duration
	_, err = tr.do(0, trace, "cmd", "avfreport -propagation", func(root int64) error {
		proc, err := t.newProcessor(root, trace, rv)
		if err != nil {
			return err
		}
		camp, err := t.attachCampaign(root, trace, proc, rv)
		if err != nil {
			return err
		}
		var tracer *propagation.Tracer
		tr.timed(root, trace, "propagation", "SetPropagation", func() {
			tracer = propagation.New(spec.Propagation.Options)
			proc.SetPropagation(tracer)
		})
		var res *core.Results
		if res, run, err = t.run(root, trace, proc, rv); err != nil {
			return err
		}
		var sampled []inject.Strike
		sd := tr.timed(root, trace, "inject", "Campaign.SampleStrikes", func() {
			for _, s := range avf.Structs() {
				sampled = append(sampled, camp.SampleStrikes(s, res.Cycles, propN)...)
			}
		})
		var atlas *propagation.Atlas
		ad := tr.timed(root, trace, "propagation", "Tracer.Analyze", func() { atlas = tracer.Analyze(sampled) })
		t.add("propagation.nodes", float64(tracer.Len()), "count")
		t.add("propagation.sample_ms", float64(sd)/1e6, "ms")
		t.add("propagation.analyze_s", ad.Seconds(), "s")
		t.add("propagation.cross_edges", float64(atlas.CrossEdges()), "count")
		out = []byte(fmt.Sprintf("fault-propagation atlas: %s under %s\n\n%s", rv.Title, spec.PolicyName(), atlas.Tables(topRows)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, base, _, err := detached(rv)
	if err != nil {
		return nil, err
	}
	t.add("propagation.insim_s", (run - base).Seconds(), "s")
	return out, nil
}

// tracedExplain is avfreport -explain. Its table assembly is unexported,
// so the whole Runner.Campaign call is one span; detached reruns of each
// policy's configuration give the cpistack in-simulation cost.
func tracedExplain(t *traceRun, trace string, sz sizes, seed uint64) ([]byte, error) {
	tr := t.tr
	spec := campaign.Spec{Mix: observeMix, Explain: &campaign.ExplainSpec{Policies: explainPolicies}}
	r := experiments.NewRunner(experiments.Options{Base: sz.ObserveBase, Seed: seed})
	var out bytes.Buffer
	var attached time.Duration
	_, err := tr.do(0, trace, "cmd", "avfreport -explain", func(root int64) (err error) {
		var res *campaign.Result
		attached, err = tr.do(root, trace, "core", "Runner.Campaign", func(int64) (err error) {
			res, err = r.Campaign(spec)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(&out, "explainability: %s\n\n", res.Title)
		for _, tb := range experiments.TablesFromCampaign(res.Tables) {
			fmt.Fprintln(&out, tb)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var base time.Duration
	var instr, windows uint64
	for _, p := range explainPolicies {
		sp := spec
		sp.Policy = p
		rv, err := sp.Resolve(runnerDefaults(sz.ObserveBase, seed))
		if err != nil {
			return nil, err
		}
		newD, run, res, err := detached(rv)
		if err != nil {
			return nil, err
		}
		base += newD + run
		t.count(res, rv.Config.Warmup)
		instr += res.Total + rv.Config.Warmup
		windows += (res.Cycles + cpistack.DefaultWindowCycles - 1) / cpistack.DefaultWindowCycles
	}
	t.set("cpistack.insim_ns_per_instr", float64(attached-base)/float64(instr), "ns")
	t.set("cpistack.windows", float64(windows), "count")
	return out.Bytes(), nil
}

// tracedProvenance is avfreport -provenance: SetPipeTrace → Run →
// Recorder.Provenance → experiments.ProvenanceTables.
func tracedProvenance(t *traceRun, trace string, sz sizes, seed uint64) ([]byte, error) {
	tr := t.tr
	rv, err := campaign.Spec{Mix: observeMix, Policy: "ICOUNT"}.Resolve(runnerDefaults(sz.ObserveBase, seed))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	var run time.Duration
	_, err = tr.do(0, trace, "cmd", "avfreport -provenance", func(root int64) error {
		proc, err := t.newProcessor(root, trace, rv)
		if err != nil {
			return err
		}
		var rec *pipetrace.Recorder
		tr.timed(root, trace, "pipetrace", "SetPipeTrace", func() {
			rec = pipetrace.New(pipetrace.Options{})
			proc.SetPipeTrace(rec)
		})
		if _, run, err = t.run(root, trace, proc, rv); err != nil {
			return err
		}
		var prov *pipetrace.Provenance
		fd := tr.timed(root, trace, "pipetrace", "Recorder.Provenance", func() { prov = rec.Provenance() })
		var tables []*experiments.Table
		td := tr.timed(root, trace, "experiments", "ProvenanceTables", func() {
			tables = experiments.ProvenanceTables(prov, observeMix+" under ICOUNT", topRows)
		})
		for _, tb := range tables {
			fmt.Fprintln(&out, tb)
		}
		t.set("pipetrace.records", float64(rec.Len()), "count")
		t.set("pipetrace.fold_ms", float64(fd)/1e6, "ms")
		t.set("experiments.tables_ms", float64(td)/1e6, "ms")
		return nil
	})
	if err != nil {
		return nil, err
	}
	_, base, res, err := detached(rv)
	if err != nil {
		return nil, err
	}
	t.set("pipetrace.insim_ns_per_instr", float64(run-base)/float64(res.Total+rv.Config.Warmup), "ns")
	return out.Bytes(), nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
