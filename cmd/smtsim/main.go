// Command smtsim runs SMT workloads on the simulated machine and prints
// each run's performance and per-structure AVF report.
//
// Usage:
//
//	smtsim -mix 4ctx-MEM-A -policy FLUSH -instructions 100000
//	smtsim -bench mcf,twolf -policy ICOUNT -instructions 50000
//	smtsim -mix 4ctx-MIX-A -telemetry run.jsonl -telemetry-window 10000
//	smtsim -mix 4ctx-MIX-A -instructions 10000000 -debug-addr :6060
//	smtsim -spec run.json
//	smtsim -mix 4ctx-MIX-A -policy FLUSH -dumpspec > run.json
//	smtsim -spec sweep.json -json -telemetry-dir series/
//
// The workload, policy, seed, and machine override resolve into one
// versioned campaign spec (docs/campaign-service.md): -dumpspec prints
// it, and -spec loads one instead of the per-axis flags. Observer
// flags (-telemetry, -pipetrace, -cpistack, -obs-*) layer on top of a
// loaded spec rather than living inside it, -inject attaches a strike
// campaign to a spec without one, and the -inject-* flags fill the fields
// a spec's strike campaign leaves zero.
//
// A -spec file may instead hold a campaign matrix: a base spec fanned out
// over policies, mixes, machine patches and seeds. That is the body the
// avfd campaign service accepts, so the same file submits there unchanged:
//
//	{"base":{"benchmarks":["gcc","mcf"],"instructions":20000},
//	 "policies":["ICOUNT","FLUSH"],"machines":[{"IQSize":48},{"IQSize":192}]}
//
// smtsim runs the points in expansion order. With several points each
// prints its report under a "== <point name> ==" header (-json prints one
// Results document per point instead), appends its own manifest to
// -obs-ledger, and with -telemetry-dir writes its own series, named after
// the point with "/" replaced by "_". -inject-report collects every
// point's cross-validation report in one file, and -dumpspec and
// -dumpconfig print one document per point. The flags that write a
// single run's file (-telemetry, -pipetrace, -cpistack-out,
// -propagation-out) are rejected for several points.
//
// With -telemetry the run emits a cycle-windowed time-series (JSONL, or
// CSV if the path ends in .csv); with -debug-addr a live HTTP server
// exposes /telemetry, /debug/metrics (OpenMetrics),
// /debug/progress, and /debug/pprof/ while the run is in flight, and
// follows each point of a matrix as it runs.
// Structured progress logs go to stderr (-log-level, -log-json).
//
// With -obs-ledger every run appends a provenance manifest — config
// digest, seeds, workloads, cycle/strike counts, the index of every
// artifact it wrote, exit status — to an append-only runs.jsonl; list it
// with `avfreport -runs`. -obs-heartbeat paces the progress heartbeat
// lines (docs/campaigns.md).
// ^C flushes and closes every exporter, then records the manifest with
// status "interrupted" instead of truncating gzip output mid-block.
//
// With -pipetrace the run additionally records every uop's pipeline
// lifecycle and writes it as a Kanata log (.kanata/.kan, opens in Konata),
// a Chrome trace_event JSON (.json, opens in chrome://tracing or
// Perfetto), or compact JSONL (anything else; .gz compresses):
//
//	smtsim -bench mcf,gcc -instructions 20000 -pipetrace run.kanata
//	smtsim -mix 4ctx-MIX-A -pipetrace run.jsonl.gz -pipetrace-window 50000:70000
//	smtsim -bench mcf,gcc -pipetrace-top 10
//
// -pipetrace-top prints the AVF provenance report: the top-N static
// instructions by ACE bit-cycles in each pipeline structure, plus the
// residency-by-fate breakdown.
//
// With -cpistack the run attributes every thread-cycle to a CPI-stack
// component and decomposes structure occupancy by ACE fate, printing both
// tables after the run; -cpistack-out writes the windowed series (.csv
// CSV, .json Chrome trace_event counters, else JSONL; docs/cpistack.md):
//
//	smtsim -bench mcf,gcc -instructions 20000 -cpistack
//	smtsim -mix 2ctx-MIX-A -policy FLUSH -cpistack-out stacks.jsonl
//
// With -inject -propagation the run additionally taint-tracks sampled
// strikes through the recorded dataflow and prints the fault-propagation
// atlas — root-cause instructions, hop histograms per edge type, and the
// cross-thread contamination matrix; -propagation-out writes the
// per-strike traces as JSONL (docs/propagation.md):
//
//	smtsim -bench mcf,gcc -instructions 20000 -inject -propagation
//	smtsim -mix 4ctx-MIX-A -inject -propagation-out atlas.jsonl.gz
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smtavf"
	"smtavf/internal/campaign"
	"smtavf/internal/cliopts"
	"smtavf/internal/core"
	"smtavf/internal/cpistack"
	"smtavf/internal/crossval"
	"smtavf/internal/inject"
	"smtavf/internal/jsonlio"
	"smtavf/internal/obs"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
)

// shut coordinates graceful exit: each run's exporter closers and
// manifest append run exactly once whether it finishes, fails, or
// catches ^C.
var shut cliopts.Shutdown

func main() {
	var (
		mixName  = flag.String("mix", "", "Table 2 mix name, e.g. 4ctx-MEM-A")
		benches  = flag.String("bench", "", "comma-separated benchmark names (alternative to -mix)")
		traces   = flag.String("trace", "", "comma-separated trace files recorded by tracegen (alternative to -mix/-bench)")
		policy   = flag.String("policy", "ICOUNT", "fetch policy: ICOUNT, STALL, FLUSH, DG, PDG, DWarn, STALLP")
		instrs   = flag.Uint64("instructions", 100_000, "total instructions to simulate")
		warmup   = flag.Uint64("warmup", 0, "instructions committed before measurement begins")
		phases   = flag.Uint64("phases", 0, "sample per-interval IPC/AVF every N cycles (0 = off)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		list     = flag.Bool("list", false, "list available mixes and benchmarks, then exit")
		cfgPath  = flag.String("config", "", "JSON machine configuration to load (overrides defaults; Threads is set from the workload)")
		dumpCfg  = flag.Bool("dumpconfig", false, "print the effective machine configuration as JSON and exit")
		specPath = flag.String("spec", "", "load the run from this campaign-spec or campaign-matrix JSON file instead of the workload/policy flags (observer flags still apply)")
		dumpSpec = flag.Bool("dumpspec", false, "print the effective campaign spec as JSON and exit (submit it to avfd or rerun with -spec)")

		s        session
		logFlags cliopts.Log
		prof     cliopts.Profile
	)
	flag.BoolVar(&s.asJSON, "json", false, "emit the full results as JSON")
	logFlags.Register(flag.CommandLine)
	s.tel.Register(flag.CommandLine)
	s.tel.RegisterDir(flag.CommandLine)
	s.inj.Register(flag.CommandLine)
	s.prop.Register(flag.CommandLine)
	s.pt.Register(flag.CommandLine)
	s.cpi.Register(flag.CommandLine)
	prof.Register(flag.CommandLine)
	s.obsFlags.Register(flag.CommandLine)
	flag.Parse()

	var err error
	if s.logger, err = logFlags.Logger(os.Stderr); err != nil {
		fatal(err)
	}
	for _, validate := range []func() error{s.tel.Validate, s.inj.Validate, s.prop.Validate, s.cpi.Validate, s.obsFlags.Validate} {
		if err := validate(); err != nil {
			fatal(err)
		}
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "smtsim:", err)
		}
	}()

	if *list {
		fmt.Println("Table 2 mixes:")
		for _, m := range smtavf.Mixes() {
			fmt.Printf("  %-12s %s\n", m.Name(), strings.Join(m.Benchmarks, ", "))
		}
		fmt.Println("benchmarks:", strings.Join(smtavf.Benchmarks(), ", "))
		return
	}

	// Resolve the invocation to campaign points: the -spec file's spec or
	// matrix expansion, or one spec assembled from the per-axis flags.
	// Everything downstream — machine config, workload sources, the
	// strike campaign — derives from a point's spec, so a run submitted
	// to avfd and a run typed here resolve identically.
	var points []campaign.Spec
	if *specPath != "" {
		if points, err = campaign.ReadFile(*specPath); err != nil {
			fatal(err)
		}
	} else {
		spec := campaign.Spec{
			Mix:           *mixName,
			Policy:        *policy,
			Seed:          *seed,
			Warmup:        *warmup,
			PhaseInterval: *phases,
		}
		if *benches != "" {
			spec.Benchmarks = strings.Split(*benches, ",")
		}
		if *traces != "" {
			spec.TraceFiles = strings.Split(*traces, ",")
		}
		if spec.Mix == "" && spec.Benchmarks == nil && spec.TraceFiles == nil {
			fatal(fmt.Errorf("need -mix, -bench, -trace, or -spec (try -list)"))
		}
		if *cfgPath != "" {
			machine := core.DefaultConfig(spec.Threads())
			data, err := os.ReadFile(*cfgPath)
			if err != nil {
				fatal(err)
			}
			if err := json.Unmarshal(data, &machine); err != nil {
				fatal(fmt.Errorf("%s: %w", *cfgPath, err))
			}
			spec.Machine = &machine
		}
		points = []campaign.Spec{spec}
	}
	s.multi = len(points) > 1
	if s.multi {
		for _, f := range []struct{ name, val string }{
			{"telemetry", s.tel.Path}, {"pipetrace", s.pt.Path}, {"cpistack-out", s.cpi.Out},
			{"propagation-out", s.prop.Out},
		} {
			if f.val != "" {
				fatal(fmt.Errorf("-%s writes a single run's file, but %s expands to %d points (use -telemetry-dir for per-point series)", f.name, *specPath, len(points)))
			}
		}
	}
	for i := range points {
		p := &points[i]
		if k := p.Kind(); k != campaign.KindRun {
			fatal(fmt.Errorf("%s: smtsim runs plain specs; submit %s specs to avfd or avfreport", *specPath, k))
		}
		if p.Instructions == 0 {
			p.Instructions = *instrs
		}
		if s.inj.On && p.Inject == nil {
			p.Inject = &campaign.InjectSpec{}
		}
		if in := p.Inject; in != nil {
			in.Every = cmp.Or(in.Every, s.inj.Every)
			in.Seed = cmp.Or(in.Seed, s.inj.Seed)
			in.Stop.HalfWidth = cmp.Or(in.Stop.HalfWidth, s.inj.CI)
			in.Stop.MaxStrikes = cmp.Or(in.Stop.MaxStrikes, s.inj.Strikes)
		}
		if s.prop.Enabled() && p.Inject == nil {
			fatal(fmt.Errorf("-propagation needs the strike campaign: pass -inject"))
		}
	}

	if *dumpSpec {
		for _, p := range points {
			data, err := p.MarshalIndent()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(data))
		}
		return
	}
	resolved := make([]*campaign.Resolved, len(points))
	for i, p := range points {
		if resolved[i], err = p.Resolve(campaign.Defaults{}); err != nil {
			if p.Name != "" {
				err = fmt.Errorf("point %s: %w", p.Name, err)
			}
			fatal(err)
		}
	}
	if *dumpCfg {
		for _, rv := range resolved {
			data, err := json.MarshalIndent(rv.Config, "", "  ")
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(data))
		}
		return
	}

	// Campaign observability, shared by every point: the metrics registry
	// (only under -debug-addr, the one place it is served), the progress
	// tracker behind the heartbeats and /debug/progress, and the run
	// ledger.
	if s.tel.DebugAddr != "" {
		s.reg = obs.NewRegistry()
	}
	s.prog = obs.NewProgress(obs.ProgressOptions{
		Logger:    s.logger,
		Heartbeat: s.obsFlags.HeartbeatInterval(),
		Registry:  s.reg,
	})
	if s.ledger, err = s.obsFlags.OpenLedger(); err != nil {
		fatal(err)
	}
	if s.tel.Dir != "" {
		if err := os.MkdirAll(s.tel.Dir, 0o755); err != nil {
			fatal(err)
		}
	}
	shut.Install(s.logger)
	for i, rv := range resolved {
		s.run(i, points[i], rv)
	}
	shut.Finish(obs.StatusOK, s.logger)
	if s.dbg != nil {
		s.dbg.Close()
	}
}

// session is what every point of one invocation shares: the observer
// flags, the logger, the metrics registry and progress tracker, the debug
// server, the run ledger, and the cross-validation reports written so far.
type session struct {
	asJSON   bool
	multi    bool // several points: headers, per-point series
	tel      cliopts.Telemetry
	inj      cliopts.Inject
	prop     cliopts.Propagation
	pt       cliopts.PipeTrace
	cpi      cliopts.CPIStack
	obsFlags cliopts.Obs

	logger  *slog.Logger
	reg     *obs.Registry
	prog    *obs.Progress
	ledger  *obs.Ledger
	dbg     *telemetry.DebugServer
	reports []*crossval.Report
}

// run executes point i: it attaches the requested observers, builds and
// runs the simulation and its strike campaign, writes the point's
// artifacts and ledger manifest, and prints its report.
func (s *session) run(i int, p campaign.Spec, rv *campaign.Resolved) {
	cfg := rv.Config
	name := p.Name
	if name == "" {
		name = rv.Title
	}
	// The manifest is authored here so it can index every artifact this
	// point writes; the Final hook appends it once, whatever way the point
	// ends.
	man := obs.NewManifest("run", "smtsim")
	man.ConfigDigest = obs.ConfigDigest(cfg)
	man.Seed = cfg.Seed
	man.Policy = p.PolicyName()
	man.Workloads = p.WorkloadIDs()
	man.Extra = map[string]string{}
	if p.Mix != "" {
		man.Extra["mix"] = p.Mix
	}
	if p.Name != "" {
		man.Extra["point"] = p.Name
	}
	var (
		res   *core.Results
		stats *inject.Stats
	)
	shut.Final(func(status string) {
		if res != nil {
			man.Cycles, man.Instructions = res.Cycles, res.Total
		}
		if stats != nil {
			man.Strikes = stats.TotalStrikes
		}
		man.Finish(status, nil)
		if err := s.ledger.Append(man); err != nil {
			s.logger.Error("run ledger append", "path", s.ledger.Path(), "err", err)
		}
	})
	opts := campaign.Options{Obs: &obs.Observability{Registry: s.reg, Progress: s.prog, Program: "smtsim"}}

	// Telemetry: a collector when a series file or the debug server is
	// requested; the built-in ring buffer backs the /telemetry endpoint.
	var col *telemetry.Collector
	if s.tel.Enabled() {
		col = telemetry.New(telemetry.Options{WindowCycles: s.tel.Window, Logger: s.logger, Registry: s.reg})
		paths := []string{s.tel.Path}
		if s.tel.Dir != "" {
			paths = append(paths, filepath.Join(s.tel.Dir, strings.ReplaceAll(name, "/", "_")+".jsonl"))
		}
		for _, path := range paths {
			if path == "" {
				continue
			}
			exp, err := telemetry.Create(path)
			if err != nil {
				fatal(err)
			}
			col.AddExporter(exp)
			man.AddArtifact("telemetry", path)
		}
		shut.Defer("telemetry", col.Close)
		opts.Telemetry = col
	}
	// Fault-injection campaign: samples the run on a cycle grid, then the
	// strike phase after the run cross-validates the tracker's AVF. Strike
	// outcomes honour the spec's protection map, as they do under avfd.
	var camp *inject.Campaign
	if p.Inject != nil {
		var err error
		if camp, err = rv.StrikeCampaign(); err != nil {
			fatal(err)
		}
		opts.Inject = camp
		man.CampaignSeed = rv.CampaignSeed
	}
	// Fault-propagation tracer: records per-uop dataflow nodes during the
	// run so sampled strikes can be taint-tracked afterwards.
	var tracer *propagation.Tracer
	if s.prop.Enabled() {
		tracer = propagation.New(propagation.Options{})
		opts.Propagation = tracer
	}
	// Explainability observer: per-thread CPI stacks plus occupancy-by-fate,
	// printed after the run and optionally exported as a windowed series.
	var stack *cpistack.Observer
	if s.cpi.Enabled() {
		stack = cpistack.New(s.cpi.Options())
		opts.CPIStack = stack
	}
	// Pipeline flight recorder, when a trace file or provenance report is
	// requested.
	var rec *pipetrace.Recorder
	if s.pt.Enabled() {
		opt, err := s.pt.Options()
		if err != nil {
			fatal(err)
		}
		rec = pipetrace.New(opt)
		opts.PipeTrace = rec
	}
	format, err := s.pt.ExportFormat()
	if err != nil {
		fatal(err)
	}
	// On ^C, flush whatever the flight recorder holds so the partial trace
	// is still openable; the normal path writes it once, below.
	var ptWritten bool
	if rec != nil && s.pt.Path != "" {
		shut.Defer("pipetrace", func() error {
			if ptWritten {
				return nil
			}
			return rec.WriteFile(s.pt.Path, format)
		})
	}

	sim, err := rv.Build(opts)
	if err != nil {
		fatal(err)
	}
	// The debug server starts once the first point is built, so it
	// answers with that point's metrics registered, and then follows each
	// point's windows.
	if s.dbg != nil {
		s.dbg.SetCollector(col)
	} else if s.reg != nil {
		if s.dbg, err = telemetry.ServeDebug(s.tel.DebugAddr, s.reg, s.prog, col, s.logger); err != nil {
			fatal(err)
		}
	}

	telemetry.RunManifest(s.logger, "smtsim", cfg, cfg.Seed, man.Workloads,
		"policy", p.PolicyName(),
		"instructions", p.Instructions,
		"warmup", cfg.Warmup,
		"telemetry_window", s.tel.Window,
	)

	start := time.Now()
	if res, err = sim.Run(rv.Quota); err != nil {
		fatal(err)
	}
	if rec != nil && s.pt.Path != "" {
		if err := rec.WriteFile(s.pt.Path, format); err != nil {
			fatal(fmt.Errorf("pipetrace: %w", err))
		}
		ptWritten = true
		man.AddArtifact("pipetrace", s.pt.Path)
		s.logger.Info("pipetrace written", "path", s.pt.Path, "records", rec.Len())
	}
	if stack != nil && s.cpi.Out != "" {
		if err := stack.WriteFile(s.cpi.Out); err != nil {
			fatal(fmt.Errorf("cpistack-out: %w", err))
		}
		man.AddArtifact("cpistack", s.cpi.Out)
		s.logger.Info("cpistack series written", "path", s.cpi.Out, "windows", len(stack.Windows()))
	}
	var (
		xval  *crossval.Report
		atlas *propagation.Atlas
	)
	if camp != nil {
		stats = camp.RunStrikes(res.Cycles, rv.Stop)
		xval = rv.CrossVal(rv.CampaignSeed, res, stats)
		s.logger.Info("inject campaign done",
			"strikes", stats.TotalStrikes,
			"rounds", stats.Rounds,
			"stopped_early", stats.StoppedEarly,
			"max_halfwidth", fmt.Sprintf("%.5f", stats.MaxHalfWidth()),
			"pass", xval.Pass(),
		)
		if s.inj.Report != "" {
			s.reports = append(s.reports, xval)
			if err := writeReports(s.inj.Report, s.reports); err != nil {
				fatal(fmt.Errorf("inject-report: %w", err))
			}
			man.AddArtifact("crossval", s.inj.Report)
			s.logger.Info("crossval report written", "path", s.inj.Report, "entries", len(xval.Entries))
		}
		// Taint-track freshly sampled strikes through the recorded dataflow.
		if tracer != nil {
			atlas = tracer.Analyze(rv.SampleStrikes(camp, res.Cycles, s.prop.Strikes))
			s.logger.Info("propagation atlas built",
				"strikes", atlas.Strikes,
				"resolved", atlas.Resolved,
				"sdc", atlas.Terminals[propagation.TerminalSDC],
				"cross_thread", atlas.CrossEdges(),
				"max_depth", atlas.MaxDepth,
			)
			if atlas.Dropped > 0 {
				s.logger.Warn("propagation tracer reached its node cap: strikes on later uops resolve no victim",
					"dropped", atlas.Dropped)
			}
			if s.prop.Out != "" {
				if err := propagation.WriteFile(s.prop.Out, atlas.Traces); err != nil {
					fatal(fmt.Errorf("propagation-out: %w", err))
				}
				man.AddArtifact("propagation", s.prop.Out)
				s.logger.Info("propagation traces written", "path", s.prop.Out, "traces", len(atlas.Traces))
			}
		}
	}
	elapsed := time.Since(start)
	s.logger.Info("run complete",
		"point", name,
		"cycles", res.Cycles,
		"instructions", res.Total,
		"ipc", fmt.Sprintf("%.4f", res.IPC()),
		"processor_avf", fmt.Sprintf("%.4f", res.ProcessorAVF()),
		"windows", col.Windows(),
		"elapsed", elapsed.Round(time.Millisecond).String(),
		"cycles_per_sec", fmt.Sprintf("%.0f", float64(res.Cycles)/elapsed.Seconds()),
	)
	shut.Flush(obs.StatusOK, s.logger)

	if s.asJSON {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if s.multi {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", name)
	}
	fmt.Print(res)
	if stats != nil {
		fmt.Println()
		fmt.Print(stats.Table())
		fmt.Println()
		fmt.Print(xval.Table())
	}
	if atlas != nil && s.prop.On {
		fmt.Println()
		fmt.Print(atlas.Tables(s.prop.Top))
	}
	if stack != nil {
		fmt.Println()
		fmt.Print(stack.FormatStack())
		fmt.Println()
		fmt.Print(stack.FormatOccupancy())
	}
	if rec != nil && s.pt.Top > 0 {
		prov := rec.Provenance()
		fmt.Println()
		for _, st := range pipetrace.RecordStructs {
			fmt.Print(prov.FormatHotspots(st, s.pt.Top))
		}
		fmt.Print(prov.FormatFates())
	}
	if cfg.PhaseInterval > 0 {
		fmt.Println("  phases (cycle / IPC / IQ AVF / ROB AVF):")
		for _, ph := range res.Phases {
			fmt.Printf("    %10d  %6.3f  %6.2f%%  %6.2f%%\n",
				ph.Cycle, ph.IPC, 100*ph.AVF[smtavf.IQ], 100*ph.AVF[smtavf.ROB])
		}
	}
}

// writeReports rewrites path with every point's cross-validation report
// so far, one JSONL record per structure per point, so an interrupted
// matrix leaves the completed points' reports behind.
func writeReports(path string, reports []*crossval.Report) error {
	w, err := jsonlio.OpenWriter(path)
	if err != nil {
		return err
	}
	for _, r := range reports {
		if err := r.WriteJSONL(w); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smtsim:", err)
	shut.Finish(obs.StatusError, nil)
	os.Exit(1)
}
