// Command avfreport regenerates every table and figure of the paper's
// evaluation section and prints them as aligned text tables (or CSV).
//
// Usage:
//
//	avfreport                      # everything, default budgets
//	avfreport -figure 6 -base 20000
//	avfreport -csv > report.csv
//	avfreport -provenance 4ctx-MEM-A -provenance-top 10
//	avfreport -propagation 2ctx-MEM-A -propagation-out atlas.jsonl.gz
//	avfreport -explain 2ctx-MEM-A -explain-policies ICOUNT,FLUSH
//
// The -crossval stopping rule shares the -inject-ci / -inject-strikes /
// -inject-report flags with smtsim (they were previously spelled
// -crossval-ci and -crossval-out here).
//
// avfreport is also the run ledger's browser: -runs lists the manifests
// a runs.jsonl accumulated (filter with -runs-kind, -runs-program,
// -runs-status), and -runs-id prints one manifest in full, so any figure
// traces back to the exact run that produced it:
//
//	avfreport -runs runs.jsonl
//	avfreport -runs runs.jsonl -runs-status interrupted
//	avfreport -runs runs.jsonl -runs-id smtsim-20260808T005332
//
// With -obs-ledger the -crossval fanout appends one "crossval-seed"
// manifest per seed plus the pooled summary, and every report run
// appends a "report" record at exit (docs/campaigns.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"smtavf/internal/campaign"
	"smtavf/internal/cliopts"
	"smtavf/internal/experiments"
	"smtavf/internal/inject"
	"smtavf/internal/obs"
	"smtavf/internal/propagation"
)

// shut coordinates graceful exit: the report manifest append runs exactly
// once whether the run finishes, fails, or catches ^C.
var shut cliopts.Shutdown

func main() {
	var (
		base    = flag.Uint64("base", 50_000, "instruction budget of a 2-context run (4/8 contexts use 2x/4x)")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		figure  = flag.String("figure", "all", "which figure to produce: all, table1, table2, 1..8, ext, or sens (comma-separated)")
		provMix = flag.String("provenance", "", "run this Table 2 mix with the pipeline flight recorder and print its AVF provenance tables (skips the figures)")
		provPol = flag.String("provenance-policy", "ICOUNT", "fetch policy of the -provenance run")
		provTop = flag.Int("provenance-top", 10, "PC rows in the -provenance hotspot table")
		propMix = flag.String("propagation", "", "run this Table 2 mix (or comma-separated benchmarks) with the fault-propagation tracer and print the strike atlas (skips the figures)")
		propPol = flag.String("propagation-policy", "ICOUNT", "fetch policy of the -propagation run")
		propN   = flag.Int("propagation-strikes", 256, "strikes sampled into each structure for the -propagation atlas")
		propTop = flag.Int("propagation-top", 10, "root-cause instructions shown in the -propagation tables")
		propOut = flag.String("propagation-out", "", "write the -propagation per-strike traces as JSONL to this file (.gz compresses)")
		explMix = flag.String("explain", "", "run this Table 2 mix (or comma-separated benchmarks) under each -explain-policies policy with the CPI-stack observer and print the explainability tables (skips the figures)")
		explPol = flag.String("explain-policies", "ICOUNT,STALL,FLUSH", "comma-separated fetch policies compared by -explain")
		xvalMix = flag.String("crossval", "", "cross-validate this Table 2 mix (or comma-separated benchmarks) against a fault-injection seed fanout and print the pooled agreement report (skips the figures)")
		xvalPol = flag.String("crossval-policy", "ICOUNT", "fetch policy of the -crossval runs")
		xvalN   = flag.Int("crossval-seeds", 3, "seed fanout of the -crossval campaign (seeds seed..seed+N-1, run concurrently and pooled)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		chart   = flag.Bool("chart", false, "render tables as horizontal bar charts")

		runsPath   = flag.String("runs", "", "list the run-manifest ledger at this path and exit (see -obs-ledger)")
		runsID     = flag.String("runs-id", "", "print the full manifest with this ID (or unique ID prefix) from -runs")
		runsKind   = flag.String("runs-kind", "", "filter the -runs listing by kind (run, crossval-seed, campaign-point, ...)")
		runsProg   = flag.String("runs-program", "", "filter the -runs listing by program (smtsim, avfreport, avfd)")
		runsStatus = flag.String("runs-status", "", "filter the -runs listing by exit status (ok, error, interrupted)")

		logFlags cliopts.Log
		inj      cliopts.Inject
		prof     cliopts.Profile
		obsFlags cliopts.Obs
	)
	logFlags.Register(flag.CommandLine)
	inj.RegisterStop(flag.CommandLine)
	prof.Register(flag.CommandLine)
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := inj.Validate(); err != nil {
		fatal(err)
	}
	// 0 would fall back to a campaign kind's default fan-out or strike
	// count, so refuse it before anything is simulated.
	if *xvalN < 1 {
		fatal(fmt.Errorf("-crossval-seeds must be positive, got %d", *xvalN))
	}
	if *propN < 1 {
		fatal(fmt.Errorf("-propagation-strikes must be positive, got %d", *propN))
	}
	if err := obsFlags.Validate(); err != nil {
		fatal(err)
	}

	// Ledger browsing: list or show manifests, no simulation.
	if *runsPath != "" {
		ms, err := obs.ReadLedger(*runsPath)
		if err != nil {
			fatal(err)
		}
		if *runsID != "" {
			m, err := obs.FindRun(ms, *runsID)
			if err != nil {
				fatal(err)
			}
			fmt.Print(obs.FormatRun(m))
			return
		}
		fmt.Print(obs.FormatRuns(ms, obs.RunFilter{
			Kind:    *runsKind,
			Program: *runsProg,
			Status:  *runsStatus,
		}))
		return
	}
	if *runsID != "" || *runsKind != "" || *runsProg != "" || *runsStatus != "" {
		fatal(fmt.Errorf("-runs-id/-runs-kind/-runs-program/-runs-status need -runs <ledger.jsonl>"))
	}

	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "avfreport:", err)
		}
	}()

	// Campaign observability: the ledger gets one "report" record per
	// invocation (plus per-seed records from the -crossval fanout), and
	// the Final hook appends it however the process exits.
	ledger, err := obsFlags.OpenLedger()
	if err != nil {
		fatal(err)
	}
	man := obs.NewManifest("report", "avfreport")
	man.Seed = *seed
	man.Extra = map[string]string{"figures": *figure, "base": strconv.FormatUint(*base, 10)}
	shut.Final(func(status string) {
		man.Finish(status, nil)
		if err := ledger.Append(man); err != nil {
			logger.Error("run ledger append", "path", ledger.Path(), "err", err)
		}
	})
	shut.Install(logger)

	logger.Info("run manifest",
		"program", "avfreport",
		"base", *base,
		"seed", *seed,
		"figures", *figure,
	)

	r := experiments.NewRunner(experiments.Options{Base: *base, Seed: *seed})
	want := map[string]bool{}
	for _, f := range strings.Split(*figure, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	emit := func(tables ...*experiments.Table) {
		for _, t := range tables {
			switch {
			case *csv:
				fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
			case *chart:
				fmt.Println(t.Chart())
			default:
				fmt.Println(t)
			}
		}
	}

	start := time.Now()
	if *xvalMix != "" {
		var seeds []uint64
		for i := 0; i < *xvalN; i++ {
			seeds = append(seeds, *seed+uint64(i))
		}
		spec := campaign.Spec{
			Policy:   *xvalPol,
			Inject:   &campaign.InjectSpec{Stop: inject.StopWhen(inj.CI, inj.Strikes)},
			CrossVal: &campaign.CrossValSpec{Seeds: seeds},
		}
		if strings.Contains(*xvalMix, ",") {
			spec.Benchmarks = strings.Split(*xvalMix, ",")
		} else {
			spec.Mix = *xvalMix
		}
		res, err := r.Campaign(spec)
		if err != nil {
			fatal(fmt.Errorf("crossval: %w", err))
		}
		pooled, perSeed := res.CrossVal, res.CrossValSeeds
		man.Kind = "crossval"
		man.Policy = *xvalPol
		if spec.Mix != "" {
			man.Workloads = []string{spec.Mix}
		} else {
			man.Workloads = spec.Benchmarks
		}
		for _, rep := range perSeed {
			logger.Info("crossval seed",
				"seed", rep.Meta.Seed,
				"cycles", rep.Meta.Cycles,
				"stopped_early", rep.StoppedEarly,
				"pass", rep.Pass(),
			)
			// One provenance record per fanout seed, so a disagreeing
			// seed is traceable on its own.
			sm := obs.NewManifest("crossval-seed", "avfreport")
			sm.CampaignSeed = rep.Meta.Seed
			sm.Policy = rep.Meta.Policy
			sm.Workloads = []string{rep.Meta.Workload}
			sm.Cycles = rep.Meta.Cycles
			for _, e := range rep.Entries {
				sm.Strikes += e.Strikes
			}
			man.Cycles += sm.Cycles
			man.Strikes += sm.Strikes
			sm.Extra = map[string]string{"pass": strconv.FormatBool(rep.Pass())}
			sm.Finish(obs.StatusOK, nil)
			if err := ledger.Append(sm); err != nil {
				fatal(fmt.Errorf("obs-ledger: %w", err))
			}
		}
		fmt.Print(pooled.Table())
		if inj.Report != "" {
			if err := pooled.WriteFile(inj.Report); err != nil {
				fatal(fmt.Errorf("inject-report: %w", err))
			}
			man.AddArtifact("crossval", inj.Report)
			logger.Info("crossval report written", "path", inj.Report, "entries", len(pooled.Entries))
		}
		logger.Info("done", "elapsed", time.Since(start).Round(time.Millisecond).String())
		shut.Finish(obs.StatusOK, logger)
		return
	}
	if *propMix != "" {
		spec := campaign.Spec{
			Policy:      *propPol,
			Propagation: &campaign.PropagationSpec{Strikes: *propN},
		}
		if strings.Contains(*propMix, ",") {
			spec.Benchmarks = strings.Split(*propMix, ",")
		} else {
			spec.Mix = *propMix
		}
		res, err := r.Campaign(spec)
		if err != nil {
			fatal(fmt.Errorf("propagation: %w", err))
		}
		atlas := res.Atlas
		if atlas.Dropped > 0 {
			logger.Warn("propagation tracer reached its node cap: strikes on later uops resolve no victim",
				"dropped", atlas.Dropped)
		}
		fmt.Printf("fault-propagation atlas: %s\n\n", res.Title)
		fmt.Print(atlas.Tables(*propTop))
		if *propOut != "" {
			if err := propagation.WriteFile(*propOut, atlas.Traces); err != nil {
				fatal(fmt.Errorf("propagation-out: %w", err))
			}
			man.AddArtifact("propagation", *propOut)
			logger.Info("propagation traces written", "path", *propOut, "traces", len(atlas.Traces))
		}
		logger.Info("done", "elapsed", time.Since(start).Round(time.Millisecond).String())
		shut.Finish(obs.StatusOK, logger)
		return
	}
	if *explMix != "" {
		spec := campaign.Spec{Explain: &campaign.ExplainSpec{}}
		if strings.Contains(*explMix, ",") {
			spec.Benchmarks = strings.Split(*explMix, ",")
		} else {
			spec.Mix = *explMix
		}
		for _, p := range strings.Split(*explPol, ",") {
			if p = strings.TrimSpace(p); p != "" {
				spec.Explain.Policies = append(spec.Explain.Policies, p)
			}
		}
		res, err := r.Campaign(spec)
		if err != nil {
			fatal(fmt.Errorf("explain: %w", err))
		}
		man.Kind = "explain"
		if spec.Mix != "" {
			man.Workloads = []string{spec.Mix}
		} else {
			man.Workloads = spec.Benchmarks
		}
		fmt.Printf("explainability: %s\n\n", res.Title)
		emit(experiments.TablesFromCampaign(res.Tables)...)
		logger.Info("done", "elapsed", time.Since(start).Round(time.Millisecond).String())
		shut.Finish(obs.StatusOK, logger)
		return
	}
	if *provMix != "" {
		ts, err := r.Provenance(*provMix, *provPol, *provTop)
		if err != nil {
			fatal(fmt.Errorf("provenance: %w", err))
		}
		emit(ts...)
		logger.Info("done", "elapsed", time.Since(start).Round(time.Millisecond).String())
		shut.Finish(obs.StatusOK, logger)
		return
	}
	if all {
		// Fill the run cache with all cores before assembling figures.
		preStart := time.Now()
		if err := r.Preload(experiments.AllSpecs()); err != nil {
			fatal(fmt.Errorf("preload: %w", err))
		}
		logger.Info("preload complete", "elapsed", time.Since(preStart).Round(time.Millisecond).String())
	}
	if all || want["table1"] {
		fmt.Println(experiments.Table1())
	}
	if all || want["table2"] {
		fmt.Println(experiments.Table2())
	}
	type one struct {
		name  string
		run   func() ([]*experiments.Table, error)
		extra bool // not part of the paper: only on explicit request
	}
	single := func(f func() (*experiments.Table, error)) func() ([]*experiments.Table, error) {
		return func() ([]*experiments.Table, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []*experiments.Table{t}, nil
		}
	}
	figures := []one{
		{"1", single(r.Figure1), false},
		{"2", single(r.Figure2), false},
		{"3", single(r.Figure3), false},
		{"4", single(r.Figure4), false},
		{"5", r.Figure5, false},
		{"6", r.Figure6, false},
		{"7", single(r.Figure7), false},
		{"8", r.Figure8, false},
		{"ext", single(r.Extensions), true},
		{"sens", r.Sensitivity, true},
		{"stab", func() ([]*experiments.Table, error) { return r.Stability(5) }, true},
	}
	for _, f := range figures {
		if !want[f.name] && !(all && !f.extra) {
			continue
		}
		figStart := time.Now()
		ts, err := f.run()
		if err != nil {
			fatal(fmt.Errorf("figure %s: %w", f.name, err))
		}
		logger.Info("figure complete",
			"figure", f.name,
			"tables", len(ts),
			"elapsed", time.Since(figStart).Round(time.Millisecond).String(),
		)
		emit(ts...)
	}
	logger.Info("done",
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"base", strconv.FormatUint(*base, 10),
	)
	shut.Finish(obs.StatusOK, logger)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avfreport:", err)
	shut.Finish(obs.StatusError, nil)
	os.Exit(1)
}
