// Package shard executes one logical simulation as several deterministic
// interval simulations ("shards") running concurrently, then merges their
// results into a single report.
//
// A trace-driven run is embarrassingly parallel in the interval dimension
// once two problems are solved: reconstructing the machine state at each
// interval boundary, and merging interval statistics without error. The
// engine solves the first with per-shard functional warmup — every shard
// builds a fresh, identically-seeded machine and replays its boundary
// prefix through the long-lived structures (caches, TLBs, predictors; see
// core.FunctionalWarmup) — and the second by summing raw integer counters
// (committed instructions, cycles, ACE bit-cycles, memory events) and
// recomputing every rate over the merged window (avf.Merge,
// core.MachineCounters.Stats).
//
// The result is exact in its counts (a sharded run commits exactly the
// instructions its plan assigns, cycle counts and IPC are the sums of real
// simulated intervals) and approximate in its AVF rates: the transient
// pipeline state at each boundary is refilled by detailed simulation
// rather than reconstructed, which perturbs residency accounting near the
// boundary. The error bound is documented and tested; see DefaultTolerance
// and docs/sharding.md.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"smtavf/internal/core"
	"smtavf/internal/cpistack"
	"smtavf/internal/inject"
	"smtavf/internal/obs"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
)

// SourceFactory builds a fresh, identically-seeded set of per-thread
// instruction sources. Every shard invokes it once, concurrently with
// other shards, so the returned sources must be independent instances:
// deterministic generators seeded the same way every call (core.Sources,
// trace.LoadTraceFile), never shared state.
type SourceFactory func() ([]core.Source, error)

// Options configure a Build: the shard shape, campaign observability,
// and the pipeline observers a monolithic run attaches.
type Options struct {
	// Shards is the number of intervals each thread's instruction quota is
	// split into. 1 means a single detailed run (no boundary error).
	Shards int
	// Workers bounds how many shards simulate concurrently; 0 means
	// GOMAXPROCS.
	Workers int
	// WarmupWindow bounds the functional warmup per shard: at most this
	// many trailing instructions of the skipped prefix are replayed
	// through the caches and predictors per thread (0 = the full prefix).
	// Shortening it trades boundary accuracy for startup cost; with
	// seekable traces the prefix before the window is skipped in O(1).
	WarmupWindow uint64
	// PartialTail classifies the in-flight pipeline drain at non-final
	// interval boundaries un-ACE (the successor interval re-simulates
	// those instructions) instead of the monolithic headed-fate rule. The
	// headed-fate default tracks the monolithic run measurably better —
	// the tail's extra ACE offsets the residency shortening of
	// re-simulated boundary instructions against warmed caches — so this
	// knob exists to study the boundary error, not to improve it.
	PartialTail bool
	// Obs, when non-nil, receives campaign observability: per-worker
	// phase spans (Engine.Timeline), shard metrics on the registry, and
	// shard-completion progress. Attaching it does not perturb results —
	// it watches the pool, not the simulated machines. On a monolithic
	// Build its Progress tracks the "run" phase instead.
	Obs *obs.Observability

	// Pipeline observers, attached by Build to a monolithic run only.
	Telemetry   *telemetry.Collector
	PipeTrace   *pipetrace.Recorder
	Inject      *inject.Campaign
	Propagation *propagation.Tracer
	CPIStack    *cpistack.Observer
}

// Engine runs sharded simulations for one configuration and workload.
type Engine struct {
	cfg     core.Config
	factory SourceFactory
	opt     Options

	// Registry handles (nil-receiver no-ops when Obs is detached).
	cShards *obs.Counter
	hPhase  map[string]*obs.Histogram

	mu          sync.Mutex
	checkpoints []core.Checkpoint
	spans       []obs.Span
}

// spanPhases are the per-worker phases the timeline records, in shard
// execution order; "merge" runs once on the coordinating goroutine.
var spanPhases = []string{"sources", "warmup", "run", "merge"}

// New builds an engine; Build is the entry point that also vets the
// workload and rejects pipeline observers. The configuration's Warmup is
// honoured by folding it into each shard's functional warmup (split evenly
// across threads); detailed-warmup semantics are only available from a
// monolithic run.
func New(cfg core.Config, factory SourceFactory, opt Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("shard: nil source factory")
	}
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", opt.Shards)
	}
	if opt.Workers < 0 {
		return nil, fmt.Errorf("shard: negative worker count %d", opt.Workers)
	}
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{cfg: cfg, factory: factory, opt: opt, hPhase: map[string]*obs.Histogram{}}
	if o := opt.Obs; o != nil && o.Registry != nil {
		e.cShards = o.Registry.Counter("shard.shards_done", "shard intervals completed")
		o.Registry.Gauge("shard.workers", "size of the shard worker pool").SetUint(uint64(opt.Workers))
		for _, phase := range spanPhases {
			e.hPhase[phase] = o.Registry.Histogram("shard.phase_seconds",
				"wall seconds per shard phase", obs.DefaultDurationBuckets,
				obs.Label{Name: "phase", Value: phase})
		}
	}
	return e, nil
}

// Run splits total committed instructions evenly across threads (low tids
// take the remainder) and runs the per-thread quotas sharded. Note the
// stop rule: unlike core.Limits.TotalInstructions, which lets thread
// progress float with machine throughput, a sharded run must fix each
// thread's instruction span up front so interval boundaries are
// deterministic. Every thread therefore commits exactly its quota,
// regardless of shard count — which is what makes monolithic (Shards: 1)
// and sharded runs of the same plan comparable instruction-for-instruction.
func (e *Engine) Run(total uint64) (*core.Results, error) {
	if total == 0 {
		return nil, fmt.Errorf("shard: need a positive instruction total")
	}
	return e.RunPerThread(splitEven(total, e.cfg.Threads))
}

// RunPerThread runs with explicit per-thread instruction quotas, each
// split into Options.Shards intervals.
func (e *Engine) RunPerThread(quotas []uint64) (*core.Results, error) {
	plans, err := plan(quotas, e.cfg.Threads, e.opt.Shards)
	if err != nil {
		return nil, err
	}
	warm := splitEven(e.cfg.Warmup, e.cfg.Threads)

	var prog *obs.Progress
	if e.opt.Obs != nil {
		prog = e.opt.Obs.Progress
		if r := e.opt.Obs.Registry; r != nil {
			r.Gauge("shard.shards", "shard intervals in the current plan").SetUint(uint64(len(plans)))
		}
	}
	prog.Phase("shards", uint64(len(plans)))

	// A fixed pool of identified workers (rather than a goroutine per
	// shard behind a semaphore) so the utilization timeline can attribute
	// each phase span to the worker that ran it. Shards are handed out in
	// plan order; results land at their plan index, so the merge — and
	// with it the final report — is independent of scheduling.
	results := make([]*core.Results, len(plans))
	checkpoints := make([]core.Checkpoint, len(plans))
	errs := make([]error, len(plans))
	base := time.Now()
	e.mu.Lock()
	e.spans = nil
	e.mu.Unlock()
	var done, cyclesSum uint64
	var progMu sync.Mutex
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.opt.Workers
	if workers > len(plans) {
		workers = len(plans)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				res, cp, err := e.runShard(w, j, base, plans[j], warm, e.opt.PartialTail && j < len(plans)-1)
				if err != nil {
					errs[j] = fmt.Errorf("shard %d/%d: %w", j, len(plans), err)
					continue
				}
				results[j] = res
				checkpoints[j] = cp
				e.cShards.Inc()
				progMu.Lock()
				done++
				cyclesSum += res.Cycles
				prog.Observe(done, cyclesSum)
				progMu.Unlock()
			}
		}(w)
	}
	for j := range plans {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	mergeStart := time.Since(base)
	e.mu.Lock()
	e.checkpoints = checkpoints
	e.mu.Unlock()
	merged := mergeResults(results)
	e.addSpan(obs.Span{Worker: -1, Shard: -1, Phase: "merge", Start: mergeStart, End: time.Since(base)})
	e.hPhase["merge"].Observe((time.Since(base) - mergeStart).Seconds())
	return merged, nil
}

// addSpan appends one phase span to the run's timeline; detached engines
// (no Options.Obs) record nothing.
func (e *Engine) addSpan(s obs.Span) {
	if e.opt.Obs == nil {
		return
	}
	e.mu.Lock()
	e.spans = append(e.spans, s)
	e.mu.Unlock()
}

// Timeline returns the per-worker phase spans of the most recent
// RunPerThread, suitable for obs.WriteChromeSpans. Spans are only
// recorded while Options.Obs is attached.
func (e *Engine) Timeline() []obs.Span {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]obs.Span(nil), e.spans...)
}

// runShard builds a fresh machine, functionally warms it to the shard's
// interval boundary, and simulates the interval in detail. worker and
// base attribute the phase spans on the utilization timeline.
func (e *Engine) runShard(worker, shard int, base time.Time, iv interval, warm []uint64, partialTail bool) (*core.Results, core.Checkpoint, error) {
	phaseStart := time.Since(base)
	endPhase := func(name string) {
		end := time.Since(base)
		e.addSpan(obs.Span{Worker: worker, Shard: shard, Phase: name, Start: phaseStart, End: end})
		e.hPhase[name].Observe((end - phaseStart).Seconds())
		phaseStart = end
	}

	srcs, err := e.factory()
	if err != nil {
		return nil, core.Checkpoint{}, fmt.Errorf("building sources: %w", err)
	}
	cfg := e.cfg
	cfg.Warmup = 0 // folded into the functional skip below
	proc, err := core.NewFromSources(cfg, srcs)
	if err != nil {
		return nil, core.Checkpoint{}, err
	}
	endPhase("sources")

	skip := make([]uint64, len(iv.start))
	for t := range skip {
		skip[t] = warm[t] + iv.start[t]
	}
	if err := proc.FunctionalWarmup(skip, e.opt.WarmupWindow); err != nil {
		return nil, core.Checkpoint{}, err
	}
	cp := proc.Checkpoint()
	endPhase("warmup")

	res, err := proc.Run(core.Limits{PerThread: iv.length, PartialTail: partialTail})
	if err != nil {
		return nil, core.Checkpoint{}, err
	}
	endPhase("run")
	return res, cp, nil
}

// Checkpoints returns the interval-boundary checkpoints of the most recent
// run, one per shard in interval order. Two runs of the same engine
// produce equal checkpoints — the determinism the shard tests assert.
func (e *Engine) Checkpoints() []core.Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]core.Checkpoint, len(e.checkpoints))
	copy(out, e.checkpoints)
	return out
}
