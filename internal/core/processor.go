package core

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/branch"
	"smtavf/internal/cpistack"
	"smtavf/internal/fetch"
	"smtavf/internal/mem"
	"smtavf/internal/pipeline"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
	"smtavf/internal/trace"
)

// deadlockWindow is the commit-silence span, in cycles, after which a run
// is declared wedged. It comfortably exceeds the worst serialized memory
// chain (TLB miss + L2 miss + memory ≈ 420 cycles).
const deadlockWindow = 200_000

// Source supplies one thread's instruction stream.
type Source struct {
	// Gen produces the correct-path trace.
	Gen trace.Generator
	// Wrong synthesizes wrong-path instructions after a misprediction.
	Wrong *trace.WrongPath
}

// Processor is the simulated SMT machine.
type Processor struct {
	cfg        Config
	policy     fetch.Policy
	policyPure bool // policy has no per-Order state; fetch may skip idle cycles

	threads []*thread
	pool    *pipeline.Pool
	iq      *pipeline.IQ
	rf      *pipeline.RegFile
	fus     *pipeline.FUPool

	gshares    []*branch.Gshare // private per thread (paper §3)
	btbs       []*branch.BTB
	l1MissPred *branch.MissPredictor
	l2MissPred *branch.MissPredictor

	il1, dl1, l2 *mem.Cache
	itlb, dtlb   *mem.TLB

	trk *avf.Tracker

	now      uint64
	gseq     uint64
	inflight []pipeline.UID // issued, not yet written back

	// Writeback early-exit state (docs/performance.md): the earliest
	// ReadyAt among in-flight uops, and the count of squashed uops parked
	// on inflight awaiting release. When no result can land this cycle and
	// nothing is pending release, writeback skips its scan entirely.
	wbMinReady uint64
	wbSquashed int

	commitRR   int
	dispatchRR int

	totalCommitted  uint64
	lastCommitCycle uint64
	totalQuota      uint64

	// Measurement window (Config.Warmup rebases these).
	measureStart  uint64
	warmCommitted uint64
	warmPerThread []uint64
	warmThread    []ThreadStats
	warmCounters  MachineCounters

	// The window clock (telemetry.go): every telCycles cycles one roll
	// feeds the collector (SetTelemetry; nil when detached) and phases
	// (Config.PhaseInterval). telNext is MaxUint64 when neither is set.
	tel       *telemetry.Collector
	telCycles uint64
	telBase   telemetrySnap
	telNext   uint64
	telIndex  int
	phases    []Phase

	// Retire observers (SetPipeTrace, SetPropagation, SetCPIStack,
	// AttachObserver) in attach order. Every classification site after the
	// warmup reports the retiring pool slot to each of them; with none
	// attached the loop is empty.
	observers []RetireObserver
	// warming is set while a warmup rebase is pending: the tracker's sinks
	// are muted and no observer is called (RetireObserver).
	warming bool

	// CPI-stack observer (SetCPIStack), also on the observer list. nil
	// when detached: the per-cycle attribution pass is skipped entirely.
	// cpiComps is per-cycle scratch, cpiPrev the per-thread counter
	// snapshots the attribution diffs against.
	cpi      *cpistack.Observer
	cpiComps []cpistack.Component
	cpiPrev  []cpiPrev

	// Per-cycle scratch, reused every cycle so the steady-state loop does
	// not allocate (docs/performance.md): fetchStates/fetchOrder feed the
	// fetch policy, issueBuf snapshots the IQ ready set, and flushBuf
	// collects the FLUSH-triggering loads of one issue pass.
	fetchStates []fetch.ThreadState
	fetchOrder  []int
	issueBuf    []pipeline.UID
	flushBuf    []pipeline.UID
}

// RetireObserver is a pipeline observer fed at every classification site
// (commit, squash, and end-of-run accounting) with the retiring pool slot,
// and rebased at the end of warmup together with the AVF tracker. Record
// must copy out what it keeps: the slot is recycled once it returns.
//
// Like the tracker's sinks (avf.RebaseObserver), an observer sees only the
// measurement window: during a warmup no observer is called, and Rebase
// must discard whatever Record kept before it.
type RetireObserver interface {
	Record(pl *pipeline.Pool, id pipeline.UID, retire uint64, squashed bool)
	Rebase(cycle uint64)
}

// New builds a processor running one synthetic benchmark per context.
// len(profiles) must equal cfg.Threads. Thread i's generators derive from
// cfg.Seed and i, so runs are exactly reproducible.
func New(cfg Config, profiles []trace.Profile) (*Processor, error) {
	srcs, err := Sources(cfg, profiles)
	if err != nil {
		return nil, err
	}
	return NewFromSources(cfg, srcs)
}

// Sources builds the per-thread instruction sources New derives from a
// profile list: thread i's generators are seeded from cfg.Seed and i, so
// any processor built from the same (cfg, profiles) pair replays the same
// program.
func Sources(cfg Config, profiles []trace.Profile) ([]Source, error) {
	if len(profiles) != cfg.Threads {
		return nil, fmt.Errorf("core: %d profiles for %d threads", len(profiles), cfg.Threads)
	}
	srcs := make([]Source, len(profiles))
	for i, p := range profiles {
		seed := cfg.Seed + uint64(i)*0x9e37
		srcs[i] = Source{
			Gen:   trace.NewSynthetic(p, seed),
			Wrong: trace.NewWrongPath(p, seed),
		}
	}
	return srcs, nil
}

// ReplaySources loads recorded traces (cmd/tracegen) as per-thread
// sources, one per path, each replaying its recording from the start.
func ReplaySources(paths []string) ([]Source, error) {
	srcs := make([]Source, 0, len(paths))
	for _, p := range paths {
		r, err := trace.LoadTraceFile(p)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, Source{Gen: r})
	}
	return srcs, nil
}

// NewFromSources builds a processor from explicit instruction sources,
// which lets tests drive the pipeline with scripted traces.
func NewFromSources(cfg Config, srcs []Source) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) != cfg.Threads {
		return nil, fmt.Errorf("core: %d sources for %d threads", len(srcs), cfg.Threads)
	}

	trk := avf.NewTracker(cfg.Threads, StructBits(cfg))
	// Pre-size the uop pool to the machine's worst-case in-flight
	// population: per thread the front-end queue, ROB, and a front-end
	// pipe's worth of slack (squashed uops can linger on inflight briefly).
	pool := pipeline.NewPool(cfg.Threads * (cfg.FetchQueue + cfg.ROBSize + cfg.FrontEndDepth))
	p := &Processor{
		cfg:        cfg,
		policy:     cfg.Policy,
		pool:       pool,
		iq:         pipeline.NewIQ(pool, cfg.IQSize, cfg.Threads, cfg.IQPartition),
		rf:         pipeline.NewRegFile(pool, cfg.IntPhysRegs, cfg.FPPhysRegs, cfg.Threads, trk, cfg.Bits),
		fus:        pipeline.NewFUPool(cfg.FUCounts),
		l1MissPred: branch.NewMissPredictor(cfg.MissPredEntries),
		l2MissPred: branch.NewMissPredictor(cfg.MissPredEntries),
		trk:        trk,
	}
	p.l2 = mem.New(cfg.L2, nil, cfg.MemLatency, nil, 0, 0)
	p.dl1 = mem.New(cfg.DL1, p.l2, 0, trk, avf.DL1Data, avf.DL1Tag)
	p.il1 = mem.New(cfg.IL1, p.l2, 0, nil, 0, 0)
	p.itlb = mem.NewTLB(cfg.ITLB, trk, avf.ITLB)
	p.dtlb = mem.NewTLB(cfg.DTLB, trk, avf.DTLB)

	for i, src := range srcs {
		if src.Gen == nil {
			return nil, fmt.Errorf("core: thread %d has no generator", i)
		}
		wrong := src.Wrong
		if wrong == nil {
			wrong = trace.NewWrongPath(trace.Profile{Name: src.Gen.Name()}, cfg.Seed+uint64(i))
		}
		t := &thread{
			id:       i,
			stream:   trace.NewStream(src.Gen),
			wrong:    wrong,
			offset:   threadOffset(i),
			fetchQ:   pipeline.NewRing(cfg.FetchQueue),
			rob:      pipeline.NewROB(pool, cfg.ROBSize),
			lsq:      pipeline.NewLSQ(pool, cfg.LSQSize),
			ras:      branch.NewRAS(cfg.RASEntries),
			wpBranch: pipeline.NoUID,
		}
		p.threads = append(p.threads, t)
		p.btbs = append(p.btbs, branch.NewBTB(cfg.BTBEntries, cfg.BTBWays))
		p.gshares = append(p.gshares, branch.NewGshare(cfg.GshareEntries, cfg.GshareHistBits, 1))
	}
	// Writeback-driven wakeup: a register write that satisfies a waiting
	// IQ entry's last operand moves it to the ready set.
	p.rf.SetWake(p.iq.MarkReady)
	p.wbMinReady = ^uint64(0)
	_, stateful := cfg.Policy.(fetch.Stateful)
	p.policyPure = !stateful
	p.fetchStates = make([]fetch.ThreadState, cfg.Threads)
	p.fetchOrder = make([]int, 0, cfg.Threads)
	p.issueBuf = make([]pipeline.UID, 0, cfg.IQSize)
	p.flushBuf = make([]pipeline.UID, 0, cfg.Threads)
	return p, nil
}

// StructBits computes the AVF denominator capacities — each structure's
// total bits — from the machine configuration. Fault-injection campaigns
// (internal/inject) need the same values the tracker is built with.
func StructBits(cfg Config) [avf.NumStructs]uint64 {
	var b [avf.NumStructs]uint64
	th := uint64(cfg.Threads)
	b[avf.IQ] = uint64(cfg.IQSize) * cfg.Bits.IQEntry
	b[avf.ROB] = th * uint64(cfg.ROBSize) * cfg.Bits.ROBEntry
	units := 0
	for _, c := range cfg.FUCounts {
		units += c
	}
	b[avf.FU] = uint64(units) * cfg.Bits.FUUnit
	b[avf.Reg] = uint64(cfg.IntPhysRegs+cfg.FPPhysRegs) * cfg.Bits.RegEntry
	b[avf.LSQData] = th * uint64(cfg.LSQSize) * cfg.Bits.LSQDataEntry
	b[avf.LSQTag] = th * uint64(cfg.LSQSize) * cfg.Bits.LSQTagEntry
	b[avf.DL1Data] = uint64(cfg.DL1.Size) * 8
	b[avf.DL1Tag] = uint64(cfg.DL1.Sets()*cfg.DL1.Ways) * uint64(cfg.DL1.TagBits())
	b[avf.DTLB] = uint64(cfg.DTLB.Entries) * uint64(cfg.DTLB.EntryBits())
	b[avf.ITLB] = uint64(cfg.ITLB.Entries) * uint64(cfg.ITLB.EntryBits())
	return b
}

// Limits bounds a run. The run ends when TotalInstructions have committed
// across all threads (the paper's stop rule), or earlier if every thread
// hits its per-thread quota.
type Limits struct {
	// TotalInstructions across all threads; 0 means unlimited (some
	// PerThread quota must then be set).
	TotalInstructions uint64
	// PerThread quotas; nil or 0 entries mean unlimited. A thread stops
	// at the commit that reaches its quota, so it commits exactly that.
	PerThread []uint64
}

// Run simulates until the limits are reached and returns the results.
func (p *Processor) Run(lim Limits) (*Results, error) {
	if lim.TotalInstructions == 0 && lim.PerThread == nil {
		return nil, fmt.Errorf("core: Run needs a total or per-thread instruction limit")
	}
	if lim.PerThread != nil && len(lim.PerThread) != len(p.threads) {
		return nil, fmt.Errorf("core: %d per-thread limits for %d threads", len(lim.PerThread), len(p.threads))
	}
	var err error
	if p.telCycles, err = p.windowCycles(); err != nil {
		return nil, err
	}
	for i, t := range p.threads {
		if lim.PerThread != nil {
			t.quota = lim.PerThread[i]
		}
	}
	p.totalQuota = lim.TotalInstructions
	maxCycles := p.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 40
	}
	p.lastCommitCycle = p.now

	guard := func() error {
		if p.now >= maxCycles {
			return fmt.Errorf("core: exceeded MaxCycles=%d (committed %d)", maxCycles, p.totalCommitted)
		}
		if p.now-p.lastCommitCycle > deadlockWindow {
			return fmt.Errorf("core: no commit for %d cycles at cycle %d (committed %d): pipeline wedged",
				deadlockWindow, p.now, p.totalCommitted)
		}
		return nil
	}

	p.telemetryStart()

	if p.cfg.Warmup > 0 {
		if lim.PerThread != nil {
			return nil, fmt.Errorf("core: Warmup cannot be combined with per-thread quotas")
		}
		// Every sink and observer discards in Rebase what it saw before,
		// so none hears the warmup.
		p.trk.MuteSinks()
		p.warming = true
		for p.totalCommitted < p.cfg.Warmup {
			if err := guard(); err != nil {
				return nil, fmt.Errorf("during warmup: %w", err)
			}
			p.step()
			if p.now >= p.telNext {
				p.telemetryRoll(false)
			}
		}
		p.rebaseMeasurement()
	}

	for !p.done() {
		if err := guard(); err != nil {
			return nil, err
		}
		p.step()
		if p.now >= p.telNext {
			p.telemetryRoll(false)
		}
	}
	p.closeAccounting()
	if p.telCycles > 0 {
		// The final roll runs after closeAccounting so the intervals of
		// still-in-flight state land in the last window, keeping its
		// cumulative AVF identical to the end-of-run report.
		p.telemetryRoll(true)
	}
	return p.results(), nil
}

// rebaseMeasurement marks the end of warmup: all statistics reset while
// the microarchitectural state (caches, predictors, in-flight pipeline)
// stays warm.
func (p *Processor) rebaseMeasurement() {
	if p.telCycles > 0 {
		// Close the partial warmup window before the accumulators reset,
		// so no window mixes warmup-era and measured intervals.
		p.telemetryRoll(false)
	}
	p.trk.Rebase(p.now) // unmutes the sinks; also rebases the cpistack observer
	p.warming = false
	for _, o := range p.observers {
		o.Rebase(p.now) // idempotent for the cpistack observer
	}
	p.measureStart = p.now
	p.warmCommitted = p.totalCommitted
	p.warmPerThread = make([]uint64, len(p.threads))
	p.warmThread = make([]ThreadStats, len(p.threads))
	for i, t := range p.threads {
		p.warmPerThread[i] = t.committed
		p.warmThread[i] = p.threadStats(t)
		t.vaLastACE = 0 // the tracker's counters were just zeroed
		t.recentACE = 0
	}
	p.warmCounters = p.counters()
	p.tel.Rebase(p.now)
	p.telemetryStart() // re-baseline: the tracker was just zeroed
}

// done reports whether the run limits are satisfied. The total-instruction
// quota counts only post-warmup commits.
func (p *Processor) done() bool {
	if p.totalQuota > 0 && p.totalCommitted-p.warmCommitted >= p.totalQuota {
		return true
	}
	all := true
	for _, t := range p.threads {
		if !t.done() {
			all = false
			break
		}
	}
	return all
}

// step advances the machine one cycle. Stages run back-to-front so that
// same-cycle structural hazards resolve like hardware: commit frees
// resources, writeback wakes consumers, issue drains the IQ, dispatch
// refills it, fetch replenishes the front end.

func (p *Processor) step() {
	p.commit()
	p.writeback()
	p.issue()
	p.dispatch()
	p.fetchStage()
	if p.cpi != nil {
		p.cpiAccount()
	}
	p.now++
}

// Now returns the current cycle.
func (p *Processor) Now() uint64 { return p.now }

// Tracker exposes the AVF tracker (tests and diagnostics).
func (p *Processor) Tracker() *avf.Tracker { return p.trk }

// AttachSink registers a positioned-interval observer (e.g. a fault
// injection campaign) on the AVF tracker, alongside any already attached.
// Call before Run; nil attaches nothing.
func (p *Processor) AttachSink(s avf.Sink) { p.trk.AddSink(s) }

// AttachObserver registers a retire observer after any already attached.
// Call before Run; nil attaches nothing.
func (p *Processor) AttachObserver(o RetireObserver) {
	if o != nil {
		p.observers = append(p.observers, o)
	}
}

// SetPipeTrace attaches a pipeline flight recorder; every uop leaving the
// machine is reported to it at the same three sites that feed the AVF
// tracker, so the recorder's provenance totals reconcile with the
// tracker's bit-cycle counts exactly. Call before Run; nil attaches
// nothing.
func (p *Processor) SetPipeTrace(r *pipetrace.Recorder) {
	if r == nil {
		return
	}
	r.SetBits(p.cfg.Bits)
	p.AttachObserver(r)
}

// SetPropagation attaches a fault-propagation tracer; it observes the
// same commit/squash/end-of-run population the flight recorder and the
// AVF tracker see, so offline strike traces resolve victims against
// exactly the accounted state. Call before Run; nil attaches nothing.
func (p *Processor) SetPropagation(t *propagation.Tracer) {
	if t == nil {
		return
	}
	t.Configure(p.cfg.Bits, p.cfg.DL1, p.cfg.Threads)
	p.AttachObserver(t)
}

// closeAccounting finalizes every open residency interval at the end of a
// run: in-flight uops are classified with the fate they were heading for
// (commit unless wrong-path), and the address structures close their
// resident entries.
func (p *Processor) closeAccounting() {
	pl := p.pool
	for _, t := range p.threads {
		for t.rob.Len() > 0 {
			u := t.rob.PopTail(p.now)
			if pl.Flags[u]&pipeline.FInIQ != 0 {
				p.iq.Remove(u, p.now)
				p.rf.Unwatch(u)
			}
			if pl.Meta[u].LSQIdx >= 0 {
				t.lsq.PopTail(p.now)
			}
			unACE := pl.Flags[u]&pipeline.FWrongPath != 0
			p.classifyUop(u, unACE)
			p.recordObservers(u, unACE)
		}
	}
	p.rf.CloseAccounting(p.now)
	p.dl1.CloseAccounting(p.now)
	p.itlb.CloseAccounting(p.now)
	p.dtlb.CloseAccounting(p.now)
}

// classifyUop retires slot u's residency accounting. With no interval
// sink listening it takes the batched occupancy path (Pool.ClassifyBatch →
// Tracker.AddSpan), which accumulates bit-cycle deltas and never emits
// positioned intervals; with a sink (a fault-injection campaign or the
// CPI-stack observer) it emits every interval through Pool.Classify in the
// classic order. The sinks are muted during a warmup, so warmup-era uops
// take the batched path too. The check is per-call, so a sink attached
// mid-run switches paths at the next classification with no pending-state
// handoff — the tracker drains its batch on first read.
func (p *Processor) classifyUop(u pipeline.UID, squashed bool) {
	if p.trk.HasSink() {
		p.pool.Classify(p.trk, p.cfg.Bits, u, squashed)
	} else {
		p.pool.ClassifyBatch(p.trk, p.cfg.Bits, u, squashed)
	}
}

// recordObservers reports slot u to every retire observer at a
// classification site, outside a warmup.
func (p *Processor) recordObservers(u pipeline.UID, squashed bool) {
	if p.warming {
		return
	}
	for _, o := range p.observers {
		o.Record(p.pool, u, p.now, squashed)
	}
}
