// Package core implements the reliability-aware SMT processor simulator:
// an out-of-order, simultaneous-multithreaded pipeline whose every
// instrumented structure feeds the ACE/un-ACE residency accounting of
// package avf. This is the paper's primary contribution — the framework
// that produces the per-structure, per-thread AVF and performance numbers
// behind Figures 1–8.
package core

import (
	"fmt"

	"smtavf/internal/fetch"
	"smtavf/internal/isa"
	"smtavf/internal/mem"
	"smtavf/internal/pipeline"
)

// Config parameterizes the simulated machine. DefaultConfig reproduces the
// paper's Table 1.
type Config struct {
	Threads int // hardware contexts (1 = superscalar baseline)

	// Pipeline widths and depth.
	FetchWidth      int // instructions fetched per cycle (8)
	MaxFetchThreads int // threads sharing fetch bandwidth per cycle (2: ICOUNT2.8)
	DispatchWidth   int
	IssueWidth      int
	CommitWidth     int
	FrontEndDepth   int // fetch→dispatch latency in cycles (pipeline depth 7)
	FetchQueue      int // per-thread fetch buffer capacity

	// Structure capacities.
	IQSize      int // shared issue queue entries
	IQPartition int // static per-thread IQ cap; 0 = fully shared (ablation)
	ROBSize     int // per-thread reorder buffer entries
	LSQSize     int // per-thread load/store queue entries
	IntPhysRegs int // shared integer physical registers
	FPPhysRegs  int // shared floating-point physical registers
	FUCounts    [isa.NumFUKinds]int

	// Predictors.
	GshareEntries   int
	GshareHistBits  uint
	BTBEntries      int
	BTBWays         int
	RASEntries      int
	MissPredEntries int // L1D / L2 miss predictor size (PDG, STALLP)

	// Memory hierarchy.
	IL1        mem.Config
	DL1        mem.Config
	L2         mem.Config
	MemLatency int
	ITLB       mem.TLBConfig
	DTLB       mem.TLBConfig

	// Policy is the instruction fetch policy (default ICOUNT).
	Policy fetch.Policy

	// Bits are the per-entry widths for AVF accounting.
	Bits pipeline.Bits

	// Seed makes runs reproducible; workload streams derive from it.
	Seed uint64

	// MaxCycles aborts a run that exceeds it (0 = 1<<40). The deadlock
	// detector fires much earlier if commit stops entirely.
	MaxCycles uint64

	// PhaseInterval, when nonzero, samples per-interval IPC and AVF every
	// PhaseInterval cycles into Results.Phases — the AVF phase-behaviour
	// view of Fu et al. (MASCOTS 2006), which the paper builds on. Note
	// that residency is booked when state *leaves* a structure, so a long
	// stall's contribution lands in the phase where it ends. The phases
	// are the measured telemetry windows, so with a collector attached
	// PhaseInterval must equal its window (Run refuses a mismatch); without
	// one it sets the window clock's period.
	PhaseInterval uint64

	// Warmup commits this many instructions before measurement begins,
	// then resets every statistic (AVF accounting, performance counters,
	// cache/predictor statistics — the predictors and caches themselves
	// stay warm). It plays the role of the paper's SimPoint fast-forward:
	// without it, cold predictors and caches dominate short runs. Not
	// combinable with per-thread quotas.
	Warmup uint64
}

// DefaultConfig returns the paper's Table 1 machine with the given number
// of thread contexts and the ICOUNT baseline fetch policy.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:         threads,
		FetchWidth:      8,
		MaxFetchThreads: 2,
		DispatchWidth:   8,
		IssueWidth:      8,
		CommitWidth:     8,
		FrontEndDepth:   4, // 7-deep pipe: 4 front-end stages before issue
		// The fetch buffer must cover FetchWidth × FrontEndDepth in-flight
		// instructions or it throttles steady-state fetch bandwidth.
		FetchQueue:      40,
		IQSize:          96,
		ROBSize:         96,
		LSQSize:         48,
		IntPhysRegs:     448,
		FPPhysRegs:      448,
		FUCounts:        pipeline.DefaultFUCounts(),
		GshareEntries:   2048,
		GshareHistBits:  10,
		BTBEntries:      2048,
		BTBWays:         4,
		RASEntries:      32,
		MissPredEntries: 2048,
		IL1: mem.Config{
			Name: "IL1", Size: 32 << 10, Ways: 2, LineSize: 32,
			Latency: 1, Ports: 2,
		},
		DL1: mem.Config{
			Name: "DL1", Size: 64 << 10, Ways: 4, LineSize: 64,
			Latency: 1, Ports: 2,
		},
		L2: mem.Config{
			Name: "L2", Size: 2 << 20, Ways: 4, LineSize: 128,
			Latency: 12,
		},
		MemLatency: 200,
		ITLB: mem.TLBConfig{
			Name: "ITLB", Entries: 128, Ways: 4, PageSize: 4096,
			MissPenalty: 200,
		},
		DTLB: mem.TLBConfig{
			Name: "DTLB", Entries: 256, Ways: 4, PageSize: 4096,
			MissPenalty: 200,
		},
		Policy: fetch.ICount{},
		Bits:   pipeline.DefaultBits(),
		Seed:   1,
	}
}

// SetPolicy selects the fetch policy by name (ICOUNT, STALL, FLUSH, DG,
// PDG, DWarn, STALLP).
func (c *Config) SetPolicy(name string) error {
	p := fetch.ByName(name)
	if p == nil {
		return fmt.Errorf("core: unknown fetch policy %q", name)
	}
	c.Policy = p
	return nil
}

// Validate reports configuration errors before a Processor is built,
// including cache, TLB and BTB geometries the simulator cannot index.
func (c *Config) Validate() error {
	switch {
	case c.Threads < 1:
		return fmt.Errorf("core: Threads must be >= 1, got %d", c.Threads)
	case c.FetchWidth < 1 || c.DispatchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("core: pipeline widths must be >= 1")
	case c.IQSize < 1 || c.ROBSize < 1 || c.LSQSize < 1:
		return fmt.Errorf("core: structure sizes must be >= 1")
	case c.IntPhysRegs < c.Threads*isa.NumIntRegs:
		return fmt.Errorf("core: %d integer physical registers cannot hold %d threads of architectural state",
			c.IntPhysRegs, c.Threads)
	case c.FPPhysRegs < c.Threads*isa.NumFPRegs:
		return fmt.Errorf("core: %d FP physical registers cannot hold %d threads of architectural state",
			c.FPPhysRegs, c.Threads)
	case c.Policy == nil:
		return fmt.Errorf("core: no fetch policy configured")
	case c.FrontEndDepth < 1:
		return fmt.Errorf("core: FrontEndDepth must be >= 1")
	case c.MaxFetchThreads < 1:
		return fmt.Errorf("core: MaxFetchThreads must be >= 1")
	case c.BTBEntries < 1 || c.BTBWays < 1:
		return fmt.Errorf("core: BTBEntries and BTBWays must be >= 1")
	}
	for _, g := range []struct {
		name string
		err  error
	}{
		{"IL1", c.IL1.Validate()}, {"DL1", c.DL1.Validate()}, {"L2", c.L2.Validate()},
		{"ITLB", c.ITLB.Validate()}, {"DTLB", c.DTLB.Validate()},
	} {
		if g.err != nil {
			return fmt.Errorf("core: %s: %w", g.name, g.err)
		}
	}
	return nil
}
