package core

import (
	"math"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/isa"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

// scriptGen repeats a fixed instruction pattern forever, assigning
// sequence numbers and PCs. Patterns must not contain CTIs (the PCs are
// synthesized linearly).
type scriptGen struct {
	name string
	ins  []isa.Instruction
	i    uint64
}

func (g *scriptGen) Name() string { return g.name }
func (g *scriptGen) Next() isa.Instruction {
	in := g.ins[g.i%uint64(len(g.ins))]
	in.Seq = g.i
	in.PC = 0x400000 + (g.i%uint64(len(g.ins)))*4
	g.i++
	return in
}

func alu(dest, src isa.RegID) isa.Instruction {
	return isa.Instruction{Class: isa.IntALU, Src1: src, Src2: isa.RegNone, Dest: dest}
}

func scriptedProc(t *testing.T, cfg Config, patterns ...[]isa.Instruction) *Processor {
	t.Helper()
	srcs := make([]Source, len(patterns))
	for i, p := range patterns {
		srcs[i] = Source{Gen: &scriptGen{name: "script", ins: p}}
	}
	proc, err := NewFromSources(cfg, srcs)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func profilesFor(t testing.TB, names []string) []trace.Profile {
	t.Helper()
	var out []trace.Profile
	for _, n := range names {
		p, err := workload.Profile(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func runMix(t *testing.T, names []string, policy string, instrs uint64) *Results {
	t.Helper()
	cfg := DefaultConfig(len(names))
	if err := cfg.SetPolicy(policy); err != nil {
		t.Fatal(err)
	}
	proc, err := New(cfg, profilesFor(t, names))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.Run(Limits{TotalInstructions: instrs})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIndependentALUThroughput(t *testing.T) {
	// Fully independent single-source ALU ops: the 8-wide machine should
	// sustain several IPC on one thread.
	pattern := []isa.Instruction{
		alu(5, 1), alu(6, 2), alu(7, 3), alu(8, 4),
		alu(9, 1), alu(10, 2), alu(11, 3), alu(12, 4),
	}
	proc := scriptedProc(t, DefaultConfig(1), pattern)
	res, err := proc.Run(Limits{TotalInstructions: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc < 4 {
		t.Errorf("independent ALU IPC = %.2f, want >= 4", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// r5 = f(r5): a pure dependence chain can never exceed IPC 1.
	pattern := []isa.Instruction{alu(5, 5)}
	proc := scriptedProc(t, DefaultConfig(1), pattern)
	res, err := proc.Run(Limits{TotalInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if ipc := res.IPC(); ipc > 1.01 {
		t.Errorf("dependence chain IPC = %.2f, want <= 1", ipc)
	}
	if ipc := res.IPC(); ipc < 0.8 {
		t.Errorf("dependence chain IPC = %.2f, unexpectedly slow", ipc)
	}
}

func TestNOPsProduceNoACE(t *testing.T) {
	pattern := []isa.Instruction{{Class: isa.NOP, Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.RegNone}}
	proc := scriptedProc(t, DefaultConfig(1), pattern)
	res, err := proc.Run(Limits{TotalInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.StructAVF(avf.IQ) != 0 || res.StructAVF(avf.ROB) != 0 {
		t.Errorf("NOPs contributed ACE: IQ=%v ROB=%v", res.StructAVF(avf.IQ), res.StructAVF(avf.ROB))
	}
	if res.AVF.Occ[avf.ROB] == 0 {
		t.Error("NOPs should still occupy the ROB")
	}
}

func TestDeadResultsAreUnACE(t *testing.T) {
	dead := alu(isa.IntScratch, 1)
	dead.Dead = true
	proc := scriptedProc(t, DefaultConfig(1), []isa.Instruction{dead})
	res, err := proc.Run(Limits{TotalInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.StructAVF(avf.IQ) != 0 {
		t.Errorf("dead instructions contributed IQ ACE: %v", res.StructAVF(avf.IQ))
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	st := isa.Instruction{Class: isa.Store, Src1: 1, Src2: 2, Dest: isa.RegNone, Addr: 0x1000_0000, Size: 8}
	ld := isa.Instruction{Class: isa.Load, Src1: 1, Src2: isa.RegNone, Dest: 5, Addr: 0x1000_0000, Size: 8}
	proc := scriptedProc(t, DefaultConfig(1), []isa.Instruction{st, ld})
	res, err := proc.Run(Limits{TotalInstructions: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Thread[0].LoadForwards == 0 {
		t.Error("no store-to-load forwarding on a store/load pair to one address")
	}
}

func TestReproducibility(t *testing.T) {
	a := runMix(t, []string{"bzip2", "mcf"}, "ICOUNT", 20_000)
	b := runMix(t, []string{"bzip2", "mcf"}, "ICOUNT", 20_000)
	if a.Cycles != b.Cycles || a.Total != b.Total {
		t.Fatalf("runs differ: %d/%d vs %d/%d cycles/instrs", a.Cycles, a.Total, b.Cycles, b.Total)
	}
	for _, s := range avf.Structs() {
		if a.StructAVF(s) != b.StructAVF(s) {
			t.Fatalf("%v AVF differs between identical runs", s)
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Seed = 2
	proc, err := New(cfg, profilesFor(t, []string{"bzip2"}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := proc.Run(Limits{TotalInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	a := runMix(t, []string{"bzip2"}, "ICOUNT", 20_000) // seed 1
	if a.Cycles == b.Cycles {
		t.Log("warning: different seeds produced identical cycle counts (possible but unlikely)")
	}
}

func TestAVFsWithinBounds(t *testing.T) {
	res := runMix(t, []string{"gcc", "mcf", "vpr", "perlbmk"}, "ICOUNT", 40_000)
	for _, s := range avf.Structs() {
		a := res.StructAVF(s)
		if a < 0 || a > 1 {
			t.Errorf("%v AVF %v out of [0,1]", s, a)
		}
		if occ := res.AVF.Occ[s]; a > occ+1e-9 {
			t.Errorf("%v AVF %v exceeds occupancy %v", s, a, occ)
		}
	}
}

func TestThreadAVFPartition(t *testing.T) {
	res := runMix(t, []string{"bzip2", "eon", "gcc", "perlbmk"}, "ICOUNT", 40_000)
	for _, s := range avf.Structs() {
		sum := 0.0
		for tid := 0; tid < res.Threads; tid++ {
			sum += res.AVF.ThreadAVF(s, tid)
		}
		if math.Abs(sum-res.StructAVF(s)) > 1e-9 {
			t.Errorf("%v: thread contributions %v != total %v", s, sum, res.StructAVF(s))
		}
	}
}

func TestSMTBeatsSingleThreadOnCPUWork(t *testing.T) {
	st := runMix(t, []string{"bzip2"}, "ICOUNT", 30_000)
	smt := runMix(t, []string{"bzip2", "eon", "gcc", "perlbmk"}, "ICOUNT", 60_000)
	if smt.IPC() <= st.IPC() {
		t.Errorf("SMT IPC %.2f <= single-thread IPC %.2f on CPU-bound work", smt.IPC(), st.IPC())
	}
}

func TestMemWorkRaisesIQAVF(t *testing.T) {
	cpu := runMix(t, []string{"bzip2", "eon", "gcc", "perlbmk"}, "ICOUNT", 60_000)
	mem := runMix(t, []string{"mcf", "equake", "vpr", "swim"}, "ICOUNT", 60_000)
	if mem.StructAVF(avf.IQ) <= cpu.StructAVF(avf.IQ) {
		t.Errorf("MEM IQ AVF %.3f <= CPU IQ AVF %.3f (paper expects higher)",
			mem.StructAVF(avf.IQ), cpu.StructAVF(avf.IQ))
	}
	if mem.StructAVF(avf.FU) >= cpu.StructAVF(avf.FU) {
		t.Errorf("MEM FU AVF %.3f >= CPU FU AVF %.3f (paper expects lower)",
			mem.StructAVF(avf.FU), cpu.StructAVF(avf.FU))
	}
}

func TestFlushSlashesIQAVFOnMemWork(t *testing.T) {
	names := []string{"mcf", "equake", "vpr", "swim"}
	base := runMix(t, names, "ICOUNT", 40_000)
	fl := runMix(t, names, "FLUSH", 40_000)
	if fl.StructAVF(avf.IQ) >= 0.5*base.StructAVF(avf.IQ) {
		t.Errorf("FLUSH IQ AVF %.3f not well below ICOUNT's %.3f",
			fl.StructAVF(avf.IQ), base.StructAVF(avf.IQ))
	}
	if fl.StructAVF(avf.ROB) >= 0.5*base.StructAVF(avf.ROB) {
		t.Errorf("FLUSH ROB AVF %.3f not well below ICOUNT's %.3f",
			fl.StructAVF(avf.ROB), base.StructAVF(avf.ROB))
	}
	if fl.Thread[0].Flushes == 0 && fl.Thread[1].Flushes == 0 {
		t.Error("FLUSH policy never flushed on a memory-bound mix")
	}
}

func TestAllPoliciesRunClean(t *testing.T) {
	names := []string{"gcc", "mcf"}
	for _, pol := range []string{"ICOUNT", "STALL", "FLUSH", "DG", "PDG", "DWarn", "STALLP"} {
		res := runMix(t, names, pol, 20_000)
		if res.Total < 20_000 {
			t.Errorf("%s committed only %d", pol, res.Total)
		}
		if res.Policy != pol {
			t.Errorf("results report policy %q", res.Policy)
		}
	}
}

func TestPerThreadQuotas(t *testing.T) {
	cfg := DefaultConfig(2)
	proc, err := New(cfg, profilesFor(t, []string{"bzip2", "eon"}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.Run(Limits{PerThread: []uint64{5_000, 8_000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed[0] != 5_000 || res.Committed[1] != 8_000 {
		t.Fatalf("committed %v, want [5000 8000]", res.Committed)
	}
}

func TestRunRequiresLimit(t *testing.T) {
	proc, err := New(DefaultConfig(1), profilesFor(t, []string{"bzip2"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(Limits{}); err == nil {
		t.Fatal("limitless run accepted")
	}
}

func TestPerThreadLimitLengthChecked(t *testing.T) {
	proc, err := New(DefaultConfig(2), profilesFor(t, []string{"bzip2", "eon"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(Limits{PerThread: []uint64{1}}); err == nil {
		t.Fatal("mismatched per-thread limits accepted")
	}
}

func TestMaxCyclesEnforced(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxCycles = 100
	proc, err := New(cfg, profilesFor(t, []string{"mcf"}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = proc.Run(Limits{TotalInstructions: 1 << 40})
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("err = %v, want MaxCycles error", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Threads = 0 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IQSize = 0 },
		func(c *Config) { c.IntPhysRegs = 10 },
		func(c *Config) { c.FPPhysRegs = 10 },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.FrontEndDepth = 0 },
		func(c *Config) { c.MaxFetchThreads = 0 },
	}
	for i, f := range bad {
		cfg := DefaultConfig(2)
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	good := DefaultConfig(4)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(DefaultConfig(2), profilesFor(t, []string{"bzip2"})); err == nil {
		t.Error("profile/thread count mismatch accepted")
	}
	if _, err := NewFromSources(DefaultConfig(1), []Source{{}}); err == nil {
		t.Error("nil generator accepted")
	}
	cfg := DefaultConfig(1)
	cfg.Threads = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSetPolicy(t *testing.T) {
	cfg := DefaultConfig(1)
	if err := cfg.SetPolicy("FLUSH"); err != nil || cfg.Policy.Name() != "FLUSH" {
		t.Fatalf("SetPolicy failed: %v", err)
	}
	if err := cfg.SetPolicy("NOPE"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestResultsRendering(t *testing.T) {
	res := runMix(t, []string{"bzip2", "eon"}, "ICOUNT", 10_000)
	s := res.String()
	for _, want := range []string{"policy=ICOUNT", "bzip2", "eon", "IQ", "DL1_tag", "machine:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestIQPartitionAblation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.IQPartition = 24 // static quarter per thread
	proc, err := New(cfg, profilesFor(t, []string{"bzip2", "eon", "gcc", "perlbmk"}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.Run(Limits{TotalInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 20_000 {
		t.Fatalf("partitioned IQ run committed %d", res.Total)
	}
}

func TestDeadlockDetector(t *testing.T) {
	// A machine whose loads can never issue (no load/store units) wedges;
	// the detector must report it rather than spin forever.
	cfg := DefaultConfig(1)
	cfg.FUCounts[isa.FULoadStore] = 0
	proc, err := New(cfg, profilesFor(t, []string{"bzip2"}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = proc.Run(Limits{TotalInstructions: 10_000})
	if err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("err = %v, want wedged-pipeline error", err)
	}
}

func TestEfficiencyHelpers(t *testing.T) {
	res := runMix(t, []string{"bzip2", "eon"}, "ICOUNT", 10_000)
	if res.Efficiency(avf.IQ) <= 0 {
		t.Error("IQ efficiency should be positive")
	}
	for tid := 0; tid < 2; tid++ {
		if res.ThreadIPC(tid) <= 0 {
			t.Errorf("thread %d IPC zero", tid)
		}
		if res.ThreadEfficiency(avf.IQ, tid) <= 0 {
			t.Errorf("thread %d IQ efficiency zero", tid)
		}
	}
	// Private structures scale per-thread AVF by thread count.
	priv := res.ThreadStructAVF(avf.ROB, 0)
	contrib := res.AVF.ThreadAVF(avf.ROB, 0)
	if math.Abs(priv-2*contrib) > 1e-12 {
		t.Errorf("private-structure scaling wrong: %v vs %v", priv, contrib)
	}
}
