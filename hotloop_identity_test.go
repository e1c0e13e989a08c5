// Bit-identity contract of the zero-allocation hot loop (docs/performance.md).
//
// The event-driven IQ wakeup, uop pooling, and scratch-buffer reuse are pure
// mechanical optimizations: they must not move a single reported number. This
// test pins the full result surface — cycles, committed counts, per-structure
// AVF, and per-thread AVF — of a spread of seed workloads to digests recorded
// from the pre-optimization engine (commit e68affd), covering both stop
// rules (a machine-wide total and per-thread quotas) and every squash-heavy
// policy.
//
// To regenerate after an INTENTIONAL modeling change (never after a pure
// perf change), run:
//
//	SMTAVF_WRITE_GOLDEN=1 go test -run TestHotLoopBitIdentity -v .
//
// and paste the printed table over hotLoopGolden.
package smtavf_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"smtavf"
)

// resultDigest folds every reported figure of a run into one order-sensitive
// 64-bit hash, FNV-1a over little-endian words: any bit of drift in cycles,
// committed counts, per-structure AVF, or per-thread AVF changes the digest.
func resultDigest(res *smtavf.Results) uint64 {
	h := fnv.New64a()
	mix := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	mix(res.Cycles)
	mix(res.Total)
	for _, c := range res.Committed {
		mix(c)
	}
	for _, s := range smtavf.Structs() {
		mix(math.Float64bits(res.StructAVF(s)))
		for tid := 0; tid < res.Threads; tid++ {
			mix(math.Float64bits(res.AVF.ThreadAVF(s, tid)))
		}
	}
	return h.Sum64()
}

// hotLoopCase is one pinned workload: a (config, workload, run) triple whose
// result digest must never move under performance work.
type hotLoopCase struct {
	name     string
	contexts int
	policy   string
	benches  []string
	warmup   uint64
	// iqPartition statically caps each thread's IQ entries (0: shared).
	iqPartition int
	// run: total instructions (Run) or per-thread quotas (RunPerThread).
	total     uint64
	perThread []uint64
}

var hotLoopCases = []hotLoopCase{
	// The BenchmarkSimulatorCycles workload itself.
	{name: "icount-mix4", contexts: 4, policy: "ICOUNT",
		benches: []string{"gcc", "mcf", "vpr", "perlbmk"}, total: 8000},
	// FLUSH exercises the L2-miss squash path (IQ removal mid-wakeup).
	{name: "flush-mem4", contexts: 4, policy: "FLUSH",
		benches: []string{"mcf", "equake", "vpr", "swim"}, total: 8000},
	// STALLP exercises the miss predictors and fetch gating.
	{name: "stallp-mix2-warm", contexts: 2, policy: "STALLP",
		benches: []string{"gcc", "mcf"}, warmup: 2000, total: 6000},
	// Static IQ partition caps interact with CanInsert and the ready set.
	{name: "icount-partition", contexts: 4, policy: "ICOUNT",
		benches: []string{"gcc", "mcf", "vpr", "perlbmk"}, total: 8000,
		iqPartition: 24},
	// The per-thread stop rule (Figures 3–4's single-thread replays): each
	// thread retires at its own quota while the others keep running.
	{name: "perthread-mix4", contexts: 4, policy: "ICOUNT",
		benches:   []string{"gcc", "mcf", "vpr", "perlbmk"},
		perThread: []uint64{5000, 5000, 5000, 5000}},
}

// hotLoopGolden pins the digest of every case, recorded from the
// pre-optimization engine (commit e68affd, sort-and-scan IQ, one heap uop
// per fetched instruction). perthread-mix4 was recorded later, from the
// engine at 6e37061.
var hotLoopGolden = map[string]uint64{
	"icount-mix4":      0x57fe96783ae944f5,
	"flush-mem4":       0x7469b1c1492c8e8b,
	"stallp-mix2-warm": 0xb65251ebcade5859,
	"icount-partition": 0xa7a94460c4351695,
	"perthread-mix4":   0xc345e3725907889e,
}

func runHotLoopCase(t *testing.T, c hotLoopCase) *smtavf.Results {
	t.Helper()
	cfg := smtavf.DefaultConfig(c.contexts)
	cfg.Seed = 1
	cfg.Warmup = c.warmup
	cfg.IQPartition = c.iqPartition
	if err := cfg.SetPolicy(c.policy); err != nil {
		t.Fatal(err)
	}
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks(c.benches...))
	if err != nil {
		t.Fatal(err)
	}
	var res *smtavf.Results
	if c.perThread != nil {
		res, err = sim.RunPerThread(c.perThread)
	} else {
		res, err = sim.Run(c.total)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHotLoopBitIdentity asserts that the optimized engine reproduces the
// pre-optimization engine's results byte for byte on the pinned workloads.
func TestHotLoopBitIdentity(t *testing.T) {
	if os.Getenv("SMTAVF_WRITE_GOLDEN") != "" {
		for _, c := range hotLoopCases {
			res := runHotLoopCase(t, c)
			fmt.Printf("\t%q: %#016x,\n", c.name, resultDigest(res))
		}
		t.Skip("golden digests printed; paste over hotLoopGolden")
	}
	for _, c := range hotLoopCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, ok := hotLoopGolden[c.name]
			if !ok {
				t.Fatalf("no golden digest recorded for %q", c.name)
			}
			res := runHotLoopCase(t, c)
			if got := resultDigest(res); got != want {
				t.Errorf("result digest %#016x, want %#016x — the hot-loop "+
					"optimizations changed a reported figure (cycles=%d total=%d)",
					got, want, res.Cycles, res.Total)
			}
		})
	}
}

// TestHotLoopDeterminism runs each pinned workload twice in one process and
// requires identical digests: the uop pool and waiter lists must not leak
// state between runs or depend on allocation order.
func TestHotLoopDeterminism(t *testing.T) {
	for _, c := range hotLoopCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := resultDigest(runHotLoopCase(t, c))
			b := resultDigest(runHotLoopCase(t, c))
			if a != b {
				t.Errorf("same-process reruns diverge: %#016x vs %#016x", a, b)
			}
		})
	}
}
