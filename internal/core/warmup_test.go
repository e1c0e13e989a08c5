package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/pipeline"
)

func TestWarmupImprovesBranchAccuracy(t *testing.T) {
	cold := runMix(t, []string{"eon"}, "ICOUNT", 30_000)

	cfg := DefaultConfig(1)
	cfg.Warmup = 100_000
	proc, err := New(cfg, profilesFor(t, []string{"eon"}))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := proc.Run(Limits{TotalInstructions: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total < 30_000 || warm.Total > 30_000+8 {
		t.Fatalf("measured %d instructions, want ~30000", warm.Total)
	}
	if warm.Thread[0].MispredictRate() >= cold.Thread[0].MispredictRate() {
		t.Errorf("warm mispredict rate %.3f not below cold %.3f",
			warm.Thread[0].MispredictRate(), cold.Thread[0].MispredictRate())
	}
	if warm.IPC() <= cold.IPC() {
		t.Errorf("warm IPC %.3f not above cold %.3f", warm.IPC(), cold.IPC())
	}
}

func TestWarmupStatsCoverOnlyMeasurement(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Warmup = 10_000
	proc, err := New(cfg, profilesFor(t, []string{"bzip2", "eon"}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := proc.Run(Limits{TotalInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, c := range res.Committed {
		sum += c
	}
	if sum != res.Total || res.Total < 10_000 || res.Total > 10_000+8 {
		t.Fatalf("committed %v (total %d), want ~10000 measured", res.Committed, res.Total)
	}
	// AVFs still well-formed after the rebase.
	for _, s := range avf.Structs() {
		a := res.StructAVF(s)
		if a < 0 || a > 1 {
			t.Errorf("%v AVF %v out of range after warmup", s, a)
		}
		if a > res.AVF.Occ[s]+1e-9 {
			t.Errorf("%v AVF %v exceeds occupancy %v", s, a, res.AVF.Occ[s])
		}
	}
}

func TestWarmupRejectsPerThreadQuotas(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Warmup = 1_000
	proc, err := New(cfg, profilesFor(t, []string{"bzip2"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.Run(Limits{PerThread: []uint64{100}}); err == nil {
		t.Fatal("warmup + per-thread quotas accepted")
	}
}

func TestWarmupReproducible(t *testing.T) {
	run := func() *Results {
		cfg := DefaultConfig(1)
		cfg.Warmup = 5_000
		proc, err := New(cfg, profilesFor(t, []string{"gcc"}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := proc.Run(Limits{TotalInstructions: 5_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	if math.Abs(a.StructAVF(avf.IQ)-b.StructAVF(avf.IQ)) > 0 {
		t.Fatal("AVF differs between identical warm runs")
	}
}

// warmupProbe is a sink or retire observer that counts what it hears
// before its Rebase and digests what it hears after it.
type warmupProbe struct {
	before, after, rebases int
	digest                 hash.Hash64
}

func (p *warmupProbe) hear(vals ...uint64) {
	if p.rebases == 0 {
		p.before++
		return
	}
	p.after++
	for _, v := range vals {
		p.digest.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
}

func (p *warmupProbe) Rebase(cycle uint64) {
	p.rebases++
	p.after = 0
	p.digest = fnv.New64a()
	p.hear(cycle)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type sinkProbe struct{ warmupProbe }

func (p *sinkProbe) Interval(s avf.Struct, tid int, bits, start, end uint64, ace bool) {
	p.hear(uint64(s), uint64(tid), bits, start, end, b2u(ace))
}

type observerProbe struct{ warmupProbe }

func (p *observerProbe) Record(pl *pipeline.Pool, id pipeline.UID, retire uint64, squashed bool) {
	p.hear(pl.GSeq[id], uint64(pl.TID[id]), pl.Ins[id].PC, retire, b2u(squashed), uint64(pl.Fate(id, squashed)))
}

// TestWarmupSilence attaches a sink and a retire observer to a run with a
// warmup: neither may hear anything before its Rebase, and what each hears
// after it must be what it heard when both were fed through the warmup and
// left to discard it. The pinned digests were taken that way, when the
// sink heard 52,526 warmup intervals and the observer 17,518 warmup uops.
func TestWarmupSilence(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Warmup = 5_000
	proc, err := New(cfg, profilesFor(t, []string{"bzip2", "eon"}))
	if err != nil {
		t.Fatal(err)
	}
	sink, obs := &sinkProbe{}, &observerProbe{}
	proc.AttachSink(sink)
	proc.AttachObserver(obs)
	if _, err := proc.Run(Limits{TotalInstructions: 5_000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		p      *warmupProbe
		digest uint64
	}{
		{"sink", &sink.warmupProbe, 0x2e0e75648b044ca4},
		{"observer", &obs.warmupProbe, 0x2be4f8cdb2206587},
	} {
		if c.p.before != 0 || c.p.rebases != 1 || c.p.after < 100 {
			t.Fatalf("%s heard %d calls before its rebase, %d rebases and %d calls after, want 0, 1 and at least 100",
				c.name, c.p.before, c.p.rebases, c.p.after)
		}
		if got := c.p.digest.Sum64(); got != c.digest {
			t.Errorf("%s heard %d calls after the rebase with digest %#x, want %#x", c.name, c.p.after, got, c.digest)
		}
	}
}
