package inject

import (
	"math"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
	"smtavf/internal/telemetry"
)

// fill books a constant pattern into the campaign: structure s fully
// occupied, with aceBits of its bits ACE, split across threads by shares.
func fill(t *testing.T, c *Campaign, s avf.Struct, cycles uint64, shares map[int]uint64) {
	t.Helper()
	var occ uint64
	for tid, b := range shares {
		c.Interval(s, tid, b, 0, cycles, true)
		occ += b
	}
	if rest := c.bits[s] - occ; rest > 0 {
		c.Interval(s, 0, rest, 0, cycles, false)
	}
}

func TestZQuantile(t *testing.T) {
	cases := []struct {
		conf, want float64
	}{
		{0.90, 1.6448536},
		{0.95, 1.9599640},
		{0.99, 2.5758293},
		{0.999, 3.2905267},
	}
	for _, c := range cases {
		if got := zQuantile(c.conf); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("zQuantile(%.3f) = %.7f, want %.7f", c.conf, got, c.want)
		}
	}
	// Out-of-range confidence falls back to the 99% quantile.
	if got := zQuantile(1.5); math.Abs(got-2.5758293) > 1e-6 {
		t.Errorf("zQuantile(1.5) = %v, want the 99%% fallback", got)
	}
}

func TestWilson(t *testing.T) {
	// Against the standard worked example: 10/100 at 95%.
	lo, hi := Wilson(10, 100, 0.95)
	if math.Abs(lo-0.0552) > 5e-4 || math.Abs(hi-0.1744) > 5e-4 {
		t.Errorf("Wilson(10,100,.95) = [%.4f,%.4f], want ≈[0.0552,0.1744]", lo, hi)
	}
	// Degenerate counts stay in [0,1] and keep positive width.
	if lo, hi := Wilson(0, 50, 0.99); lo != 0 || hi <= 0 {
		t.Errorf("Wilson(0,50) = [%v,%v]", lo, hi)
	}
	if lo, hi := Wilson(50, 50, 0.99); hi != 1 || lo >= 1 {
		t.Errorf("Wilson(50,50) = [%v,%v]", lo, hi)
	}
	if lo, hi := Wilson(0, 0, 0.99); lo != 0 || hi != 1 {
		t.Errorf("Wilson(0,0) = [%v,%v], want the vacuous [0,1]", lo, hi)
	}
	// Interval contains the point estimate and narrows with n.
	_, hi1 := Wilson(100, 1000, 0.99)
	lo1, _ := Wilson(100, 1000, 0.99)
	lo2, hi2 := Wilson(1000, 10000, 0.99)
	if hi2-lo2 >= hi1-lo1 {
		t.Errorf("CI should narrow with n: %v vs %v", hi2-lo2, hi1-lo1)
	}
}

func TestDetectionOutcomes(t *testing.T) {
	if got := DetectNone.outcome(); got != SDC {
		t.Errorf("unprotected ACE hit = %v, want SDC", got)
	}
	if got := DetectOnly.outcome(); got != DUE {
		t.Errorf("parity ACE hit = %v, want DUE", got)
	}
	if got := DetectCorrect.outcome(); got != Corrected {
		t.Errorf("ECC ACE hit = %v, want corrected", got)
	}
	for _, o := range []Outcome{SDC, DUE, Corrected} {
		if !o.Corrupting() {
			t.Errorf("%v should count as an ACE hit", o)
		}
	}
	if Masked.Corrupting() {
		t.Error("masked strikes must not count as ACE hits")
	}
}

// TestRunStrikesTaxonomy books a deterministic 25%-ACE pattern and checks
// the sequential experiment recovers it, classifying per the configured
// protection.
func TestRunStrikesTaxonomy(t *testing.T) {
	var bits [avf.NumStructs]uint64
	bits[avf.IQ] = 1000
	bits[avf.ROB] = 1000
	bits[avf.Reg] = 1000
	c, err := NewCampaign(bits, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 64
	for _, s := range []avf.Struct{avf.IQ, avf.ROB, avf.Reg} {
		fill(t, c, s, cycles, map[int]uint64{0: 250})
	}
	var prot [avf.NumStructs]Detection
	prot[avf.ROB] = DetectOnly
	prot[avf.Reg] = DetectCorrect
	c.SetProtection(prot)

	st := c.RunStrikes(cycles, StopWhen(0.02, 1<<20))
	if !st.StoppedEarly {
		t.Fatalf("expected early stop, got %d rounds / %d strikes", st.Rounds, st.TotalStrikes)
	}
	if hw := st.MaxHalfWidth(); hw > 0.02 {
		t.Fatalf("stopped with max half-width %.4f > 0.02", hw)
	}
	checks := []struct {
		s    avf.Struct
		kind Outcome
	}{{avf.IQ, SDC}, {avf.ROB, DUE}, {avf.Reg, Corrected}}
	for _, chk := range checks {
		r := st.PerStruct[chk.s]
		if r.ACEStrikes() != r.Outcomes[chk.kind] {
			t.Errorf("%v: ACE strikes should all classify as %v: %+v", chk.s, chk.kind, r.Outcomes)
		}
		if math.Abs(r.AVF-0.25) > r.HalfWidth+0.01 {
			t.Errorf("%v: estimate %.4f implausibly far from the exact 0.25", chk.s, r.AVF)
		}
		if r.Lo > 0.25 || r.Hi < 0.25 {
			t.Errorf("%v: CI [%.4f,%.4f] excludes the exact AVF 0.25", chk.s, r.Lo, r.Hi)
		}
		var perThread uint64
		for _, n := range r.PerThread {
			perThread += n
		}
		if perThread != r.ACEStrikes() {
			t.Errorf("%v: per-thread counts sum to %d, want %d", chk.s, perThread, r.ACEStrikes())
		}
	}
	// Structures with no capacity draw nothing and stay vacuous.
	if st.PerStruct[avf.FU].Strikes != 0 {
		t.Errorf("FU has no bits but drew %d strikes", st.PerStruct[avf.FU].Strikes)
	}
	if !strings.Contains(st.Table(), "stopped early") {
		t.Error("Table should note the early stop")
	}
}

// TestRunStrikesPerThreadAttribution checks ACE strikes land on the
// owning thread in proportion to its share.
func TestRunStrikesPerThreadAttribution(t *testing.T) {
	var bits [avf.NumStructs]uint64
	bits[avf.IQ] = 1000
	c, err := NewCampaign(bits, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 16
	// Thread 0 owns 100 ACE bits, thread 1 owns 300.
	fill(t, c, avf.IQ, cycles, map[int]uint64{0: 100, 1: 300})
	st := c.RunStrikes(cycles, StopWhen(0.01, 1<<20))
	r := st.PerStruct[avf.IQ]
	if len(r.PerThread) != 2 {
		t.Fatalf("PerThread = %v, want 2 threads", r.PerThread)
	}
	ratio := float64(r.PerThread[1]) / float64(r.PerThread[0])
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("thread shares 100:300 but strike counts %d:%d (ratio %.2f, want ≈3)",
			r.PerThread[0], r.PerThread[1], ratio)
	}
}

// TestRunStrikesRespectsCap: an unreachable CI target runs to MaxStrikes
// and reports no early stop.
func TestRunStrikesRespectsCap(t *testing.T) {
	var bits [avf.NumStructs]uint64
	bits[avf.IQ] = 100
	c, err := NewCampaign(bits, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, avf.IQ, 8, map[int]uint64{0: 50})
	st := c.RunStrikes(8, StopWhen(1e-6, 2000))
	if st.StoppedEarly {
		t.Error("cannot stop early with a 1e-6 half-width target")
	}
	if got := st.PerStruct[avf.IQ].Strikes; got != 2000 {
		t.Errorf("strikes = %d, want the 2000 cap", got)
	}
}

// TestRunStrikesDeterministic: identical seeds and grids give identical
// stats, including the taxonomy and per-thread splits.
func TestRunStrikesDeterministic(t *testing.T) {
	build := func() *Stats {
		var bits [avf.NumStructs]uint64
		bits[avf.IQ] = 512
		bits[avf.ROB] = 256
		c, err := NewCampaign(bits, 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		fill(t, c, avf.IQ, 100, map[int]uint64{0: 128, 1: 64})
		fill(t, c, avf.ROB, 100, map[int]uint64{1: 32})
		return c.RunStrikes(100, StopWhen(0.03, 1<<16))
	}
	a, b := build(), build()
	if a.TotalStrikes != b.TotalStrikes || a.Rounds != b.Rounds {
		t.Fatalf("runs diverge: %d/%d vs %d/%d strikes/rounds", a.TotalStrikes, a.Rounds, b.TotalStrikes, b.Rounds)
	}
	for s := range a.PerStruct {
		if a.PerStruct[s].Outcomes != b.PerStruct[s].Outcomes {
			t.Errorf("struct %d outcome draws diverge: %v vs %v", s, a.PerStruct[s].Outcomes, b.PerStruct[s].Outcomes)
		}
	}
}

// TestPublishTelemetry: progress gauges appear in the collector snapshot
// after a strike run; a nil collector is a no-op.
func TestPublishTelemetry(t *testing.T) {
	var bits [avf.NumStructs]uint64
	bits[avf.IQ] = 100
	c, err := NewCampaign(bits, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(telemetry.Options{})
	c.PublishTelemetry(col)
	fill(t, c, avf.IQ, 10, map[int]uint64{0: 25})
	st := c.RunStrikes(10, StopWhen(0.05, 1<<16))

	snap := col.Snapshot()
	if got := snap.Counters["inject.events"]; got != c.Events() {
		t.Errorf("inject.events = %d, want %d", got, c.Events())
	}
	if got := snap.Gauges["inject.strikes"]; got != float64(st.TotalStrikes) {
		t.Errorf("inject.strikes = %v, want %d", got, st.TotalStrikes)
	}
	if got := snap.Gauges["inject.rounds"]; got != float64(st.Rounds) {
		t.Errorf("inject.rounds = %v, want %d", got, st.Rounds)
	}
	if _, ok := snap.Gauges["inject.halfwidth.IQ"]; !ok {
		t.Error("per-structure half-width gauge missing from the snapshot")
	}
	if _, ok := snap.Gauges["inject.eta_strikes"]; !ok {
		t.Error("eta gauge missing from the snapshot")
	}

	// Detached publishing is a no-op, not a panic.
	var c2 *Campaign
	c2.PublishTelemetry(nil)
	c3, _ := NewCampaign(bits, 1, 9)
	c3.PublishTelemetry(nil)
	fill(t, c3, avf.IQ, 10, map[int]uint64{0: 25})
	c3.RunStrikes(10, StopWhen(0.05, 1<<16))
}

// TestTelemetryNameParity pins the migration contract of the campaign
// gauges: every dotted name stays in the collector snapshot (the
// /telemetry surface) AND registers on the obs registry (the
// /debug/metrics surface) under the same dotted family name.
func TestTelemetryNameParity(t *testing.T) {
	var bits [avf.NumStructs]uint64
	bits[avf.IQ] = 100
	c, err := NewCampaign(bits, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(telemetry.Options{})
	c.PublishTelemetry(col)
	fill(t, c, avf.IQ, 10, map[int]uint64{0: 25})
	c.RunStrikes(10, StopWhen(0.05, 1<<16))

	names := []string{"inject.events", "inject.strikes", "inject.rounds", "inject.eta_strikes"}
	for _, s := range avf.Structs() {
		names = append(names, "inject.halfwidth."+s.String())
	}
	snap := col.Snapshot()
	reg := col.Registry()
	for _, name := range names {
		_, inCounters := snap.Counters[name]
		_, inGauges := snap.Gauges[name]
		if !inCounters && !inGauges {
			t.Errorf("legacy name %q missing from the collector snapshot", name)
		}
		if !reg.Has(name) {
			t.Errorf("name %q missing from the obs registry", name)
		}
	}
}

// TestStrikeProgress: a progress tracker attached to the collector tracks
// the strike phase through the stopping rule.
func TestStrikeProgress(t *testing.T) {
	var bits [avf.NumStructs]uint64
	bits[avf.IQ] = 100
	c, err := NewCampaign(bits, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(telemetry.Options{})
	p := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1, Registry: col.Registry()})
	col.SetProgress(p)
	c.PublishTelemetry(col)
	fill(t, c, avf.IQ, 10, map[int]uint64{0: 25})
	st := c.RunStrikes(10, StopWhen(0.05, 1<<16))

	snap := p.Snapshot()
	if snap.Phase != "strikes" {
		t.Fatalf("progress phase = %q, want strikes", snap.Phase)
	}
	if snap.Done != st.TotalStrikes {
		t.Fatalf("progress done = %d, want %d strikes", snap.Done, st.TotalStrikes)
	}
	// Converged: the stopping-rule ETA is zero, so done == total.
	if snap.Total != st.TotalStrikes || snap.Fraction != 1 {
		t.Fatalf("progress total/fraction = %d/%v, want %d/1", snap.Total, snap.Fraction, st.TotalStrikes)
	}
}
