package inject

import (
	"math"
	"testing"

	"smtavf/internal/avf"
)

func bits() [avf.NumStructs]uint64 {
	var b [avf.NumStructs]uint64
	for i := range b {
		b[i] = 1000
	}
	return b
}

func TestEstimateMatchesHandComputedAVF(t *testing.T) {
	c, err := NewCampaign(bits(), 1, 7) // sample every cycle: exact
	if err != nil {
		t.Fatal(err)
	}
	// 100 ACE bits resident for cycles [0, 50) of a 100-cycle run:
	// AVF = 100*50 / (1000*100) = 5%.
	c.Interval(avf.IQ, 0, 100, 0, 50, true)
	if got := c.Estimate(avf.IQ, 100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("estimate %v, want 0.05", got)
	}
	if got := c.Occupancy(avf.IQ, 100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("occupancy %v, want 0.05", got)
	}
}

func TestUnACEIntervalsDoNotCorrupt(t *testing.T) {
	c, _ := NewCampaign(bits(), 1, 7)
	c.Interval(avf.IQ, 0, 100, 0, 50, false)
	if got := c.Estimate(avf.IQ, 100); got != 0 {
		t.Fatalf("un-ACE estimate %v", got)
	}
	if got := c.Occupancy(avf.IQ, 100); got == 0 {
		t.Fatal("occupancy lost")
	}
}

func TestSparseSamplingApproximates(t *testing.T) {
	c, _ := NewCampaign(bits(), 7, 3)
	// Many small intervals covering [i*10, i*10+5) — true AVF = 50% of
	// occupancy window; over 10_000 cycles AVF = 100*5*1000ints /
	// (1000*10000) = 5%.
	for i := uint64(0); i < 1000; i++ {
		c.Interval(avf.IQ, 0, 100, i*10, i*10+5, true)
	}
	got := c.Estimate(avf.IQ, 10_000)
	if math.Abs(got-0.05) > 0.01 {
		t.Fatalf("sparse estimate %v, want ~0.05", got)
	}
}

func TestEmptyIntervalIgnored(t *testing.T) {
	c, _ := NewCampaign(bits(), 1, 7)
	c.Interval(avf.IQ, 0, 100, 50, 50, true)
	c.Interval(avf.IQ, 0, 100, 60, 50, true)
	if c.Events() != 0 {
		t.Fatal("degenerate intervals recorded")
	}
}

func TestOverbookedDetection(t *testing.T) {
	c, _ := NewCampaign(bits(), 1, 7)
	// Two overlapping intervals of 600 bits each exceed the 1000-bit
	// capacity during the overlap.
	c.Interval(avf.IQ, 0, 600, 0, 100, true)
	c.Interval(avf.IQ, 0, 600, 50, 150, true)
	if c.Overbooked(avf.IQ) == 0 {
		t.Fatal("overlap not detected")
	}
	// Non-overlapping intervals are fine.
	d, _ := NewCampaign(bits(), 1, 7)
	d.Interval(avf.IQ, 0, 600, 0, 50, true)
	d.Interval(avf.IQ, 0, 600, 50, 100, true)
	if d.Overbooked(avf.IQ) != 0 {
		t.Fatal("false overlap")
	}
}

func TestOutcomesConverge(t *testing.T) {
	c, _ := NewCampaign(bits(), 1, 7)
	c.Interval(avf.IQ, 0, 300, 0, 100, true) // AVF = 30%
	corrupted := c.Outcomes(avf.IQ, 100, 100_000)
	rate := float64(corrupted) / 100_000
	if math.Abs(rate-0.30) > 0.01 {
		t.Fatalf("strike corruption rate %v, want ~0.30", rate)
	}
}

func TestZeroPitchRejected(t *testing.T) {
	if _, err := NewCampaign(bits(), 0, 1); err == nil {
		t.Fatal("zero pitch accepted")
	}
}

func TestSamplesCount(t *testing.T) {
	c, _ := NewCampaign(bits(), 10, 1)
	if c.Samples(0) != 0 {
		t.Fatal("samples in an empty run")
	}
	n := c.Samples(1000)
	if n < 99 || n > 101 {
		t.Fatalf("samples over 1000 cycles at pitch 10: %d", n)
	}
}

func TestRebaseDropsWarmupSamples(t *testing.T) {
	// Warmup run: heavy ACE residency before the rebase, light after.
	// Without the rebase the estimate would blend the two eras.
	c, err := NewCampaign(bits(), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	c.Interval(avf.IQ, 0, 1000, 0, 100, true) // warmup: fully ACE
	c.Rebase(100)
	c.Interval(avf.IQ, 0, 500, 100, 200, true) // measured: half ACE

	// 100 measured cycles: every sample holds 500 of 1000 ACE bits.
	got := c.Estimate(avf.IQ, 100)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("post-rebase estimate = %v, want 0.5", got)
	}
	if ob := c.Overbooked(avf.IQ); ob != 0 {
		t.Fatalf("overbooked samples after rebase: %d", ob)
	}
}

func TestRebaseMatchesTrackerThroughWarmup(t *testing.T) {
	// Attach the campaign to a tracker and drive both through a warmup
	// rebase; the two independent accountings must agree afterwards.
	var b [avf.NumStructs]uint64
	for i := range b {
		b[i] = 1000
	}
	trk := avf.NewTracker(1, b)
	c, err := NewCampaign(b, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	trk.AddSink(c)

	trk.AddInterval(avf.IQ, 0, 1000, 0, 50, true) // warmup era
	trk.Rebase(50)
	trk.AddInterval(avf.IQ, 0, 250, 50, 150, true) // measurement era

	const measured = 100
	want := trk.AVF(avf.IQ, measured)
	got := c.Estimate(avf.IQ, measured)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("campaign %v vs tracker %v after rebase", got, want)
	}
}
