package experiments

import (
	"testing"

	"smtavf/internal/campaign"
	"smtavf/internal/inject"
)

// crossvalSpec builds a crossval-kind campaign spec over benchmarks.
func crossvalSpec(benchmarks []string, seeds []uint64, stop inject.Stop) campaign.Spec {
	return campaign.Spec{
		Benchmarks: benchmarks,
		Inject:     &campaign.InjectSpec{Stop: stop},
		CrossVal:   &campaign.CrossValSpec{Seeds: seeds},
	}
}

func TestCrossValSpecValidation(t *testing.T) {
	r := NewRunner(Options{Base: 2_000})
	cv := &campaign.CrossValSpec{}
	if _, err := r.Campaign(campaign.Spec{CrossVal: cv}); err == nil {
		t.Error("empty spec should error")
	}
	if _, err := r.Campaign(campaign.Spec{Mix: "no-such-mix", CrossVal: cv}); err == nil {
		t.Error("unknown mix should error")
	}
	if _, err := r.Campaign(campaign.Spec{Benchmarks: []string{"gcc", "mcf"}, Policy: "NOPE", CrossVal: cv}); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestCrossValSeedFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation fanout")
	}
	r := NewRunner(Options{Base: 10_000, NoWarmup: true})
	res, err := r.Campaign(crossvalSpec([]string{"gcc", "twolf"}, []uint64{1, 2, 3}, inject.StopWhen(0.02, 1<<18)))
	if err != nil {
		t.Fatal(err)
	}
	pooled, perSeed := res.CrossVal, res.CrossValSeeds
	if len(perSeed) != 3 {
		t.Fatalf("perSeed = %d reports, want 3", len(perSeed))
	}
	var totalStrikes uint64
	for i, rep := range perSeed {
		if rep.Meta.Seed != uint64(i+1) || rep.Meta.Seeds != 1 {
			t.Errorf("report %d meta = %+v", i, rep.Meta)
		}
		if !rep.Pass() {
			t.Errorf("seed %d: tracker AVF outside the strike CI:\n%s", rep.Meta.Seed, rep.Table())
		}
		for _, e := range rep.Entries {
			totalStrikes += e.Strikes
		}
	}
	if pooled.Meta.Seeds != 3 {
		t.Errorf("pooled seeds = %d, want 3", pooled.Meta.Seeds)
	}
	if !pooled.Pass() {
		t.Errorf("pooled report fails:\n%s", pooled.Table())
	}
	var pooledStrikes uint64
	for _, e := range pooled.Entries {
		pooledStrikes += e.Strikes
		if e.Workload != "gcc+twolf" {
			t.Errorf("pooled entry workload = %q", e.Workload)
		}
	}
	if pooledStrikes != totalStrikes {
		t.Errorf("pooled strikes %d != per-seed sum %d", pooledStrikes, totalStrikes)
	}
}

// TestCrossValProtectionClassification: a parity-protected structure's
// ACE strikes classify as DUE in the per-seed taxonomy and carry the
// protection label through the report, without changing the AVF verdict.
func TestCrossValProtectionClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r := NewRunner(Options{Base: 8_000, NoWarmup: true})
	spec := crossvalSpec([]string{"gcc", "mcf"}, []uint64{5}, inject.StopWhen(0.03, 1<<18))
	spec.Protection = map[string]string{"IQ": "parity"}
	res, err := r.Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	pooled := res.CrossVal
	found := false
	for _, e := range pooled.Entries {
		if e.Struct == "IQ" {
			found = true
			if e.Protection != "parity" {
				t.Errorf("IQ protection label = %q, want parity", e.Protection)
			}
			if !e.Pass {
				t.Errorf("protection must not move the AVF estimate out of the CI: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("no IQ entry in the report")
	}
}
