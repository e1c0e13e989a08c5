package experiments

import (
	"testing"

	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/inject"
)

// campaignOpts keeps the campaign runs fast; the checks need the runs to
// be well-formed, not converged.
func campaignOpts() Options {
	return Options{Base: 4000, Seed: 3}
}

// TestCampaignRunKinds covers the plain-run executor: monolithic vs
// sharded agreement within the documented tolerance, and the attached
// strike campaign.
func TestCampaignRunKinds(t *testing.T) {
	base := campaign.Spec{Benchmarks: []string{"gcc", "mcf"}, Instructions: 40_000, Seed: 2, NoWarmup: true}

	mono, err := NewRunner(campaignOpts()).Campaign(base)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Kind != campaign.KindRun || mono.Status != "ok" || mono.Cycles == 0 {
		t.Fatalf("monolithic result = %+v", mono)
	}
	if mono.Instructions < base.Instructions {
		t.Errorf("committed %d, want at least the quota %d", mono.Instructions, base.Instructions)
	}

	// The documented tolerance is an engine contract: two shardings of the
	// same plan agree. (A monolithic run uses an aggregate instruction
	// limit, so its committed workload mix differs — that comparison is
	// out of scope here, as it is for smtsim.)
	sharded := base
	sharded.Shards = 4
	sh4, err := NewRunner(campaignOpts()).Campaign(sharded)
	if err != nil {
		t.Fatal(err)
	}
	sharded.Shards = 2
	sh2, err := NewRunner(campaignOpts()).Campaign(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if sh4.Instructions != base.Instructions || sh2.Instructions != base.Instructions {
		t.Errorf("engine commits inexact: %d and %d, want %d", sh4.Instructions, sh2.Instructions, base.Instructions)
	}
	name, delta := campaign.MaxAVFDelta(sh2, sh4)
	if delta > 0.08 {
		t.Errorf("sharded AVF diverges: %s off by %.4f", name, delta)
	}

	injected := base
	injected.Inject = &campaign.InjectSpec{Every: 4, Stop: inject.Stop{MaxStrikes: 100}}
	inj, err := NewRunner(campaignOpts()).Campaign(injected)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Strikes == 0 || inj.CrossVal == nil {
		t.Fatalf("inject run result = strikes %d, crossval %v", inj.Strikes, inj.CrossVal)
	}
	// The simulation itself must be unperturbed by the observer.
	if inj.Cycles != mono.Cycles {
		t.Errorf("inject observer perturbed the run: %d vs %d cycles", inj.Cycles, mono.Cycles)
	}
}

// TestCampaignRejectsZeroQuota: a spec with no budget and a runner with
// no budget rule must not silently run forever.
func TestCampaignErrors(t *testing.T) {
	r := NewRunner(campaignOpts())
	if _, err := r.Campaign(campaign.Spec{}); err == nil {
		t.Error("sourceless spec ran")
	}
	if _, err := r.Campaign(campaign.Spec{Mix: "no-such-mix"}); err == nil {
		t.Error("unknown mix ran")
	}
	if _, err := r.Campaign(campaign.Spec{Benchmarks: []string{"no-such-bench"}}); err == nil {
		t.Error("unknown benchmark ran")
	}
}

// TestCampaignRejectsBadMachine: a machine override the simulator cannot
// index fails every kind with an error before a processor or strike
// campaign is built, instead of panicking the worker that runs it.
func TestCampaignRejectsBadMachine(t *testing.T) {
	machines := map[string]func(*core.Config){
		"zero":        func(c *core.Config) { *c = core.Config{} },
		"DL1-ways-0":  func(c *core.Config) { c.DL1.Ways = 0 },
		"L2-3-sets":   func(c *core.Config) { c.L2.Size = 3 * c.L2.Ways * c.L2.LineSize },
		"DTLB-ways-0": func(c *core.Config) { c.DTLB.Ways = 0 },
		"BTB-ways-0":  func(c *core.Config) { c.BTBWays = 0 },
	}
	kinds := map[string]campaign.Spec{
		"run":         {},
		"crossval":    {CrossVal: &campaign.CrossValSpec{}},
		"propagation": {Propagation: &campaign.PropagationSpec{}},
		"explain":     {Explain: &campaign.ExplainSpec{}},
	}
	r := NewRunner(campaignOpts())
	for kind, base := range kinds {
		for name, breakMachine := range machines {
			t.Run(kind+"/"+name, func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				machine := core.DefaultConfig(2)
				breakMachine(&machine)
				spec := base
				spec.Mix, spec.Machine = "2ctx-CPU-A", &machine
				if _, err := r.Campaign(spec); err == nil {
					t.Fatal("bad machine ran")
				}
			})
		}
	}
}
