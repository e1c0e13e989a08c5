package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/inject"
	"smtavf/internal/propagation"
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

// TestCampaignInjectNoSamples: a valid spec whose grid phase lands past
// the end of the run (a pitch far above the cycle count, and the
// zero-value stop rule's half-width 0) returns with no strikes instead of
// pinning its worker in an endless strike phase.
func TestCampaignInjectNoSamples(t *testing.T) {
	var spec campaign.Spec
	raw := `{"v":1,"mix":"2ctx-CPU-A","instructions":2000,"inject":{"every":100000000}}`
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec rejected: %v", err)
	}
	type outcome struct {
		res *campaign.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := NewRunner(campaignOpts()).Campaign(spec)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Strikes != 0 {
			t.Errorf("strikes = %d, want 0 on a run with no samples", o.res.Strikes)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Campaign did not return on a run with no samples")
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

// TestCampaignPropagationReportsDropped: a propagation point whose run
// retires more uops than the tracer's node cap says so in the atlas, its
// headline and the wire summary; an uncapped point says nothing.
func TestCampaignPropagationReportsDropped(t *testing.T) {
	spec := campaign.Spec{Mix: "2ctx-CPU-A", Propagation: &campaign.PropagationSpec{Strikes: 8}}
	r := NewRunner(campaignOpts())
	full, err := r.Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if full.Atlas.Dropped != 0 || strings.Contains(full.Atlas.Tables(10), "node cap") {
		t.Fatalf("uncapped point reports %d dropped uops:\n%s", full.Atlas.Dropped, full.Atlas.Tables(10))
	}
	if data, _ := json.Marshal(full.Propagation); strings.Contains(string(data), "dropped") {
		t.Fatalf("uncapped summary carries dropped: %s", data)
	}

	spec.Propagation = &campaign.PropagationSpec{Strikes: 8, Options: propagation.Options{Cap: 2000}}
	capped, err := r.Campaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	dropped := capped.Atlas.Dropped
	if dropped == 0 {
		t.Fatal("a run past the node cap reports no dropped uops")
	}
	if want := fmt.Sprintf(", %d uops past the node cap unrecorded\n", dropped); !strings.Contains(capped.Atlas.Tables(10), want) {
		t.Fatalf("headline lacks %q:\n%s", want, capped.Atlas.Tables(10))
	}
	var wire struct {
		Propagation struct {
			Dropped uint64 `json:"dropped"`
		} `json:"propagation"`
	}
	data, err := json.Marshal(capped)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Propagation.Dropped != dropped {
		t.Fatalf("summary dropped = %d, atlas %d", wire.Propagation.Dropped, dropped)
	}
}
