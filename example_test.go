package smtavf_test

import (
	"fmt"
	"log"

	"smtavf"
)

// ExampleNew runs the paper's baseline machine on a two-thread workload
// and prints the vulnerability of the shared instruction queue.
func ExampleNew() {
	cfg := smtavf.DefaultConfig(2)
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("bzip2", "mcf"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(10_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Total >= 10_000)
	fmt.Println(res.StructAVF(smtavf.IQ) > 0 && res.StructAVF(smtavf.IQ) < 1)
	// Output:
	// true
	// true
}

// ExamplePolicyByName selects a fetch policy for a configuration.
func ExamplePolicyByName() {
	p, err := smtavf.PolicyByName("FLUSH")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(p.Name())
	// Output:
	// FLUSH
}

// ExampleMixByName looks up a workload mix from the paper's Table 2.
func ExampleMixByName() {
	m, err := smtavf.MixByName("4ctx-MEM-A")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m.Contexts, m.Benchmarks)
	// Output:
	// 4 [mcf equake vpr swim]
}

// ExampleNewFaultCampaign cross-validates the ACE-based AVF with
// statistical fault injection.
func ExampleNewFaultCampaign() {
	cfg := smtavf.DefaultConfig(1)
	camp, err := smtavf.NewFaultCampaign(cfg, 1, 7)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := smtavf.New(cfg,
		smtavf.WithBenchmarks("gcc"),
		smtavf.WithFaultInjection(camp))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(10_000)
	if err != nil {
		log.Fatal(err)
	}
	computed := res.StructAVF(smtavf.ROB)
	estimated := camp.Estimate(smtavf.ROB, res.Cycles)
	diff := computed - estimated
	if diff < 0 {
		diff = -diff
	}
	fmt.Println(diff < 0.01)
	// Output:
	// true
}

// ExampleSimulator_RunPerThread runs each thread to its own quota: every
// thread commits exactly its quota, however fast it runs.
func ExampleSimulator_RunPerThread() {
	cfg := smtavf.DefaultConfig(2)
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("gcc", "mcf"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.RunPerThread([]uint64{20_000, 5_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Committed[0], res.Committed[1])
	// Output:
	// 20000 5000
}
