// Cpistack demonstrates the explainability layer: it runs the same
// two-thread memory-bound mix under ICOUNT and FLUSH with the
// CPI-stack/occupancy observer attached, prints each run's cycle
// attribution and occupancy-by-fate decomposition, and then shows the
// causal chain the paper argues — FLUSH squashes the pipeline behind
// every L2 miss, so IQ occupancy drops, and the IQ AVF drops with it.
//
// Usage: cpistack [out.jsonl]
// With an argument, the ICOUNT run also carries a telemetry collector and
// its series is written to that path as JSONL: one 5k-cycle window per
// line, each with the window's CPI stack ("stack") and occupancy-by-fate
// split ("fates") beside its IPC and AVF. smtsim -cpistack -telemetry
// writes the same series (as CSV or Chrome trace_event counters too).
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	"smtavf"
)

func main() {
	type run struct {
		policy string
		stack  *smtavf.CPIStack
		occ    float64
		avf    float64
	}
	runs := make([]run, 0, 2)
	for _, name := range []string{"ICOUNT", "FLUSH"} {
		pol, err := smtavf.PolicyByName(name)
		if err != nil {
			log.Fatal(err)
		}
		cfg := smtavf.DefaultConfig(2)
		cfg.Seed = 42
		cfg.Policy = pol

		stack := smtavf.NewCPIStack(smtavf.CPIStackOptions{})
		var tel *smtavf.Telemetry
		if name == "ICOUNT" && len(os.Args) > 1 {
			tel = smtavf.NewTelemetry(smtavf.TelemetryOptions{WindowCycles: 5_000})
		}
		sim, err := smtavf.New(cfg,
			smtavf.WithBenchmarks("mcf", "gcc"),
			smtavf.WithCPIStack(stack),
			smtavf.WithTelemetry(tel))
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(40_000)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("=== %s ===\n", name)
		fmt.Print(stack.FormatStack())
		fmt.Println()
		fmt.Print(stack.FormatOccupancy())
		fmt.Println()

		start, end := stack.Span()
		occ := float64(stack.ResidentBitCycles(smtavf.IQ)) /
			float64(stack.Capacity(smtavf.IQ)*(end-start))
		runs = append(runs, run{name, stack, occ, res.StructAVF(smtavf.IQ)})

		if tel != nil {
			wins := tel.Ring()
			if err := writeSeries(os.Args[1], wins); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("windowed series (%d windows) written to %s\n\n", len(wins), os.Args[1])
		}
	}

	ico, fl := runs[0], runs[1]
	fmt.Println("the causal chain, quantified:")
	fmt.Printf("  IQ occupancy  ICOUNT %5.1f%%  ->  FLUSH %5.1f%%\n", 100*ico.occ, 100*fl.occ)
	fmt.Printf("  IQ AVF        ICOUNT %5.1f%%  ->  FLUSH %5.1f%%\n", 100*ico.avf, 100*fl.avf)
	fmt.Println("FLUSH drains the queues behind every L2 miss: fewer resident")
	fmt.Println("bits means fewer ACE bits, so vulnerability falls with occupancy.")
}

// writeSeries writes the windows as JSONL, one window per line.
func writeSeries(path string, wins []smtavf.TelemetryWindow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, w := range wins {
		if err := enc.Encode(w); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
