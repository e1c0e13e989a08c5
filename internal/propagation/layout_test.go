package propagation_test

import (
	"testing"

	"smtavf/internal/core"
	"smtavf/internal/pipeline"
	"smtavf/internal/propagation"
)

// twin is a retire observer that keeps every uop at full width, copied
// straight out of the pool slot, with its spans clipped at the rebase as
// the tracer clips them: the values the tracer's packed nodes must decode
// back to.
type twin struct {
	bits   pipeline.Bits
	rebase uint64
	nodes  []propagation.WideNode
}

func (w *twin) Record(pl *pipeline.Pool, id pipeline.UID, retire uint64, squashed bool) {
	in, m := &pl.Ins[id], &pl.Meta[id]
	n := propagation.WideNode{
		TID:       pl.TID[id],
		PhysSrc1:  m.PhysSrc1,
		PhysSrc2:  m.PhysSrc2,
		PhysDest:  m.PhysDest,
		Class:     in.Class,
		Fate:      pl.Fate(id, squashed),
		WrongPath: pl.Has(id, pipeline.FWrongPath),
		Forwarded: pl.Has(id, pipeline.FForwarded),
		Issued:    pl.Has(id, pipeline.FIssued),
		Executed:  pl.Has(id, pipeline.FExecuted),
		GSeq:      pl.GSeq[id],
		PC:        in.PC,
		Addr:      in.Addr,
		IssueAt:   pl.Res[id].IssuedAt,
		Ready:     m.ReadyAt,
		Retire:    retire,
	}
	for k, r := range pl.Residencies(id, w.bits) {
		if start := max(r.Start, w.rebase); r.End > start {
			n.Spans[k] = [2]uint64{start, r.End}
		}
	}
	w.nodes = append(w.nodes, n)
}

func (w *twin) Rebase(cycle uint64) {
	w.rebase = cycle
	w.nodes = w.nodes[:0]
}

// TestNodesDecodeToPoolValues runs a 2- and a 4-thread workload through a
// warmup with the tracer and a full-width twin attached, and requires
// every packed node to decode to exactly what the twin copied out of the
// pool. The runs must exercise what the packing encodes: a rebase, uops
// that issued before it (negative cycle offsets), and uops that never
// issued (the pool's zero cycles).
func TestNodesDecodeToPoolValues(t *testing.T) {
	for _, benches := range [][]string{{"mcf", "gcc"}, {"gcc", "mcf", "vpr", "perlbmk"}} {
		cfg := core.DefaultConfig(len(benches))
		cfg.Warmup = 10_000
		proc, err := core.New(cfg, profiles(t, benches))
		if err != nil {
			t.Fatal(err)
		}
		tracer := propagation.New(propagation.Options{})
		proc.SetPropagation(tracer)
		tw := &twin{bits: cfg.Bits}
		proc.AttachObserver(tw)
		if _, err := proc.Run(core.Limits{TotalInstructions: 20_000}); err != nil {
			t.Fatal(err)
		}
		got := tracer.Decoded()
		if len(got) == 0 || len(got) != len(tw.nodes) || tracer.Dropped() != 0 {
			t.Fatalf("%d threads: tracer kept %d nodes and dropped %d, twin saw %d uops",
				len(benches), len(got), tracer.Dropped(), len(tw.nodes))
		}
		for i := range got {
			if got[i] != tw.nodes[i] {
				t.Fatalf("%d threads: node %d decodes to\n %+v\nthe pool held\n %+v", len(benches), i, got[i], tw.nodes[i])
			}
		}
		var early, unissued bool
		for _, n := range tw.nodes {
			early = early || n.Issued && n.IssueAt < tw.rebase
			unissued = unissued || !n.Issued
		}
		if tw.rebase == 0 || !early || !unissued {
			t.Fatalf("%d threads: rebase at %d, a node issued before it %v, a node never issued %v",
				len(benches), tw.rebase, early, unissued)
		}
	}
}
