package experiments

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/metrics"
	"smtavf/internal/workload"
)

// paperStructs is the structure set of Figures 1, 2, 5, 6, 7 and 8, in the
// paper's presentation order.
func paperStructs() []avf.Struct {
	return []avf.Struct{
		avf.IQ, avf.FU, avf.Reg, avf.DL1Data, avf.DL1Tag,
		avf.ROB, avf.LSQData, avf.LSQTag,
	}
}

func structNames(ss []avf.Struct) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.String()
	}
	return out
}

func kindNames() []string {
	out := make([]string, 0, 3)
	for _, k := range workload.Kinds() {
		out = append(out, k.String())
	}
	return out
}

// policyNames is the presentation order of Figures 6–8.
var policyNames = []string{"ICOUNT", "STALL", "FLUSH", "DG", "PDG", "DWarn"}

// meanOver averages f over the given runs.
func meanOver(runs []*core.Results, f func(*core.Results) float64) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = f(r)
	}
	return metrics.Mean(vals)
}

// Figure1 reproduces the microarchitecture vulnerability profile of the
// 4-context SMT processor across CPU-, mixed-, and memory-bound workloads
// (AVF per structure, ICOUNT baseline, groups A and B averaged).
func (r *Runner) Figure1() (*Table, error) {
	ss := paperStructs()
	t := NewTable("Figure 1: SMT microarchitecture AVF profile (4 contexts, ICOUNT)",
		structNames(ss), kindNames())
	t.Percent = true
	t.Note = "AVF %, groups A and B averaged"
	for j, k := range workload.Kinds() {
		runs, err := r.MixAvg(4, k, "ICOUNT")
		if err != nil {
			return nil, err
		}
		for i, s := range ss {
			s := s
			t.Set(i, j, meanOver(runs, func(res *core.Results) float64 {
				return res.StructAVF(s)
			}))
		}
	}
	return t, nil
}

// Figure2 reproduces the reliability-efficiency profile (IPC/AVF per
// structure) of the same runs as Figure 1.
func (r *Runner) Figure2() (*Table, error) {
	ss := paperStructs()
	t := NewTable("Figure 2: SMT reliability efficiency, IPC/AVF (4 contexts, ICOUNT)",
		structNames(ss), kindNames())
	t.Note = "higher is better; groups A and B averaged"
	for j, k := range workload.Kinds() {
		runs, err := r.MixAvg(4, k, "ICOUNT")
		if err != nil {
			return nil, err
		}
		for i, s := range ss {
			s := s
			t.Set(i, j, meanOver(runs, func(res *core.Results) float64 {
				return res.Efficiency(s)
			}))
		}
	}
	return t, nil
}

// fig3Structs is the structure set of Figures 3 and 4.
var fig3Structs = []avf.Struct{avf.IQ, avf.FU, avf.ROB}

// isReplayed reports whether s is an SMT run of Figures 3 and 4, whose
// threads smtVsST replays alone: the 4-context group-A mix of each kind
// under ICOUNT.
func isReplayed(s MixSpec) bool {
	return s.Contexts == 4 && s.Group == workload.GroupA && s.Policy == "ICOUNT"
}

// replayQuota is the single-thread budget replaying thread tid of smt:
// exactly the instructions it completed there.
func replayQuota(smt *core.Results, tid int) uint64 {
	if q := smt.Committed[tid]; q > 0 {
		return q
	}
	return 1 // a starved thread still needs a well-formed ST run
}

// smtVsST runs the 4-context group-A mix of each kind under ICOUNT,
// replays each thread alone for exactly the instructions it completed in
// the SMT run, and hands both results to emit.
func (r *Runner) smtVsST(emit func(kind workload.Kind, tid int, bench string,
	st, smt *core.Results) error,
	emitAll func(kind workload.Kind, smt *core.Results, sts []*core.Results) error) error {
	for _, k := range workload.Kinds() {
		smt, err := r.Mix(4, k, workload.GroupA, "ICOUNT")
		if err != nil {
			return err
		}
		m, err := workload.Lookup(4, k, workload.GroupA)
		if err != nil {
			return err
		}
		sts := make([]*core.Results, len(m.Benchmarks))
		for tid, bench := range m.Benchmarks {
			st, err := r.Single(bench, replayQuota(smt, tid))
			if err != nil {
				return err
			}
			sts[tid] = st
			if err := emit(k, tid, bench, st, smt); err != nil {
				return err
			}
		}
		if err := emitAll(k, smt, sts); err != nil {
			return err
		}
	}
	return nil
}

// weightedSeqAVF is the AVF of sequential (single-thread) execution of all
// threads back to back: per-thread AVFs weighted by each thread's share of
// the sequential execution time.
func weightedSeqAVF(sts []*core.Results, s avf.Struct) float64 {
	var num, den float64
	for _, st := range sts {
		c := float64(st.Cycles)
		num += st.StructAVF(s) * c
		den += c
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Figure3 reproduces the per-thread AVF comparison between SMT execution
// and single-thread (superscalar) execution of the same work, for the IQ,
// FU, and ROB (4-context group-A mixes).
func (r *Runner) Figure3() (*Table, error) {
	var rows []string
	type rowKey struct {
		kind workload.Kind
		tid  int // -1 for the all-threads row
	}
	var keys []rowKey
	for _, k := range workload.Kinds() {
		m, err := workload.Lookup(4, k, workload.GroupA)
		if err != nil {
			return nil, err
		}
		for tid, b := range m.Benchmarks {
			rows = append(rows, fmt.Sprintf("%s:%s", k, b))
			keys = append(keys, rowKey{k, tid})
		}
		rows = append(rows, fmt.Sprintf("%s:all", k))
		keys = append(keys, rowKey{k, -1})
	}
	cols := []string{"IQ_ST", "FU_ST", "ROB_ST", "IQ_SMT", "FU_SMT", "ROB_SMT"}
	t := NewTable("Figure 3: per-thread AVF, SMT vs single-thread execution (4 contexts)", rows, cols)
	t.Percent = true
	t.Note = "each thread's ST run commits exactly its SMT progress"

	row := 0
	err := r.smtVsST(
		func(k workload.Kind, tid int, bench string, st, smt *core.Results) error {
			for i, s := range fig3Structs {
				t.Set(row, i, st.StructAVF(s))
				t.Set(row, i+3, smt.ThreadStructAVF(s, tid))
			}
			row++
			return nil
		},
		func(k workload.Kind, smt *core.Results, sts []*core.Results) error {
			for i, s := range fig3Structs {
				t.Set(row, i, weightedSeqAVF(sts, s))
				t.Set(row, i+3, smt.StructAVF(s))
			}
			row++
			return nil
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Figure4 reproduces the per-thread reliability efficiency (IPC/AVF)
// comparison between SMT and single-thread execution of the same runs as
// Figure 3.
func (r *Runner) Figure4() (*Table, error) {
	f3, err := r.Figure3() // ensures runs are cached; rows match
	if err != nil {
		return nil, err
	}
	cols := []string{"IQ_ST", "FU_ST", "ROB_ST", "IQ_SMT", "FU_SMT", "ROB_SMT"}
	t := NewTable("Figure 4: per-thread reliability efficiency (IPC/AVF), SMT vs single-thread", f3.Rows, cols)
	t.Note = "higher is better"

	row := 0
	err = r.smtVsST(
		func(k workload.Kind, tid int, bench string, st, smt *core.Results) error {
			for i, s := range fig3Structs {
				t.Set(row, i, metrics.Efficiency(st.IPC(), st.StructAVF(s)))
				t.Set(row, i+3, metrics.Efficiency(smt.ThreadIPC(tid), smt.ThreadStructAVF(s, tid)))
			}
			row++
			return nil
		},
		func(k workload.Kind, smt *core.Results, sts []*core.Results) error {
			var instr, cyc float64
			for _, st := range sts {
				instr += float64(st.Total)
				cyc += float64(st.Cycles)
			}
			seqIPC := 0.0
			if cyc > 0 {
				seqIPC = instr / cyc
			}
			for i, s := range fig3Structs {
				t.Set(row, i, metrics.Efficiency(seqIPC, weightedSeqAVF(sts, s)))
				t.Set(row, i+3, metrics.Efficiency(smt.IPC(), smt.StructAVF(s)))
			}
			row++
			return nil
		})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Figure5 reproduces the AVF trend with thread-context count (2, 4, 8) for
// each workload kind: panel (a) pipeline structures, panel (b) memory
// structures.
func (r *Runner) Figure5() ([]*Table, error) {
	panels := []struct {
		title   string
		structs []avf.Struct
	}{
		{"Figure 5(a): AVF vs number of contexts — pipeline structures",
			[]avf.Struct{avf.IQ, avf.FU, avf.ROB, avf.Reg}},
		{"Figure 5(b): AVF vs number of contexts — memory structures",
			[]avf.Struct{avf.LSQTag, avf.DL1Tag, avf.LSQData, avf.DL1Data}},
	}
	contexts := []int{2, 4, 8}
	var cols []string
	for _, k := range workload.Kinds() {
		for _, c := range contexts {
			cols = append(cols, fmt.Sprintf("%s/%d", k, c))
		}
	}
	var out []*Table
	for _, p := range panels {
		t := NewTable(p.title, structNames(p.structs), cols)
		t.Percent = true
		t.Note = "AVF %, ICOUNT, groups averaged"
		col := 0
		for _, k := range workload.Kinds() {
			for _, c := range contexts {
				runs, err := r.MixAvg(c, k, "ICOUNT")
				if err != nil {
					return nil, err
				}
				for i, s := range p.structs {
					s := s
					t.Set(i, col, meanOver(runs, func(res *core.Results) float64 {
						return res.StructAVF(s)
					}))
				}
				col++
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure6 reproduces the per-structure AVF under the six fetch policies,
// one table per (context count, workload kind) — the paper's panels (a)
// 4 contexts and (b) 8 contexts.
func (r *Runner) Figure6() ([]*Table, error) {
	ss := paperStructs()
	var out []*Table
	for _, contexts := range []int{4, 8} {
		for _, k := range workload.Kinds() {
			t := NewTable(
				fmt.Sprintf("Figure 6: AVF under fetch policies (%d contexts, %s)", contexts, k),
				structNames(ss), policyNames)
			t.Percent = true
			t.Note = "AVF %, groups averaged"
			for j, pol := range policyNames {
				runs, err := r.MixAvg(contexts, k, pol)
				if err != nil {
					return nil, err
				}
				for i, s := range ss {
					s := s
					t.Set(i, j, meanOver(runs, func(res *core.Results) float64 {
						return res.StructAVF(s)
					}))
				}
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// Figure7 reproduces the reliability-efficiency comparison of the fetch
// policies: IPC/AVF per structure, normalized to the ICOUNT baseline and
// averaged over workload kinds and context counts (4 and 8).
func (r *Runner) Figure7() (*Table, error) {
	ss := paperStructs()
	t := NewTable("Figure 7: IPC/AVF of fetch policies, normalized to ICOUNT", structNames(ss), policyNames)
	t.Note = ">1 means a better performance/reliability tradeoff than ICOUNT"
	type cell struct{ sum, n float64 }
	acc := make([][]cell, len(ss))
	for i := range acc {
		acc[i] = make([]cell, len(policyNames))
	}
	for _, contexts := range []int{4, 8} {
		for _, k := range workload.Kinds() {
			base, err := r.MixAvg(contexts, k, "ICOUNT")
			if err != nil {
				return nil, err
			}
			for j, pol := range policyNames {
				runs, err := r.MixAvg(contexts, k, pol)
				if err != nil {
					return nil, err
				}
				for i, s := range ss {
					s := s
					b := meanOver(base, func(res *core.Results) float64 { return res.Efficiency(s) })
					v := meanOver(runs, func(res *core.Results) float64 { return res.Efficiency(s) })
					if b > 0 {
						acc[i][j].sum += v / b
						acc[i][j].n++
					}
				}
			}
		}
	}
	for i := range ss {
		for j := range policyNames {
			if acc[i][j].n > 0 {
				t.Set(i, j, acc[i][j].sum/acc[i][j].n)
			}
		}
	}
	return t, nil
}

// Figure8 reproduces the fairness-aware reliability-efficiency comparison:
// panel (a) weighted-speedup/AVF and panel (b) harmonic-IPC/AVF, each
// normalized to ICOUNT and averaged over kinds and context counts.
func (r *Runner) Figure8() ([]*Table, error) {
	ss := paperStructs()
	type perfFn func(res *core.Results, stIPC []float64) float64
	panels := []struct {
		title string
		perf  perfFn
	}{
		{"Figure 8(a): weighted-speedup/AVF, normalized to ICOUNT",
			func(res *core.Results, stIPC []float64) float64 {
				smt := make([]float64, res.Threads)
				for i := range smt {
					smt[i] = res.ThreadIPC(i)
				}
				v, err := metrics.WeightedSpeedup(smt, stIPC)
				if err != nil {
					return 0
				}
				return v
			}},
		{"Figure 8(b): harmonic-IPC/AVF, normalized to ICOUNT",
			func(res *core.Results, stIPC []float64) float64 {
				smt := make([]float64, res.Threads)
				for i := range smt {
					smt[i] = res.ThreadIPC(i)
					if smt[i] <= 0 {
						smt[i] = 1e-9 // starved thread: harmonic mean collapses
					}
				}
				v, err := metrics.HarmonicIPC(smt, stIPC)
				if err != nil {
					return 0
				}
				return v
			}},
	}

	// Standalone IPC of each thread of a mix, for the speedup weights.
	stIPCs := func(contexts int, k workload.Kind, g workload.Group) ([]float64, error) {
		m, err := workload.Lookup(contexts, k, g)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(m.Benchmarks))
		for i, b := range m.Benchmarks {
			st, err := r.Single(b, r.opts.Base)
			if err != nil {
				return nil, err
			}
			out[i] = st.IPC()
		}
		return out, nil
	}

	var out []*Table
	for _, panel := range panels {
		t := NewTable(panel.title, structNames(ss), policyNames)
		t.Note = ">1 beats ICOUNT when fairness is accounted for"
		type cell struct{ sum, n float64 }
		acc := make([][]cell, len(ss))
		for i := range acc {
			acc[i] = make([]cell, len(policyNames))
		}
		for _, contexts := range []int{4, 8} {
			for _, k := range workload.Kinds() {
				for _, g := range workload.Groups(contexts) {
					st, err := stIPCs(contexts, k, g)
					if err != nil {
						return nil, err
					}
					base, err := r.Mix(contexts, k, g, "ICOUNT")
					if err != nil {
						return nil, err
					}
					basePerf := panel.perf(base, st)
					for j, pol := range policyNames {
						res, err := r.Mix(contexts, k, g, pol)
						if err != nil {
							return nil, err
						}
						perf := panel.perf(res, st)
						for i, s := range ss {
							b := metrics.Efficiency(basePerf, base.StructAVF(s))
							v := metrics.Efficiency(perf, res.StructAVF(s))
							if b > 0 {
								acc[i][j].sum += v / b
								acc[i][j].n++
							}
						}
					}
				}
			}
		}
		for i := range ss {
			for j := range policyNames {
				if acc[i][j].n > 0 {
					t.Set(i, j, acc[i][j].sum/acc[i][j].n)
				}
			}
		}
		out = append(out, t)
	}
	return out, nil
}
