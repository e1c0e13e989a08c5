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

// row is one row of a grid: a label and the value it reads off one run.
type row struct {
	label string
	value func(*core.Results) float64
}

// structRows is one row per structure of ss, reading f(run, structure).
func structRows(ss []avf.Struct, f func(*core.Results, avf.Struct) float64) []row {
	rows := make([]row, len(ss))
	for i, s := range ss {
		rows[i] = row{s.String(), func(res *core.Results) float64 { return f(res, s) }}
	}
	return rows
}

// column is one (contexts, kind, policy) point of a grid.
type column struct {
	label    string
	contexts int
	kind     workload.Kind
	policy   string
}

// columns crosses kinds, contexts and policies, in that nesting order, and
// labels each point with label.
func columns(kinds []workload.Kind, contexts []int, policies []string, label func(column) string) []column {
	var cols []column
	for _, k := range kinds {
		for _, c := range contexts {
			for _, p := range policies {
				col := column{contexts: c, kind: k, policy: p}
				col.label = label(col)
				cols = append(cols, col)
			}
		}
	}
	return cols
}

// grid builds a table whose cell (i, j) is rows[i]'s value averaged over
// the group runs of cols[j] (MixAvg).
func (r *Runner) grid(title, note string, percent bool, rows []row, cols []column) (*Table, error) {
	t := NewTable(title, make([]string, len(rows)), make([]string, len(cols)))
	t.Note, t.Percent = note, percent
	for i, rw := range rows {
		t.Rows[i] = rw.label
	}
	for j, c := range cols {
		t.Cols[j] = c.label
		runs, err := r.MixAvg(c.contexts, c.kind, c.policy)
		if err != nil {
			return nil, err
		}
		for i, rw := range rows {
			t.Set(i, j, meanOver(runs, rw.value))
		}
	}
	return t, nil
}

func kindLabel(c column) string { return c.kind.String() }

// Figure1 reproduces the microarchitecture vulnerability profile of the
// 4-context SMT processor across CPU-, mixed-, and memory-bound workloads
// (AVF per structure, ICOUNT baseline, groups A and B averaged).
func (r *Runner) Figure1() (*Table, error) {
	return r.grid("Figure 1: SMT microarchitecture AVF profile (4 contexts, ICOUNT)",
		"AVF %, groups A and B averaged", true,
		structRows(paperStructs(), (*core.Results).StructAVF),
		columns(workload.Kinds(), []int{4}, []string{"ICOUNT"}, kindLabel))
}

// Figure2 reproduces the reliability-efficiency profile (IPC/AVF per
// structure) of the same runs as Figure 1.
func (r *Runner) Figure2() (*Table, error) {
	return r.grid("Figure 2: SMT reliability efficiency, IPC/AVF (4 contexts, ICOUNT)",
		"higher is better; groups A and B averaged", false,
		structRows(paperStructs(), (*core.Results).Efficiency),
		columns(workload.Kinds(), []int{4}, []string{"ICOUNT"}, kindLabel))
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

// smtVsST builds Figures 3 and 4 in one walk over the 4-context group-A
// mix of each kind under ICOUNT. Each thread is replayed alone with the
// instructions it completed in the SMT run as its budget (Single's
// machine-wide stop rule may commit up to CommitWidth-1 more); a mix's
// "all" row compares the SMT run with its replays run back to back.
func (r *Runner) smtVsST() (fig3, fig4 *Table, err error) {
	cols := []string{"IQ_ST", "FU_ST", "ROB_ST", "IQ_SMT", "FU_SMT", "ROB_SMT"}
	fig3 = NewTable("Figure 3: per-thread AVF, SMT vs single-thread execution (4 contexts)", nil, cols)
	fig3.Percent = true
	fig3.Note = "each thread's ST run commits exactly its SMT progress"
	fig4 = NewTable("Figure 4: per-thread reliability efficiency (IPC/AVF), SMT vs single-thread", nil, cols)
	fig4.Note = "higher is better"
	// add appends one row to both tables: AVF to Figure 3, IPC/AVF to 4.
	add := func(label string, stIPC, smtIPC float64, stAVF, smtAVF func(avf.Struct) float64) {
		a, e := make([]float64, len(cols)), make([]float64, len(cols))
		for i, s := range fig3Structs {
			a[i], a[i+3] = stAVF(s), smtAVF(s)
			e[i], e[i+3] = metrics.Efficiency(stIPC, a[i]), metrics.Efficiency(smtIPC, a[i+3])
		}
		fig3.Rows, fig3.Cells = append(fig3.Rows, label), append(fig3.Cells, a)
		fig4.Rows, fig4.Cells = append(fig4.Rows, label), append(fig4.Cells, e)
	}
	for _, k := range workload.Kinds() {
		smt, err := r.Mix(4, k, workload.GroupA, "ICOUNT")
		if err != nil {
			return nil, nil, err
		}
		m, err := workload.Lookup(4, k, workload.GroupA)
		if err != nil {
			return nil, nil, err
		}
		sts := make([]*core.Results, len(m.Benchmarks))
		var instr, cyc float64
		for tid, bench := range m.Benchmarks {
			st, err := r.Single(bench, replayQuota(smt, tid))
			if err != nil {
				return nil, nil, err
			}
			sts[tid] = st
			instr += float64(st.Total)
			cyc += float64(st.Cycles)
			add(fmt.Sprintf("%s:%s", k, bench), st.IPC(), smt.ThreadIPC(tid), st.StructAVF,
				func(s avf.Struct) float64 { return smt.ThreadStructAVF(s, tid) })
		}
		seqIPC := 0.0
		if cyc > 0 {
			seqIPC = instr / cyc
		}
		add(fmt.Sprintf("%s:all", k), seqIPC, smt.IPC(),
			func(s avf.Struct) float64 { return weightedSeqAVF(sts, s) }, smt.StructAVF)
	}
	return fig3, fig4, nil
}

// Figure3 reproduces the per-thread AVF comparison between SMT execution
// and single-thread (superscalar) execution of the same work, for the IQ,
// FU, and ROB (4-context group-A mixes).
func (r *Runner) Figure3() (*Table, error) {
	t, _, err := r.smtVsST()
	return t, err
}

// Figure4 reproduces the per-thread reliability efficiency (IPC/AVF)
// comparison between SMT and single-thread execution of the same runs as
// Figure 3.
func (r *Runner) Figure4() (*Table, error) {
	_, t, err := r.smtVsST()
	return t, err
}

// Figure5 reproduces the AVF trend with thread-context count (2, 4, 8) for
// each workload kind: panel (a) pipeline structures, panel (b) memory
// structures.
func (r *Runner) Figure5() ([]*Table, error) {
	cols := columns(workload.Kinds(), []int{2, 4, 8}, []string{"ICOUNT"},
		func(c column) string { return fmt.Sprintf("%s/%d", c.kind, c.contexts) })
	var out []*Table
	for _, p := range []struct {
		title   string
		structs []avf.Struct
	}{
		{"Figure 5(a): AVF vs number of contexts — pipeline structures",
			[]avf.Struct{avf.IQ, avf.FU, avf.ROB, avf.Reg}},
		{"Figure 5(b): AVF vs number of contexts — memory structures",
			[]avf.Struct{avf.LSQTag, avf.DL1Tag, avf.LSQData, avf.DL1Data}},
	} {
		t, err := r.grid(p.title, "AVF %, ICOUNT, groups averaged", true,
			structRows(p.structs, (*core.Results).StructAVF), cols)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure6 reproduces the per-structure AVF under the six fetch policies,
// one table per (context count, workload kind) — the paper's panels (a)
// 4 contexts and (b) 8 contexts.
func (r *Runner) Figure6() ([]*Table, error) {
	var out []*Table
	for _, contexts := range []int{4, 8} {
		for _, k := range workload.Kinds() {
			t, err := r.grid(fmt.Sprintf("Figure 6: AVF under fetch policies (%d contexts, %s)", contexts, k),
				"AVF %, groups averaged", true,
				structRows(paperStructs(), (*core.Results).StructAVF),
				columns([]workload.Kind{k}, []int{contexts}, policyNames, func(c column) string { return c.policy }))
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
	}
	return out, nil
}

// vsICOUNT builds a table of the fetch policies normalized to ICOUNT, one
// row per paper structure. value(pt, policy) returns each structure's
// figure of merit at point pt under policy; cell (s, p) averages
// value(pt, p)[s] / value(pt, "ICOUNT")[s] over the points where ICOUNT's
// value is positive.
func (r *Runner) vsICOUNT(title, note string, points []MixSpec,
	value func(pt MixSpec, policy string) ([]float64, error)) (*Table, error) {
	t := NewTable(title, structNames(paperStructs()), policyNames)
	t.Note = note
	n := NewTable("", t.Rows, t.Cols) // points counted per cell
	for _, pt := range points {
		base, err := value(pt, "ICOUNT")
		if err != nil {
			return nil, err
		}
		for j, pol := range policyNames {
			v, err := value(pt, pol)
			if err != nil {
				return nil, err
			}
			for i, b := range base {
				if b > 0 {
					t.Cells[i][j] += v[i] / b
					n.Cells[i][j]++
				}
			}
		}
	}
	for i, cells := range n.Cells {
		for j, c := range cells {
			if c > 0 {
				t.Cells[i][j] /= c
			}
		}
	}
	return t, nil
}

// Figure7 reproduces the reliability-efficiency comparison of the fetch
// policies: IPC/AVF per structure, normalized to the ICOUNT baseline and
// averaged over workload kinds and context counts (4 and 8).
func (r *Runner) Figure7() (*Table, error) {
	var points []MixSpec
	for _, contexts := range []int{4, 8} {
		for _, k := range workload.Kinds() {
			points = append(points, MixSpec{Contexts: contexts, Kind: k})
		}
	}
	return r.vsICOUNT("Figure 7: IPC/AVF of fetch policies, normalized to ICOUNT",
		">1 means a better performance/reliability tradeoff than ICOUNT", points,
		func(pt MixSpec, pol string) ([]float64, error) {
			runs, err := r.MixAvg(pt.Contexts, pt.Kind, pol)
			if err != nil {
				return nil, err
			}
			var v []float64
			for _, rw := range structRows(paperStructs(), (*core.Results).Efficiency) {
				v = append(v, meanOver(runs, rw.value))
			}
			return v, nil
		})
}

// Figure8 reproduces the fairness-aware reliability-efficiency comparison:
// panel (a) weighted-speedup/AVF and panel (b) harmonic-IPC/AVF, each
// normalized to ICOUNT and averaged over kinds, groups and context counts.
func (r *Runner) Figure8() ([]*Table, error) {
	var points []MixSpec
	for _, contexts := range []int{4, 8} {
		for _, k := range workload.Kinds() {
			for _, g := range workload.Groups(contexts) {
				points = append(points, MixSpec{Contexts: contexts, Kind: k, Group: g})
			}
		}
	}
	var out []*Table
	for _, p := range []struct {
		title string
		perf  func(smtIPC, stIPC []float64) (float64, error)
		floor float64 // the IPC a starved thread counts with
	}{
		{"Figure 8(a): weighted-speedup/AVF, normalized to ICOUNT", metrics.WeightedSpeedup, 0},
		// A starved thread's zero IPC would collapse the harmonic mean.
		{"Figure 8(b): harmonic-IPC/AVF, normalized to ICOUNT", metrics.HarmonicIPC, 1e-9},
	} {
		t, err := r.vsICOUNT(p.title, ">1 beats ICOUNT when fairness is accounted for", points,
			func(pt MixSpec, pol string) ([]float64, error) {
				res, err := r.Mix(pt.Contexts, pt.Kind, pt.Group, pol)
				if err != nil {
					return nil, err
				}
				m, err := workload.Lookup(pt.Contexts, pt.Kind, pt.Group)
				if err != nil {
					return nil, err
				}
				smt, st := make([]float64, res.Threads), make([]float64, len(m.Benchmarks))
				for i := range smt {
					if smt[i] = res.ThreadIPC(i); smt[i] <= 0 {
						smt[i] = p.floor
					}
				}
				for i, b := range m.Benchmarks {
					base, err := r.Single(b, r.opts.Base) // standalone IPC, the speedup weight
					if err != nil {
						return nil, err
					}
					st[i] = base.IPC()
				}
				perf, err := p.perf(smt, st)
				if err != nil {
					perf = 0 // a metric error counts as 0
				}
				var v []float64
				for _, s := range paperStructs() {
					v = append(v, metrics.Efficiency(perf, res.StructAVF(s)))
				}
				return v, nil
			})
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
