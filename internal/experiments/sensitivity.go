package experiments

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/workload"
)

// Sensitivity probes the paper's §5 claim that "the performance gain does
// not correlate with the scale of hardware resources in a linear manner
// [while] the increased size of a microarchitecture structure is likely to
// bring in more in-flight instructions and expose more program states to
// soft-error strikes": it sweeps the sizes of the IQ, per-thread ROB, and
// per-thread LSQ on the 4-context mixed workload and reports IPC and the
// swept structure's AVF at each point. Runs are not cached (each uses a
// non-default machine).
func (r *Runner) Sensitivity() ([]*Table, error) {
	type sweep struct {
		title     string
		sizes     []int
		apply     func(*core.Config, int)
		strct     avf.Struct
		perThread bool // sizes are per thread; exposure scales by contexts
	}
	sweeps := []sweep{
		{
			"Sensitivity: shared IQ size (4 contexts, MIX group A)",
			[]int{32, 64, 96, 128, 192},
			func(c *core.Config, n int) { c.IQSize = n },
			avf.IQ,
			false,
		},
		{
			"Sensitivity: per-thread ROB size (4 contexts, MIX group A)",
			[]int{32, 64, 96, 128, 192},
			func(c *core.Config, n int) { c.ROBSize = n },
			avf.ROB,
			true,
		},
		{
			"Sensitivity: per-thread LSQ size (4 contexts, MIX group A)",
			[]int{16, 32, 48, 64, 96},
			func(c *core.Config, n int) { c.LSQSize = n },
			avf.LSQTag,
			true,
		},
	}

	m, err := workload.Lookup(4, workload.MIX, workload.GroupA)
	if err != nil {
		return nil, err
	}

	var out []*Table
	for _, sw := range sweeps {
		cols := make([]string, len(sw.sizes))
		for i, n := range sw.sizes {
			cols[i] = fmt.Sprintf("%d", n)
		}
		t := NewTable(sw.title, []string{"IPC", "AVF", "IPC/AVF", "ACE entries"}, cols)
		t.Note = "AVF of the swept structure; 'ACE entries' = AVF × entries, the absolute exposed state"
		for i, n := range sw.sizes {
			machine := core.DefaultConfig(4)
			sw.apply(&machine, n)
			res, err := r.run(campaign.Spec{Mix: m.Name(), Machine: &machine})
			if err != nil {
				return nil, fmt.Errorf("sensitivity %s=%d: %w", sw.title, n, err)
			}
			t.Set(0, i, res.IPC())
			t.Set(1, i, res.StructAVF(sw.strct))
			t.Set(2, i, res.Efficiency(sw.strct))
			entries := float64(n)
			if sw.perThread {
				entries *= 4
			}
			t.Set(3, i, res.StructAVF(sw.strct)*entries)
		}
		out = append(out, t)
	}
	return out, nil
}
