package experiments

import (
	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/workload"
)

// extensionPolicies pits the baseline and the two best paper policies
// against the two §5 future-work proposals implemented here: STALLP
// (L2-miss-predictive gating) and VAware (vulnerability-feedback fetch
// priority).
var extensionPolicies = []string{"ICOUNT", "STALL", "FLUSH", "STALLP", "VAware"}

// Extensions evaluates the paper's §5 proposed mechanisms on the
// 4-context mixes: throughput, IQ/ROB AVF, and the IQ reliability
// efficiency, per policy (groups averaged, kinds averaged per column
// group).
func (r *Runner) Extensions() (*Table, error) {
	return r.grid("Extensions: the paper's §5 proposals (4 contexts)",
		"STALLP and VAware are the future-work mechanisms the paper sketches", false,
		[]row{
			{"IPC", (*core.Results).IPC},
			{"IQ AVF", func(res *core.Results) float64 { return res.StructAVF(avf.IQ) }},
			{"ROB AVF", func(res *core.Results) float64 { return res.StructAVF(avf.ROB) }},
			{"IQ IPC/AVF", func(res *core.Results) float64 { return res.Efficiency(avf.IQ) }},
		},
		columns(workload.Kinds(), []int{4}, extensionPolicies,
			func(c column) string { return c.kind.String() + "/" + c.policy }))
}
