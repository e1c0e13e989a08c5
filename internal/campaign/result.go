package campaign

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/crossval"
	"smtavf/internal/propagation"
)

// ResultVersion identifies the Result JSON schema.
const ResultVersion = 1

// Result is one executed campaign point, rendered for the wire and the
// per-campaign results.jsonl: the headline simulation numbers plus
// whatever the spec's kind produced. Executors fill the sections their
// kind owns and leave the rest nil.
type Result struct {
	V int `json:"v"`
	// Point is the index of this point within its campaign's expansion;
	// Campaign is the owning campaign ID. Both are zero outside the
	// service.
	Point    int    `json:"point"`
	Campaign string `json:"campaign,omitempty"`

	Kind     Kind   `json:"kind"`
	Name     string `json:"name,omitempty"`
	Title    string `json:"title,omitempty"` // report headline (workload, maybe policy)
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	// Status is "ok" or "error"; Error carries the message.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	// Headline simulation numbers (the first — or only — run of the
	// point; zero for table-only kinds that ran several).
	Cycles       uint64  `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	ProcessorAVF float64 `json:"processor_avf,omitempty"`
	// AVF maps structure names onto whole-structure AVFs.
	AVF map[string]float64 `json:"avf,omitempty"`

	// Strikes counts injected faults (run-with-inject and crossval).
	Strikes uint64 `json:"strikes,omitempty"`
	// CrossVal is the pooled ACE-vs-injection agreement report;
	// CrossValSeeds keeps the per-seed reports behind it.
	CrossVal      *crossval.Report   `json:"crossval,omitempty"`
	CrossValSeeds []*crossval.Report `json:"crossval_seeds,omitempty"`

	// Propagation summarizes the fault-propagation atlas; the full Atlas
	// rides along in memory for local renderers (avfreport's chart
	// output) but is too large for the wire.
	Propagation *PropagationSummary `json:"propagation,omitempty"`
	Atlas       *propagation.Atlas  `json:"-"`

	// Tables carries the rendered tables of the explain kind, the one kind
	// that produces them.
	Tables []Table `json:"tables,omitempty"`
}

// Table is the wire form of an experiments table: a labelled matrix.
type Table struct {
	Title   string      `json:"title"`
	Note    string      `json:"note,omitempty"`
	Rows    []string    `json:"rows"`
	Cols    []string    `json:"cols"`
	Cells   [][]float64 `json:"cells"`
	Percent bool        `json:"percent,omitempty"`
}

// PropagationSummary is the wire-sized digest of a propagation.Atlas.
type PropagationSummary struct {
	Strikes   int            `json:"strikes"`
	Resolved  int            `json:"resolved"`
	Truncated int            `json:"truncated"`
	Terminals map[string]int `json:"terminals,omitempty"`
	// CrossEdges counts propagation steps that crossed a thread boundary.
	CrossEdges int `json:"cross_edges,omitempty"`
	MaxDepth   int `json:"max_depth,omitempty"`
	// Dropped counts uops retired past the tracer's node cap, which no
	// trace can reach (propagation.Atlas.Dropped).
	Dropped uint64 `json:"dropped,omitempty"`
}

// SummarizeAtlas digests an atlas for the wire.
func SummarizeAtlas(a *propagation.Atlas) *PropagationSummary {
	if a == nil {
		return nil
	}
	s := &PropagationSummary{
		Strikes:   a.Strikes,
		Resolved:  a.Resolved,
		Truncated: a.Truncated,
		MaxDepth:  a.MaxDepth,
		Dropped:   a.Dropped,
	}
	if len(a.Terminals) > 0 {
		s.Terminals = make(map[string]int, len(a.Terminals))
		for k, v := range a.Terminals {
			s.Terminals[k] = v
		}
	}
	s.CrossEdges = int(a.CrossEdges())
	return s
}

// FillRun populates the headline numbers from a simulation result.
func (r *Result) FillRun(res *core.Results) {
	r.Cycles = res.Cycles
	r.Instructions = res.Total
	r.IPC = res.IPC()
	r.ProcessorAVF = res.ProcessorAVF()
	r.AVF = make(map[string]float64, avf.NumStructs)
	for _, s := range avf.Structs() {
		r.AVF[s.String()] = res.StructAVF(s)
	}
}

// Err is a convenience constructor for a failed point.
func Err(spec Spec, err error) *Result {
	return &Result{
		V:        ResultVersion,
		Kind:     spec.Kind(),
		Name:     spec.Name,
		Workload: spec.WorkloadName(),
		Policy:   spec.PolicyName(),
		Status:   "error",
		Error:    fmt.Sprint(err),
	}
}
