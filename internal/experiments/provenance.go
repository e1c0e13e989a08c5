package experiments

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/campaign"
	"smtavf/internal/pipetrace"
	"smtavf/internal/shard"
)

// Provenance runs the named Table 2 mix under the given fetch policy with
// the pipeline flight recorder attached and folds the recording into AVF
// provenance tables: which static instructions the ACE bit-cycles of each
// uop-tracked structure came from, and what fate the resident state met.
// Provenance runs are not memoized — they need their own (single)
// simulation with the recorder attached. The recorder keeps no per-uop
// records, only the per-PC aggregation the tables read.
func (r *Runner) Provenance(mixName, policy string, top int) ([]*Table, error) {
	rv, err := campaign.Spec{Mix: mixName, Policy: policy}.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	rec := pipetrace.New(pipetrace.Options{ProvenanceOnly: true})
	if _, err := rv.Run(shard.Options{PipeTrace: rec}); err != nil {
		return nil, fmt.Errorf("provenance run %s under %s: %w", mixName, policy, err)
	}
	title := fmt.Sprintf("%s under %s", mixName, policy)
	return ProvenanceTables(rec.Provenance(), title, top), nil
}

// ProvenanceTables renders a folded flight recording as two percent grids:
// the share of each structure's ACE bit-cycles attributed to the top
// static instructions, and the share of each structure's recorded
// occupancy that met each fate.
func ProvenanceTables(prov *pipetrace.Provenance, title string, top int) []*Table {
	structs := pipetrace.RecordStructs
	cols := make([]string, len(structs))
	for i, s := range structs {
		cols[i] = s.String()
	}

	pcs := prov.PCs
	if top > 0 && len(pcs) > top {
		pcs = pcs[:top]
	}
	rows := make([]string, len(pcs))
	for i := range pcs {
		rows[i] = pcs[i].Label()
	}
	hot := NewTable("AVF provenance: "+title+", ACE bit-cycle share by PC", rows, cols)
	hot.Note = fmt.Sprintf("top %d of %d PCs; columns sum to 100%% over all PCs", len(pcs), len(prov.PCs))
	hot.Percent = true
	for i := range pcs {
		for j, s := range structs {
			if t := prov.TotalACE[s]; t > 0 {
				hot.Set(i, j, float64(pcs[i].ACE[s])/float64(t))
			}
		}
	}

	fates := avf.Fates()
	frows := make([]string, len(fates))
	for i, f := range fates {
		frows[i] = f.String()
	}
	fate := NewTable("AVF provenance: "+title+", occupancy share by fate", frows, cols)
	fate.Note = "share of each structure's recorded bit-cycle occupancy; only committed-fate state is ACE"
	fate.Percent = true
	for i := range prov.Fates {
		f := &prov.Fates[i]
		for j, s := range structs {
			if t := prov.TotalResident[s]; t > 0 {
				fate.Set(int(f.Fate), j, float64(f.Resident[s])/float64(t))
			}
		}
	}
	return []*Table{hot, fate}
}
