package pipetrace

import (
	"fmt"
	"sort"
	"strings"

	"smtavf/internal/avf"
)

// PCProfile is the provenance of one static instruction: how many dynamic
// instances the recorder saw, and how many bit-cycles they contributed to
// each structure, split into ACE (fate committed) and total residency.
type PCProfile struct {
	TID   int
	PC    uint64
	Op    string
	Count uint64 // dynamic instances recorded

	ACE      [avf.NumStructs]uint64 // ACE bit-cycles by structure
	Resident [avf.NumStructs]uint64 // ACE + un-ACE bit-cycles by structure
}

// Label renders the profile's identity for tables: "T0 0x12ab0 load".
func (p *PCProfile) Label() string {
	return fmt.Sprintf("T%d 0x%x %s", p.TID, p.PC, p.Op)
}

// FateProfile is the residency of one fate class across all PCs.
type FateProfile struct {
	Fate     avf.Fate
	Count    uint64 // dynamic uops with this fate
	Resident [avf.NumStructs]uint64
}

// Provenance is the folded flight recording: where the ACE bit-cycles of
// each structure came from (per-PC hotspots) and what fate the resident
// state met (per-fate breakdown). Bit-cycle sums over PCs equal the AVF
// tracker's per-structure numerators exactly when no sampling window
// truncated the recording.
type Provenance struct {
	// Records is the number of uops folded into the report.
	Records int

	// PCs, sorted by total ACE bit-cycles (descending; ties by TID then
	// PC so output is deterministic).
	PCs []PCProfile

	// Fates in avf.Fates order.
	Fates []FateProfile

	TotalACE      [avf.NumStructs]uint64
	TotalResident [avf.NumStructs]uint64
}

// Provenance folds the aggregation into a report. Call after Run.
func (r *Recorder) Provenance() *Provenance {
	p := &Provenance{}
	if r == nil {
		return p
	}
	p.Fates = make([]FateProfile, avf.NumFates)
	for _, f := range avf.Fates() {
		p.Fates[f] = FateProfile{Fate: f, Count: r.fateCount[f]}
		p.Records += int(r.fateCount[f])
	}
	p.PCs = make([]PCProfile, 0, len(r.pcs))
	for id, meta := range r.pcs {
		prof := PCProfile{TID: id.tid, PC: id.pc, Op: meta.op, Count: meta.count}
		for i, s := range RecordStructs {
			for f, bc := range meta.bc[i] {
				prof.Resident[s] += bc
				p.Fates[f].Resident[s] += bc
				p.TotalResident[s] += bc
				if avf.Fate(f).ACE() {
					prof.ACE[s] += bc
					p.TotalACE[s] += bc
				}
			}
		}
		p.PCs = append(p.PCs, prof)
	}
	sort.Slice(p.PCs, func(i, j int) bool {
		a, b := &p.PCs[i], &p.PCs[j]
		ta, tb := a.totalACE(), b.totalACE()
		if ta != tb {
			return ta > tb
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.PC < b.PC
	})
	return p
}

func (p *PCProfile) totalACE() uint64 {
	var sum uint64
	for _, v := range p.ACE {
		sum += v
	}
	return sum
}

// Hotspots returns the top-n PCs by ACE bit-cycles in structure s,
// descending (fewer if the recording holds fewer distinct PCs with any
// ACE residency there).
func (p *Provenance) Hotspots(s avf.Struct, n int) []PCProfile {
	idx := make([]int, 0, len(p.PCs))
	for i := range p.PCs {
		if p.PCs[i].ACE[s] > 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return p.PCs[idx[a]].ACE[s] > p.PCs[idx[b]].ACE[s]
	})
	if len(idx) > n {
		idx = idx[:n]
	}
	out := make([]PCProfile, len(idx))
	for i, j := range idx {
		out[i] = p.PCs[j]
	}
	return out
}

// FormatHotspots renders the top-n table for structure s as aligned text:
// each row one static instruction with its dynamic count, ACE bit-cycles
// in s, and its share of the structure's total ACE bit-cycles.
func (p *Provenance) FormatHotspots(s avf.Struct, n int) string {
	hs := p.Hotspots(s, n)
	var b strings.Builder
	fmt.Fprintf(&b, "top %d PCs by %s ACE bit-cycles (%d records):\n", len(hs), s, p.Records)
	fmt.Fprintf(&b, "  %-28s %10s %14s %7s\n", "pc", "count", "ace-bitcycles", "share")
	total := p.TotalACE[s]
	for i := range hs {
		h := &hs[i]
		share := 0.0
		if total > 0 {
			share = float64(h.ACE[s]) / float64(total)
		}
		fmt.Fprintf(&b, "  %-28s %10d %14d %6.2f%%\n", h.Label(), h.Count, h.ACE[s], 100*share)
	}
	return b.String()
}

// FormatFates renders the per-fate residency breakdown across the
// uop-tracked pipeline structures as aligned text: the share of each
// structure's recorded occupancy that met each fate.
func (p *Provenance) FormatFates() string {
	structs := RecordStructs
	var b strings.Builder
	b.WriteString("residency by fate (share of recorded occupancy):\n")
	fmt.Fprintf(&b, "  %-12s %10s", "fate", "uops")
	for _, s := range structs {
		fmt.Fprintf(&b, "%10s", s)
	}
	b.WriteByte('\n')
	for i := range p.Fates {
		f := &p.Fates[i]
		fmt.Fprintf(&b, "  %-12s %10d", f.Fate, f.Count)
		for _, s := range structs {
			share := 0.0
			if p.TotalResident[s] > 0 {
				share = float64(f.Resident[s]) / float64(p.TotalResident[s])
			}
			fmt.Fprintf(&b, "%9.2f%%", 100*share)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
