package core

import (
	"sort"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
)

// ProtectionMode is the error-protection scheme assumed on a structure
// when classifying fault-injection strike outcomes: parity detects an ACE
// hit (turning silent corruption into a detected unrecoverable error),
// ECC corrects it.
type ProtectionMode int

// Protection schemes, weakest first.
const (
	ProtectNone ProtectionMode = iota
	ProtectParity
	ProtectECC
)

func (m ProtectionMode) String() string {
	switch m {
	case ProtectParity:
		return "parity"
	case ProtectECC:
		return "ecc"
	default:
		return "none"
	}
}

// Detection maps the scheme onto the inject package's strike taxonomy.
func (m ProtectionMode) Detection() inject.Detection {
	switch m {
	case ProtectParity:
		return inject.DetectOnly
	case ProtectECC:
		return inject.DetectCorrect
	default:
		return inject.DetectNone
	}
}

// ProtectionModes assigns a scheme to every instrumented structure.
type ProtectionModes [avf.NumStructs]ProtectionMode

// Detections converts the per-structure schemes to the inject package's
// Detection levels, ready for Campaign.SetProtection.
func (p ProtectionModes) Detections() [avf.NumStructs]inject.Detection {
	var d [avf.NumStructs]inject.Detection
	for s := range p {
		d[s] = p[s].Detection()
	}
	return d
}

// ProtectionItem ranks one structure in a protection plan.
type ProtectionItem struct {
	Struct avf.Struct
	Bits   uint64  // capacity the protection must cover
	FIT    float64 // failure contribution at the given raw rate
	// CumulativeCoverage is the fraction of the whole-processor FIT
	// eliminated by protecting this structure and every one ranked above
	// it (assuming the protection — ECC/parity with recovery — removes
	// the structure's contribution entirely).
	CumulativeCoverage float64
}

// ProtectionPlan ranks the instrumented structures by their FIT
// contribution at the given raw error rate (FIT per megabit) — the
// paper's §5 guidance made actionable: "to avoid vulnerability hotspots
// in their designs, architects need to first focus on protecting those
// shared SMT microarchitecture structures". The returned list is sorted
// by descending FIT, with the cumulative fraction of chip FIT removed if
// the first k entries are protected.
func (r *Results) ProtectionPlan(rawFITPerMbit float64) []ProtectionItem {
	total := r.TotalFIT(rawFITPerMbit)
	items := make([]ProtectionItem, 0, avf.NumStructs)
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		items = append(items, ProtectionItem{
			Struct: s,
			Bits:   r.Bits[s],
			FIT:    r.FIT(s, rawFITPerMbit),
		})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].FIT != items[j].FIT {
			return items[i].FIT > items[j].FIT
		}
		return items[i].Struct < items[j].Struct
	})
	cum := 0.0
	for i := range items {
		cum += items[i].FIT
		if total > 0 {
			items[i].CumulativeCoverage = cum / total
		}
	}
	return items
}
