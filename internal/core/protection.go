package core

import (
	"sort"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
)

// ProtectionMode is the error-protection scheme assumed on a structure
// when classifying fault-injection strike outcomes: parity detects an ACE
// hit (turning silent corruption into a detected unrecoverable error),
// ECC corrects it. It is the inject package's strike taxonomy level.
type ProtectionMode = inject.Detection

// Protection schemes, weakest first.
const (
	ProtectNone   = inject.DetectNone
	ProtectParity = inject.DetectOnly
	ProtectECC    = inject.DetectCorrect
)

// ProtectionModes assigns a scheme to every instrumented structure.
type ProtectionModes [avf.NumStructs]ProtectionMode

// Detections returns the per-structure schemes as the array
// Campaign.SetProtection takes.
func (p ProtectionModes) Detections() [avf.NumStructs]inject.Detection { return p }

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
