package avf

// Report is an immutable per-structure AVF snapshot extracted from a
// Tracker at the end of a run. Alongside the derived rates it carries the
// raw integer bit-cycle numerators they are computed from.
type Report struct {
	Cycles    uint64
	Threads   int
	Total     [NumStructs]float64   // AVF per structure
	PerThread [][NumStructs]float64 // AVF contribution per thread
	Occ       [NumStructs]float64   // occupancy diagnostic

	// Raw residency numerators behind the rates above. ACE[tid][s] and
	// UnACE[tid][s] are the bit-cycles thread tid held in structure s,
	// classified; their per-structure sums over threads divided by
	// bits(s)×Cycles reproduce Total and Occ exactly.
	ACE   [][NumStructs]uint64
	UnACE [][NumStructs]uint64
}

// Snapshot extracts a Report covering totalCycles cycles.
func (t *Tracker) Snapshot(totalCycles uint64) Report {
	t.drain()
	r := Report{
		Cycles:    totalCycles,
		Threads:   t.threads,
		PerThread: make([][NumStructs]float64, t.threads),
		ACE:       make([][NumStructs]uint64, t.threads),
		UnACE:     make([][NumStructs]uint64, t.threads),
	}
	for s := Struct(0); s < NumStructs; s++ {
		r.Total[s] = t.AVF(s, totalCycles)
		r.Occ[s] = t.Occupancy(s, totalCycles)
		for tid := 0; tid < t.threads; tid++ {
			r.PerThread[tid][s] = t.ThreadAVF(s, tid, totalCycles)
			r.ACE[tid][s] = t.ace[s][tid]
			r.UnACE[tid][s] = t.unace[s][tid]
		}
	}
	return r
}

// AVF returns the whole-structure AVF of s.
func (r *Report) AVF(s Struct) float64 { return r.Total[s] }

// ThreadAVF returns thread tid's contribution to the AVF of s.
func (r *Report) ThreadAVF(s Struct, tid int) float64 { return r.PerThread[tid][s] }
