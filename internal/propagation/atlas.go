package propagation

import (
	"fmt"
	"sort"
	"strings"
)

// Root is one entry of the root-cause ranking: the instruction (by thread
// and PC) whose in-flight state strikes corrupted first, with how often
// that corruption survived to commit.
type Root struct {
	TID     int
	PC      uint64
	Op      string
	Strikes int // corrupting strikes first landing on this instruction
	SDC     int // of those, traces terminating in silent data corruption
}

// Atlas is the aggregate of a propagation analysis: every per-strike
// Trace plus the cross-trace tables — terminal taxonomy, per-edge-type
// hop histograms, the thread contamination matrix, per-structure escape
// routes, and the per-PC root-cause ranking.
type Atlas struct {
	// Strikes counts analyzed strikes; Resolved those whose victim uop
	// was identified; Truncated those whose expansion hit the node bound.
	Strikes   int
	Resolved  int
	Truncated int
	// Terminals counts traces per terminal class (sdc/due/corrected/masked).
	Terminals map[string]int
	// EdgeCounts counts traversed edges per type across all traces.
	EdgeCounts map[string]int
	// HopHist[type][hop] counts edges of a type crossed at a given depth
	// (hop 1 is the first edge out of the victim).
	HopHist map[string][]uint64
	// Matrix[from][to] counts dataflow edges from thread 'from' into
	// thread 'to': the diagonal is intra-thread flow, off-diagonal
	// entries are cross-thread contamination through the shared DL1.
	Matrix [][]uint64
	// Escapes[struct][type] counts hop-1 edges per struck structure: the
	// route corruption takes out of each structure.
	Escapes map[string]map[string]int
	// MaxDepth is the deepest hop any trace reached.
	MaxDepth int
	// Dropped counts the uops the run retired past the tracer's node cap
	// (Options.Cap). They were not recorded, so strikes on them resolve no
	// victim and edges into them are missing.
	Dropped uint64
	// Traces holds every per-strike record, in strike order.
	Traces []Trace

	roots map[rootKey]*Root
}

type rootKey struct {
	tid int
	pc  uint64
}

// NewAtlas builds an empty atlas for a machine with the given thread
// count (the contamination matrix grows if traces name higher threads).
func NewAtlas(threads int) *Atlas {
	a := &Atlas{
		Terminals:  map[string]int{},
		EdgeCounts: map[string]int{},
		HopHist:    map[string][]uint64{},
		Escapes:    map[string]map[string]int{},
		roots:      map[rootKey]*Root{},
	}
	a.growMatrix(threads)
	return a
}

func (a *Atlas) growMatrix(threads int) {
	for len(a.Matrix) < threads {
		a.Matrix = append(a.Matrix, nil)
	}
	for i := range a.Matrix {
		for len(a.Matrix[i]) < threads {
			a.Matrix[i] = append(a.Matrix[i], 0)
		}
	}
}

// Add appends one trace and folds it into the aggregate tables; it
// rebuilds an atlas from traces read back off JSONL.
func (a *Atlas) Add(tr Trace) {
	a.Traces = append(a.Traces, tr)
	a.fold(&a.Traces[len(a.Traces)-1])
}

// fold adds one trace to the aggregate tables.
func (a *Atlas) fold(tr *Trace) {
	a.Strikes++
	a.Terminals[tr.Terminal]++
	if tr.Resolved {
		a.Resolved++
		r := a.roots[rootKey{tr.RootTID, tr.RootPC}]
		if r == nil {
			r = &Root{TID: tr.RootTID, PC: tr.RootPC, Op: tr.RootOp}
			a.roots[rootKey{tr.RootTID, tr.RootPC}] = r
		}
		r.Strikes++
		if tr.Terminal == TerminalSDC {
			r.SDC++
		}
	}
	if tr.Truncated {
		a.Truncated++
	}
	if tr.Depth > a.MaxDepth {
		a.MaxDepth = tr.Depth
	}
	for typ, n := range tr.Edges {
		a.EdgeCounts[typ] += n
	}
	for pair, n := range tr.Pairs {
		var from, to int
		if _, err := fmt.Sscanf(pair, "%d>%d", &from, &to); err != nil || from < 0 || to < 0 {
			continue
		}
		th := from
		if to > th {
			th = to
		}
		a.growMatrix(th + 1)
		a.Matrix[from][to] += uint64(n)
	}
	for _, h := range tr.Hops {
		hist := a.HopHist[h.Type]
		for len(hist) <= h.Hop {
			hist = append(hist, 0)
		}
		hist[h.Hop]++
		a.HopHist[h.Type] = hist
		if h.Hop == 1 {
			esc := a.Escapes[tr.Struct]
			if esc == nil {
				esc = map[string]int{}
				a.Escapes[tr.Struct] = esc
			}
			esc[h.Type]++
		}
	}
}

// CrossEdges returns the total off-diagonal mass of the contamination
// matrix — edges that crossed a thread boundary.
func (a *Atlas) CrossEdges() uint64 {
	var n uint64
	for i := range a.Matrix {
		for j := range a.Matrix[i] {
			if i != j {
				n += a.Matrix[i][j]
			}
		}
	}
	return n
}

// Roots returns the root-cause ranking: instructions ordered by SDC
// count, then corrupting strikes, then thread and PC.
func (a *Atlas) Roots() []Root {
	out := make([]Root, 0, len(a.roots))
	for _, r := range a.roots {
		out = append(out, *r)
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].SDC != out[y].SDC {
			return out[x].SDC > out[y].SDC
		}
		if out[x].Strikes != out[y].Strikes {
			return out[x].Strikes > out[y].Strikes
		}
		if out[x].TID != out[y].TID {
			return out[x].TID < out[y].TID
		}
		return out[x].PC < out[y].PC
	})
	return out
}

// Tables renders the atlas as aligned text tables: the headline summary,
// the top root causes, per-edge-type hop histograms, the thread
// contamination matrix, and per-structure escape routes. top bounds the
// root-cause table (0 means 10).
func (a *Atlas) Tables(top int) string {
	if top <= 0 {
		top = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault-propagation atlas: %d strikes, %d resolved", a.Strikes, a.Resolved)
	if a.Truncated > 0 {
		fmt.Fprintf(&b, ", %d truncated", a.Truncated)
	}
	if a.Dropped > 0 {
		fmt.Fprintf(&b, ", %d uops past the node cap unrecorded", a.Dropped)
	}
	b.WriteString("\n  terminals:")
	for _, term := range [4]string{TerminalSDC, TerminalDUE, TerminalCorrected, TerminalMasked} {
		fmt.Fprintf(&b, " %s=%d", term, a.Terminals[term])
	}
	fmt.Fprintf(&b, "\n  edges:")
	for _, typ := range EdgeTypes {
		fmt.Fprintf(&b, " %s=%d", typ, a.EdgeCounts[typ])
	}
	fmt.Fprintf(&b, " (max depth %d, cross-thread %d)\n", a.MaxDepth, a.CrossEdges())

	roots := a.Roots()
	if len(roots) > 0 {
		b.WriteString("\nroot causes (first-corrupted instructions):\n")
		fmt.Fprintf(&b, "  %-4s %-12s %-7s %8s %8s\n", "tid", "pc", "op", "strikes", "sdc")
		if len(roots) > top {
			roots = roots[:top]
		}
		for _, r := range roots {
			fmt.Fprintf(&b, "  %-4d %#-12x %-7s %8d %8d\n", r.TID, r.PC, r.Op, r.Strikes, r.SDC)
		}
	}

	if len(a.HopHist) > 0 {
		b.WriteString("\nhop depth by edge type (recorded hops):\n")
		for _, typ := range EdgeTypes {
			hist := a.HopHist[typ]
			if len(hist) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-12s", typ)
			for h := 1; h < len(hist); h++ {
				fmt.Fprintf(&b, " %d:%d", h, hist[h])
			}
			b.WriteString("\n")
		}
	}

	if len(a.Matrix) > 0 {
		b.WriteString("\nthread contamination matrix (edges from row thread into column thread):\n  from\\to")
		for j := range a.Matrix {
			fmt.Fprintf(&b, " %8s", fmt.Sprintf("T%d", j))
		}
		b.WriteString("\n")
		for i := range a.Matrix {
			fmt.Fprintf(&b, "  %-7s", fmt.Sprintf("T%d", i))
			for j := range a.Matrix[i] {
				fmt.Fprintf(&b, " %8d", a.Matrix[i][j])
			}
			b.WriteString("\n")
		}
	}

	if len(a.Escapes) > 0 {
		b.WriteString("\nescape routes (first hop out of the struck structure):\n")
		structs := make([]string, 0, len(a.Escapes))
		for s := range a.Escapes {
			structs = append(structs, s)
		}
		sort.Strings(structs)
		for _, s := range structs {
			fmt.Fprintf(&b, "  %-9s", s)
			for _, typ := range EdgeTypes {
				if n := a.Escapes[s][typ]; n > 0 {
					fmt.Fprintf(&b, " %s=%d", typ, n)
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
