package propagation

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"smtavf/internal/jsonlio"
)

// SchemaVersion is stamped into every Trace ("v" in JSONL) so downstream
// tooling can detect format drift. Bump it on any incompatible change to
// the Trace schema.
const SchemaVersion = 1

// Edge types of the propagation graph.
const (
	// EdgeReg is register dataflow: producer writeback → consumer wakeup
	// through a shared physical register.
	EdgeReg = "reg"
	// EdgeForward is store-to-load forwarding inside the LSQ.
	EdgeForward = "forward"
	// EdgeMemory is a committed store read back by a later same-word load
	// through the cache.
	EdgeMemory = "memory"
	// EdgeCrossThread is contamination through the shared DL1 arrays: the
	// next access another thread makes to a corrupted set.
	EdgeCrossThread = "cross_thread"
)

// EdgeTypes lists the propagation edge types in presentation order.
var EdgeTypes = [4]string{EdgeReg, EdgeForward, EdgeMemory, EdgeCrossThread}

// Terminal classifications of a trace.
const (
	// TerminalSDC: tainted state committed architecturally — silent data
	// corruption.
	TerminalSDC = "sdc"
	// TerminalDUE: the structure's parity detected the strike; propagation
	// is cut at hop 0.
	TerminalDUE = "due"
	// TerminalCorrected: ECC corrected the strike before it left the
	// structure.
	TerminalCorrected = "corrected"
	// TerminalMasked: the strike hit no ACE state, or every tainted uop
	// was squashed, dead, or a NOP — the corruption never committed.
	TerminalMasked = "masked"
)

// Hop is one edge of a strike's propagation graph: the corruption moved
// from the uop at FromPC to the uop at ToPC over a dataflow edge of the
// given type, reaching depth Hop (the victim is hop 0).
type Hop struct {
	Hop     int    `json:"hop"`
	Type    string `json:"type"`
	FromTID int    `json:"from_tid"`
	FromPC  uint64 `json:"from_pc"`
	ToTID   int    `json:"to_tid"`
	ToPC    uint64 `json:"to_pc"`
	// Cycle is when the corrupted value crossed the edge (consumer issue,
	// load issue, or the contaminating cache access).
	Cycle uint64 `json:"cycle"`
}

// Trace is the propagation record of one strike — one JSONL line of the
// atlas. Strikes that hit no ACE state (Outcome "masked") carry no victim;
// detected strikes (DUE, corrected) resolve their victim but stop at hop 0.
type Trace struct {
	V       int    `json:"v"` // SchemaVersion
	Struct  string `json:"struct"`
	Cycle   uint64 `json:"cycle"`
	Bit     uint64 `json:"bit"`
	TID     int    `json:"tid"` // owning thread; -1 for masked strikes
	Outcome string `json:"outcome"`

	// Resolved reports the victim uop was identified; strikes into
	// structures the tracer does not model (TLBs), or landing where no
	// recorded uop was resident, stay unresolved.
	Resolved bool   `json:"resolved"`
	RootTID  int    `json:"root_tid"`
	RootPC   uint64 `json:"root_pc"`
	RootOp   string `json:"root_op,omitempty"`

	// Terminal is where the corruption ended: "sdc", "due", "corrected",
	// or "masked".
	Terminal string `json:"terminal"`
	// CommitHop is the depth of the shallowest tainted uop that committed
	// architecturally (-1 when none did).
	CommitHop int `json:"commit_hop"`
	// Tainted counts distinct corrupted uops (the victim included); Depth
	// is the deepest hop reached.
	Tainted int `json:"tainted"`
	Depth   int `json:"depth"`
	// CrossThread counts edges that crossed a thread boundary.
	CrossThread int `json:"cross_thread"`
	// Truncated reports the taint expansion hit the per-trace node bound;
	// counts are then lower bounds.
	Truncated bool `json:"truncated,omitempty"`
	// Edges counts traversed edges per type (exact even when the recorded
	// hop list below is capped).
	Edges map[string]int `json:"edges,omitempty"`
	// Pairs counts edges per thread pair, keyed "from>to" (exact; the
	// contamination matrix is built from these).
	Pairs map[string]int `json:"pairs,omitempty"`
	// Hops is the per-edge record of the expansion, breadth-first,
	// capped at Options.MaxRecordedHops.
	Hops []Hop `json:"hops,omitempty"`
}

// maxTraceThreads bounds the thread ids a trace read back may name. Atlas.Add
// grows its contamination matrix to the largest id, so this caps what one
// line can make it allocate at 8 MB.
const maxTraceThreads = 1024

// checkTrace rejects traces with a schema version newer than this package
// understands (older versions still parse), and traces Analyze cannot have
// written, which Atlas.Add could not fold safely: hop numbers outside
// [1, Depth] or out of breadth-first order, edge types outside EdgeTypes,
// Pairs keys not of the form "from>to", negative counts, and thread ids
// outside [0, 1024).
func checkTrace(tr *Trace) error {
	if tr.V > SchemaVersion {
		return fmt.Errorf("propagation: trace schema v%d is newer than supported v%d", tr.V, SchemaVersion)
	}
	if tr.Tainted < 0 || tr.Depth < 0 || tr.CrossThread < 0 {
		return fmt.Errorf("propagation: negative count in trace (tainted %d, depth %d, cross_thread %d)",
			tr.Tainted, tr.Depth, tr.CrossThread)
	}
	for typ, n := range tr.Edges {
		if !slices.Contains(EdgeTypes[:], typ) {
			return fmt.Errorf("propagation: unknown edge type %q", typ)
		}
		if n < 0 {
			return fmt.Errorf("propagation: negative %s edge count %d", typ, n)
		}
	}
	for key, n := range tr.Pairs {
		if err := checkPair(key); err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("propagation: negative pair count %d for %q", n, key)
		}
	}
	deepest := 0
	for _, h := range tr.Hops {
		if !slices.Contains(EdgeTypes[:], h.Type) {
			return fmt.Errorf("propagation: unknown hop type %q", h.Type)
		}
		if h.Hop < 1 || h.Hop > tr.Depth {
			return fmt.Errorf("propagation: hop %d outside [1, depth %d]", h.Hop, tr.Depth)
		}
		if h.Hop > deepest+1 {
			return fmt.Errorf("propagation: hop %d follows hop %d, out of breadth-first order", h.Hop, deepest)
		}
		deepest = max(deepest, h.Hop)
		if !validTID(h.FromTID) || !validTID(h.ToTID) {
			return fmt.Errorf("propagation: hop thread ids %d>%d outside [0, %d)", h.FromTID, h.ToTID, maxTraceThreads)
		}
	}
	return nil
}

// checkPair requires a Pairs key to be the canonical "from>to" Analyze
// writes, naming thread ids in [0, 1024).
func checkPair(key string) error {
	f, t, _ := strings.Cut(key, ">")
	from, ferr := strconv.Atoi(f)
	to, terr := strconv.Atoi(t)
	if ferr != nil || terr != nil || key != fmt.Sprintf("%d>%d", from, to) {
		return fmt.Errorf("propagation: pair key %q is not of the form <from>><to>", key)
	}
	if !validTID(from) || !validTID(to) {
		return fmt.Errorf("propagation: pair key %q names a thread outside [0, %d)", key, maxTraceThreads)
	}
	return nil
}

func validTID(tid int) bool { return tid >= 0 && tid < maxTraceThreads }

// WriteJSONL writes traces as one JSON object per line (schema version in
// every line's "v" field).
func WriteJSONL(w io.Writer, traces []Trace) error {
	return jsonlio.WriteLines(w, traces)
}

// ReadJSONL parses traces written by WriteJSONL. A malformed trace (see
// checkTrace) is an error.
func ReadJSONL(r io.Reader) ([]Trace, error) {
	return jsonlio.ReadLines(r, checkTrace)
}

// WriteFile writes traces as JSONL to path, gzip-compressing when the name
// ends in .gz (the shared jsonlio convention).
func WriteFile(path string, traces []Trace) error {
	return jsonlio.WriteFile(path, traces)
}

// ReadFile reads traces from a JSONL file, transparently decompressing
// when the name ends in .gz; a malformed trace is an error, as in
// ReadJSONL.
func ReadFile(path string) ([]Trace, error) {
	return jsonlio.ReadFile(path, checkTrace)
}
