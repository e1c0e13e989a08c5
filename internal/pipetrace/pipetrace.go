// Package pipetrace is the pipeline flight recorder: an opt-in per-uop
// lifecycle event recorder for the SMT simulator. Where internal/telemetry
// answers *when* a structure's AVF moved (cycle-windowed aggregates), this
// package answers *which instructions and why*: every uop that retires —
// by commit or by squash — leaves one Record carrying its thread, PC,
// opcode, stage-transition cycles, per-structure residency intervals, and
// its ACE fate (committed-live, dynamically dead, NOP, wrong-path, or
// squashed correct-path work).
//
// Records feed three exporters — Kanata (the Konata pipeline-viewer
// format, kanata.go), Chrome trace_event JSON (chrome.go), and compact
// JSONL (jsonl.go). Independently of the records, every uop is folded
// into a per-static-instruction aggregation (provenance.go) behind the
// AVF provenance report: per-PC hotspot tables of ACE bit-cycles per
// structure, and a per-fate residency breakdown. The aggregation
// reproduces the avf.Tracker arithmetic exactly (same intervals, same
// rebase clipping), so per-PC ACE bit-cycles sum to the tracker's
// per-structure totals bit for bit. A recorder built with
// Options.ProvenanceOnly keeps the aggregation and no records.
//
// Like the telemetry collector, a detached recorder is free: the processor
// calls only the observers attached to it, enforced by
// BenchmarkPipetraceOverhead.
package pipetrace

import (
	"slices"

	"smtavf/internal/avf"
	"smtavf/internal/pipeline"
)

// SchemaVersion is stamped into every Record ("v" in JSONL) so downstream
// tooling can detect format drift. Bump it on any incompatible change to
// the Record schema.
const SchemaVersion = 1

// RecordStructs lists the structures a Record carries residency spans for,
// in Record field order.
var RecordStructs = [5]avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU}

// Span is one structure-residency interval: Start is the entry cycle,
// Cycles the accumulated occupancy. A zero Span means the uop never
// occupied the structure.
type Span struct {
	Start  uint64 `json:"start"`
	Cycles uint64 `json:"cycles"`
}

// End returns the cycle the residency closed.
func (s Span) End() uint64 { return s.Start + s.Cycles }

// Record is one uop's complete lifecycle, emitted when its fate is known
// (commit or squash). Stage cycles that were never reached are -1; cycle
// values are absolute simulation cycles.
type Record struct {
	V         int      `json:"v"` // SchemaVersion
	TID       int      `json:"tid"`
	GSeq      uint64   `json:"gseq"` // global fetch order
	Seq       uint64   `json:"seq"`  // per-thread trace sequence
	PC        uint64   `json:"pc"`
	Op        string   `json:"op"`
	WrongPath bool     `json:"wrong_path,omitempty"`
	Mispred   bool     `json:"mispred,omitempty"`
	Fate      avf.Fate `json:"fate"`
	ACE       bool     `json:"ace"`

	// Lifecycle timeline.
	Fetch     uint64 `json:"fetch"`
	Dispatch  int64  `json:"dispatch"`  // rename + IQ/ROB insertion (-1: dropped in the front end)
	Issue     int64  `json:"issue"`     // left the IQ for a function unit
	Writeback int64  `json:"writeback"` // result became visible
	Retire    uint64 `json:"retire"`    // commit or squash cycle

	// Per-structure residency.
	IQ      Span `json:"iq"`
	ROB     Span `json:"rob"`
	LSQTag  Span `json:"lsq_tag"`
	LSQData Span `json:"lsq_data"`
	FU      Span `json:"fu"`
}

// Span returns the residency span of structure s (zero Span for structures
// a Record does not track).
func (r *Record) Span(s avf.Struct) Span {
	switch s {
	case avf.IQ:
		return r.IQ
	case avf.ROB:
		return r.ROB
	case avf.LSQTag:
		return r.LSQTag
	case avf.LSQData:
		return r.LSQData
	case avf.FU:
		return r.FU
	}
	return Span{}
}

// Committed reports whether the uop retired by commit (any fate but
// wrong-path and squashed).
func (r *Record) Committed() bool {
	return r.Fate != avf.FateWrongPath && r.Fate != avf.FateSquashed
}

// Options parameterizes a Recorder.
type Options struct {
	// WindowStart and WindowEnd bound the recorded region in absolute
	// simulation cycles: only uops *fetched* in [WindowStart, WindowEnd)
	// are recorded, so a long sweep can sample a region instead of
	// recording everything. WindowEnd 0 means unbounded.
	WindowStart, WindowEnd uint64
	// ProvenanceOnly folds each uop into the provenance aggregation and
	// keeps no Record, so the recorder's memory grows with the static
	// instructions seen rather than with the uops retired. Len is then 0,
	// Records nil, and WriteFile an error; Provenance is unchanged.
	ProvenanceOnly bool
}

// Recorder receives one lifecycle record per retired uop from the
// processor's commit and squash paths. A nil *Recorder is a valid
// "disabled" recorder: Record and Rebase are no-ops.
//
// A Recorder is driven from the simulator's goroutine and is not safe for
// concurrent use during a run; read it after Run returns.
type Recorder struct {
	opt    Options
	bits   pipeline.Bits
	rebase uint64

	records []Record

	// Provenance aggregation, exact whether or not records are kept.
	pcs       map[pcID]*pcMeta
	fateCount [avf.NumFates]uint64
}

type pcID struct {
	tid int
	pc  uint64
}

// pcMeta aggregates one static instruction: its class, its dynamic
// count, and its bit-cycles per Pool.Residencies slot (RecordStructs
// order) and fate.
type pcMeta struct {
	op    string
	count uint64
	bc    [len(RecordStructs)][avf.NumFates]uint64
}

// New builds a recorder.
func New(opt Options) *Recorder {
	return &Recorder{
		opt:  opt,
		bits: pipeline.DefaultBits(),
		pcs:  make(map[pcID]*pcMeta),
	}
}

// SetBits tells the recorder the per-entry bit widths of the machine it is
// attached to; the processor calls it at attach time so provenance
// bit-cycles use the same weights as the AVF tracker.
func (r *Recorder) SetBits(bits pipeline.Bits) {
	if r != nil {
		r.bits = bits
	}
}

// Record folds pool slot id, retiring at cycle retire with the given
// squash outcome, into the provenance aggregation and, unless the recorder
// is provenance-only, captures its lifecycle as a Record. It must be
// called exactly once per uop, alongside the slot's classification — from
// commit, squash, and end-of-run accounting — so the recorder sees exactly
// the population the tracker accounted.
//
// Ownership contract (docs/performance.md): the core recycles the slot
// the moment Record returns, so everything the recorder keeps must be
// copied out of pl inside this call.
func (r *Recorder) Record(pl *pipeline.Pool, id pipeline.UID, retire uint64, squashed bool) {
	if r == nil {
		return
	}
	fetched := pl.Meta[id].FetchedAt
	if fetched < r.opt.WindowStart ||
		(r.opt.WindowEnd > 0 && fetched >= r.opt.WindowEnd) {
		return
	}
	in := &pl.Ins[id]
	fate := pl.Fate(id, squashed)
	r.fateCount[fate]++
	key := pcID{int(pl.TID[id]), in.PC}
	meta := r.pcs[key]
	if meta == nil {
		meta = &pcMeta{op: in.Class.String()}
		r.pcs[key] = meta
	} else if meta.op != in.Class.String() {
		// The synthetic generators may place different instruction classes
		// at one PC across dynamic visits; don't let the first-seen class
		// mislabel the aggregate.
		meta.op = "mixed"
	}
	meta.count++

	// Provenance: identical interval arithmetic to avf.Tracker.AddInterval,
	// including the warmup rebase clip, so sums match the tracker exactly.
	for i, res := range pl.Residencies(id, r.bits) {
		start, end := res.Start, res.End
		if start < r.rebase {
			start = r.rebase
		}
		if end > start {
			meta.bc[i][fate] += res.Bits * (end - start)
		}
	}

	if !r.opt.ProvenanceOnly {
		r.records = append(r.records, makeRecord(pl, id, retire, fate))
	}
}

// makeRecord snapshots slot id's lifecycle into an immutable Record.
func makeRecord(pl *pipeline.Pool, id pipeline.UID, retire uint64, fate avf.Fate) Record {
	in, m, res := &pl.Ins[id], &pl.Meta[id], &pl.Res[id]
	rec := Record{
		V:         SchemaVersion,
		TID:       int(pl.TID[id]),
		GSeq:      pl.GSeq[id],
		Seq:       in.Seq,
		PC:        in.PC,
		Op:        in.Class.String(),
		WrongPath: pl.Has(id, pipeline.FWrongPath),
		Mispred:   pl.Has(id, pipeline.FMispred),
		Fate:      fate,
		ACE:       fate.ACE(),
		Fetch:     m.FetchedAt,
		Dispatch:  -1,
		Issue:     -1,
		Writeback: -1,
		Retire:    retire,
		IQ:        Span{res.EnterIQ, res.IQCycles},
		ROB:       Span{res.EnterROB, res.ROBCycles},
		LSQTag:    Span{res.EnterLSQ, res.LSQTagCycles},
		LSQData:   Span{res.DataAt, res.LSQDataCycles},
		FU:        Span{res.IssuedAt, res.FUCycles},
	}
	// Dispatch happens no earlier than cycle FrontEndDepth >= 1, so an
	// EnterROB of zero means the uop never left the front end.
	if res.EnterROB > 0 {
		rec.Dispatch = int64(res.EnterROB)
	}
	if pl.Has(id, pipeline.FIssued) {
		rec.Issue = int64(res.IssuedAt)
	}
	if pl.Has(id, pipeline.FExecuted) {
		rec.Writeback = int64(m.ReadyAt)
	}
	return rec
}

// Rebase drops everything recorded so far and clips all future residency
// intervals at cycle: the processor calls it at the end of warmup, exactly
// when the AVF tracker rebases, so provenance covers only the measurement
// window.
func (r *Recorder) Rebase(cycle uint64) {
	if r == nil {
		return
	}
	r.rebase = cycle
	r.records = r.records[:0]
	clear(r.pcs)
	r.fateCount = [avf.NumFates]uint64{}
}

// Len returns the number of retained records (0 for a provenance-only
// recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.records)
}

// Records returns the retained records in retirement order. The slice is
// the recorder's own backing store; callers must not mutate it.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	return r.records
}

// ACEBitCycles returns the aggregated ACE bit-cycles of structure s across
// every recorded uop — with no sampling window this equals the tracker's
// avf.Tracker.ACEBitCycles for the five uop-tracked pipeline structures.
func (r *Recorder) ACEBitCycles(s avf.Struct) uint64 {
	return r.bitCycles(s, true)
}

// ResidentBitCycles returns the aggregated occupancy (ACE plus un-ACE)
// bit-cycles of structure s across every recorded uop.
func (r *Recorder) ResidentBitCycles(s avf.Struct) uint64 {
	return r.bitCycles(s, false)
}

func (r *Recorder) bitCycles(s avf.Struct, aceOnly bool) uint64 {
	i := slices.Index(RecordStructs[:], s)
	if r == nil || i < 0 {
		return 0
	}
	var sum uint64
	for _, meta := range r.pcs {
		for f, bc := range meta.bc[i] {
			if !aceOnly || avf.Fate(f).ACE() {
				sum += bc
			}
		}
	}
	return sum
}
