// Package propagation is the fault-propagation atlas: given the strikes a
// statistical fault-injection campaign (internal/inject) lands on the
// machine, it reconstructs where each unmasked corruption would travel —
// through which dataflow edges, how many hops deep, and across which
// thread boundaries — before it commits as silent data corruption, is cut
// off by detection, or dies with squashed and dead work.
//
// The AVF machinery answers "what fraction of strikes matter"; this
// package answers the follow-up the paper's §6 methodology discussion
// raises but cannot afford with live injection: *how* a strike that
// matters becomes an observable failure. A Tracer records one compact
// node per retired uop (the same population the avf.Tracker classifies,
// captured at the same commit/squash/end-of-run sites), and an offline
// Analyze pass replays the modeled dataflow over those nodes:
//
//   - reg: a corrupted result propagates from a producer's writeback to
//     every consumer the register file would have woken up — reads of the
//     same physical register between the write and its next reallocation.
//   - forward: a corrupted store propagates through store-to-load
//     forwarding inside the LSQ (the load's Forwarded flag, matched to
//     the youngest older same-address store, mirroring lsq.ForwardCheck).
//   - memory: a corrupted committed store propagates to later same-word
//     loads that missed forwarding and read the datum from the cache.
//   - cross_thread: thread address spaces are disjoint, so values never
//     flow between threads; what threads do share is the DL1 arrays. A
//     corrupted line (a struck set, or a tainted store's writeback into
//     one) makes the next access other threads make to that set the
//     contamination frontier — the shared-array channel the paper's SMT
//     vulnerability analysis is about.
//
// Victim resolution is deterministic: the strike's ThreadBit (its offset
// within the owning thread's ACE share) picks among the thread's uops
// resident in the struck structure at the strike cycle, so the same seed
// always yields the same propagation graph. Traces serialize as versioned
// JSONL through internal/jsonlio and aggregate into an Atlas: per-PC
// root-cause ranking, per-edge-type hop histograms, the striker-thread ×
// victim-thread contamination matrix, and per-structure escape routes.
//
// Like the pipetrace recorder and the injection campaign, a nil *Tracer
// is a valid detached tracer: its methods are nil-receiver no-ops, and
// the processor attaches nothing for it.
package propagation

import (
	"smtavf/internal/avf"
	"smtavf/internal/isa"
	"smtavf/internal/mem"
	"smtavf/internal/obs"
	"smtavf/internal/pipeline"
)

// Options parameterizes a Tracer.
type Options struct {
	// Cap bounds the retained node log; once reached, further uops are
	// dropped and counted (Dropped, Atlas.Dropped). 0 selects DefaultCap.
	Cap int `json:"cap,omitempty"`
	// MaxHops bounds the breadth-first taint expansion depth of one
	// strike. 0 selects DefaultMaxHops.
	MaxHops int `json:"max_hops,omitempty"`
	// MaxNodes bounds the tainted-node set of one strike; a trace that
	// hits it is marked Truncated. 0 selects DefaultMaxNodes.
	MaxNodes int `json:"max_nodes,omitempty"`
	// MaxRecordedHops bounds the per-trace serialized hop list (the edge
	// counters stay exact past it). 0 selects DefaultMaxRecordedHops.
	MaxRecordedHops int `json:"max_recorded_hops,omitempty"`
}

// Defaults for Options fields left zero.
const (
	DefaultCap             = 1 << 20
	DefaultMaxHops         = 32
	DefaultMaxNodes        = 4096
	DefaultMaxRecordedHops = 64
)

func (o Options) withDefaults() Options {
	if o.Cap <= 0 {
		o.Cap = DefaultCap
	}
	if o.MaxHops <= 0 {
		o.MaxHops = DefaultMaxHops
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = DefaultMaxNodes
	}
	if o.MaxRecordedHops <= 0 {
		o.MaxRecordedHops = DefaultMaxRecordedHops
	}
	return o
}

// span is one structure-residency interval of a node, already clipped at
// the warmup rebase; nodes store it packed (offSpan). Index order follows
// spanStructs.
type span struct {
	start, end uint64
}

// spanStructs orders the per-node residency spans (node.spans).
var spanStructs = [5]avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU}

// spanIndex inverts spanStructs; -1 for structures nodes carry no span of.
func spanIndex(s avf.Struct) int {
	for i, ss := range spanStructs {
		if ss == s {
			return i
		}
	}
	return -1
}

// node is the compact per-uop capture the offline analysis runs over —
// everything copied out of the pool slot inside Record, per the
// flight-recorder ownership contract — packed into 88 bytes. Cycles are
// signed 32-bit offsets from the tracer's rebase cycle (a uop retiring
// after the rebase may have issued before it), which Tracer.cycle and
// Tracer.span decode; register ids are 16-bit and the thread id 8-bit. A
// uop with a value outside those ranges is not recorded (Tracer.Record).
type node struct {
	gseq, pc, addr uint64
	issueAt        int32 // valid when issued
	ready          int32 // writeback cycle (valid when executed)
	retire         int32
	spans          [5]offSpan
	physSrc1       int16
	physSrc2       int16
	physDest       int16
	tid            uint8
	class          isa.Class
	fate           avf.Fate
	flags          uint8
}

// offSpan is a span as two offsets from the rebase cycle.
type offSpan struct {
	start, end int32
}

// node flags.
const (
	fWrongPath uint8 = 1 << iota
	fForwarded
	fIssued
	fExecuted
)

// poolFlags are the pipeline flags the node flags copy, bit i from
// poolFlags[i].
var poolFlags = [...]uint32{pipeline.FWrongPath, pipeline.FForwarded, pipeline.FIssued, pipeline.FExecuted}

func (n *node) has(f uint8) bool { return n.flags&f != 0 }

// The node log is a list of chunks of chunkLen nodes (704 KiB each), so
// recording never copies what is already logged.
const (
	chunkBits = 13
	chunkLen  = 1 << chunkBits
)

type chunk [chunkLen]node

// committed reports the node retired by commit (its state reached the
// architectural machine), mirroring pipetrace.Record.Committed.
func (n *node) committed() bool {
	return n.fate != avf.FateWrongPath && n.fate != avf.FateSquashed
}

// Tracer records the per-uop nodes the propagation analysis needs. Attach
// with the facade's WithPropagation (campaign.Options.Propagation); a nil
// *Tracer is a valid detached tracer (Record and Rebase are nil-receiver
// no-ops, the same convention the pipetrace recorder and the injection
// campaign follow).
//
// A Tracer is driven from the simulator's goroutine and is not safe for
// concurrent use during a run; Analyze it after Run returns.
type Tracer struct {
	opt     Options
	bits    pipeline.Bits
	dl1     mem.Config
	threads int
	rebase  uint64
	// chunks hold the n recorded nodes in order; node i is at
	// chunks[i>>chunkBits][i%chunkLen] (node). The first chunk is made by
	// the first Record, and Rebase keeps the chunks for reuse.
	chunks  []*chunk
	n       int
	dropped uint64
	// overflow is set once a uop did not fit the node layout; like the
	// cap, it ends recording until the next Rebase.
	overflow bool

	// Live result gauges (Publish); nil-receiver no-ops when unpublished.
	telStrikes  *obs.Gauge
	telResolved *obs.Gauge
	telSDC      *obs.Gauge
	telCross    *obs.Gauge
	telDepth    *obs.Gauge
}

// New builds a tracer. Geometry (bit widths, DL1 shape, thread count) is
// supplied by the processor at attach time via Configure.
func New(opt Options) *Tracer {
	return &Tracer{opt: opt.withDefaults(), bits: pipeline.DefaultBits()}
}

// Configure tells the tracer the machine geometry it is attached to: the
// per-entry bit widths (victim spans use the same weights as the AVF
// tracker), the DL1 shape (strike bit → set mapping for the shared-cache
// contamination channel), and the thread count (contamination matrix
// dimensions). The processor calls it from SetPropagation.
func (t *Tracer) Configure(bits pipeline.Bits, dl1 mem.Config, threads int) {
	if t == nil {
		return
	}
	t.bits = bits
	t.dl1 = dl1
	t.threads = threads
}

// Record captures the lifecycle of pool slot id, retiring at cycle retire
// with the given squash outcome. The processor calls it beside every
// pipetrace.Recorder.Record site — commit, squash, and end-of-run
// accounting — so the tracer sees exactly the population the tracker
// classified. Everything is copied out of pl before returning (the core
// recycles the slot the moment Record returns).
//
// Recording stops at Options.Cap nodes, and at the first uop with a value
// the node cannot hold (a cycle more than 2^31 cycles from the rebase
// cycle, a register id beyond int16, a thread id beyond 255): the analysis
// needs an unbroken prefix of the run, so every later uop is dropped and
// counted too (Dropped). A value is never wrapped.
func (t *Tracer) Record(pl *pipeline.Pool, id pipeline.UID, retire uint64, squashed bool) {
	if t == nil {
		return
	}
	if t.n >= t.opt.Cap || t.overflow {
		t.dropped++
		return
	}
	c := t.n >> chunkBits
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, new(chunk))
	}
	if !t.pack(&t.chunks[c][t.n%chunkLen], pl, id, retire, squashed) {
		t.overflow = true
		t.dropped++
		return
	}
	t.n++
}

// pack writes pool slot id into n and reports whether every value fit.
func (t *Tracer) pack(n *node, pl *pipeline.Pool, id pipeline.UID, retire uint64, squashed bool) bool {
	// excess collects every value's bits beyond its field: zero iff all fit.
	var excess int64
	offset := func(cycle uint64) int32 {
		d := int64(cycle - t.rebase)
		excess |= d ^ int64(int32(d))
		return int32(d)
	}
	reg := func(r int32) int16 {
		excess |= int64(r ^ int32(int16(r)))
		return int16(r)
	}
	in, m, tid := &pl.Ins[id], &pl.Meta[id], pl.TID[id]
	excess |= int64(tid &^ 0xff)
	var flags uint8
	for i, f := range poolFlags {
		if pl.Has(id, f) {
			flags |= 1 << i
		}
	}
	*n = node{
		gseq:     pl.GSeq[id],
		pc:       in.PC,
		addr:     in.Addr,
		retire:   offset(retire),
		physSrc1: reg(m.PhysSrc1),
		physSrc2: reg(m.PhysSrc2),
		physDest: reg(m.PhysDest),
		tid:      uint8(tid),
		class:    in.Class,
		fate:     pl.Fate(id, squashed),
		flags:    flags,
	}
	if flags&fIssued != 0 { // a uop that never issued has neither cycle
		n.issueAt = offset(pl.Res[id].IssuedAt)
		n.ready = offset(m.ReadyAt)
	}
	for i, res := range pl.Residencies(id, t.bits) {
		start, end := res.Start, res.End
		if start < t.rebase {
			start = t.rebase
		}
		if end <= start {
			continue // never occupied (or entirely pre-rebase)
		}
		n.spans[i] = offSpan{offset(start), offset(end)}
	}
	return excess == 0
}

// node returns recorded node i (0 <= i < t.n).
func (t *Tracer) node(i int32) *node {
	return &t.chunks[i>>chunkBits][uint32(i)%chunkLen]
}

// cycle decodes a node's cycle offset.
func (t *Tracer) cycle(off int32) uint64 { return t.rebase + uint64(int64(off)) }

// span decodes node n's residency span k (spanStructs order).
func (t *Tracer) span(n *node, k int) span {
	s := n.spans[k]
	return span{t.cycle(s.start), t.cycle(s.end)}
}

// Rebase drops everything recorded so far and clips all future residency
// spans at cycle — called at the end of warmup, exactly when the tracker
// and the injection campaign rebase, so traces cover only the measurement
// window the strike grid covers.
func (t *Tracer) Rebase(cycle uint64) {
	if t == nil {
		return
	}
	t.rebase = cycle
	t.n = 0
	t.dropped = 0
	t.overflow = false
}

// Len returns the number of retained nodes.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns the number of uops discarded by the node cap or after a
// uop that did not fit the node layout (Record); a nonzero value means
// traces past the recorded region cannot resolve victims. Analyze copies
// it into Atlas.Dropped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Publish registers the tracer's result gauges on reg: after Analyze
// runs, inject.prop.strikes, inject.prop.resolved, inject.prop.sdc,
// inject.prop.cross_thread, and inject.prop.depth_max carry the atlas
// headline numbers on /debug/metrics. A nil registry leaves the tracer
// unobserved.
func (t *Tracer) Publish(reg *obs.Registry) {
	if t == nil {
		return
	}
	t.telStrikes = reg.Gauge("inject.prop.strikes", "")
	t.telResolved = reg.Gauge("inject.prop.resolved", "")
	t.telSDC = reg.Gauge("inject.prop.sdc", "")
	t.telCross = reg.Gauge("inject.prop.cross_thread", "")
	t.telDepth = reg.Gauge("inject.prop.depth_max", "")
}
