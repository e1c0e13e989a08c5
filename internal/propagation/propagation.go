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
	"smtavf/internal/pipeline"
	"smtavf/internal/telemetry"
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
// the warmup rebase. Index order follows spanStructs.
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
// flight-recorder ownership contract.
type node struct {
	tid       int32
	physSrc1  int32
	physSrc2  int32
	physDest  int32
	class     isa.Class
	fate      avf.Fate
	wrongPath bool
	forwarded bool
	issued    bool
	executed  bool
	gseq      uint64
	pc        uint64
	addr      uint64
	issueAt   uint64
	ready     uint64 // writeback cycle (valid when executed)
	retire    uint64
	spans     [5]span
}

// The node log is a list of chunks of chunkLen nodes (1.2 MB each), so
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
// with the facade's WithPropagation (shard.Options.Propagation); a nil
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

	// Live result gauges (PublishTelemetry); nil-receiver no-ops when
	// telemetry is not attached.
	telStrikes  *telemetry.Gauge
	telResolved *telemetry.Gauge
	telSDC      *telemetry.Gauge
	telCross    *telemetry.Gauge
	telDepth    *telemetry.Gauge
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
func (t *Tracer) Record(pl *pipeline.Pool, id pipeline.UID, retire uint64, squashed bool) {
	if t == nil {
		return
	}
	if t.n >= t.opt.Cap {
		t.dropped++
		return
	}
	c := t.n >> chunkBits
	if c == len(t.chunks) {
		t.chunks = append(t.chunks, new(chunk))
	}
	n := &t.chunks[c][t.n%chunkLen]
	t.n++
	in, m := &pl.Ins[id], &pl.Meta[id]
	*n = node{
		tid:       pl.TID[id],
		physSrc1:  m.PhysSrc1,
		physSrc2:  m.PhysSrc2,
		physDest:  m.PhysDest,
		class:     in.Class,
		fate:      pl.Fate(id, squashed),
		wrongPath: pl.Has(id, pipeline.FWrongPath),
		forwarded: pl.Has(id, pipeline.FForwarded),
		issued:    pl.Has(id, pipeline.FIssued),
		executed:  pl.Has(id, pipeline.FExecuted),
		gseq:      pl.GSeq[id],
		pc:        in.PC,
		addr:      in.Addr,
		issueAt:   pl.Res[id].IssuedAt,
		ready:     m.ReadyAt,
		retire:    retire,
	}
	for i, res := range pl.Residencies(id, t.bits) {
		start, end := res.Start, res.End
		if start < t.rebase {
			start = t.rebase
		}
		if end <= start {
			continue // never occupied (or entirely pre-rebase)
		}
		n.spans[i] = span{start, end}
	}
}

// node returns recorded node i (0 <= i < t.n).
func (t *Tracer) node(i int32) *node {
	return &t.chunks[i>>chunkBits][uint32(i)%chunkLen]
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
}

// Len returns the number of retained nodes.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns the number of uops discarded by the node cap; a nonzero
// value means traces past the capped region cannot resolve victims.
// Analyze copies it into Atlas.Dropped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// PublishTelemetry registers the tracer's result gauges on the collector:
// after Analyze runs, inject.prop.strikes, inject.prop.resolved,
// inject.prop.sdc, inject.prop.cross_thread, and inject.prop.depth_max
// carry the atlas headline numbers on the /telemetry and /debug/metrics
// endpoints. A nil collector leaves the tracer unobserved.
func (t *Tracer) PublishTelemetry(col *telemetry.Collector) {
	if t == nil {
		return
	}
	t.telStrikes = col.Gauge("inject.prop.strikes")
	t.telResolved = col.Gauge("inject.prop.resolved")
	t.telSDC = col.Gauge("inject.prop.sdc")
	t.telCross = col.Gauge("inject.prop.cross_thread")
	t.telDepth = col.Gauge("inject.prop.depth_max")
}
