package propagation

import (
	"fmt"
	"sort"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
	"smtavf/internal/isa"
)

// wordKey addresses memory dataflow at the cache's 8-byte word
// granularity. Thread address spaces are disjoint, so the tid is
// redundant with the word — it is kept as a guard against generator
// overlap.
type wordKey struct {
	tid  int32
	word uint64
}

func (n *node) word() wordKey { return wordKey{n.tid, n.addr >> 3} }

// touch is one access to a DL1 set: a load reading the array at issue, or
// a committed store writing it at retire.
type touch struct {
	cycle uint64
	idx   int // node index
}

// analysis is the dataflow index built once per Analyze call: who writes
// and reads each physical register, which store satisfied each load (by
// forwarding or through memory), and who touched each DL1 set when.
type analysis struct {
	t   *Tracer
	opt Options

	regWrites map[int32][]int // executed writers per phys reg, by (writeback, gseq)
	writePos  []int           // node -> its position in regWrites[physDest]
	regReads  map[int32][]int // issued readers per phys reg, by issue cycle
	fwdOut    map[int][]int   // store node -> loads it forwarded to
	memOut    map[int][]int   // store node -> loads that read it through memory
	sets      [][]touch       // DL1 set -> touches, by cycle
	pairKeys  [][]string      // [from tid][to tid] -> "from>to" Pairs key
}

// build indexes the tracer's nodes. Every list is sorted by explicit keys
// so the whole analysis is deterministic.
func (t *Tracer) build() *analysis {
	a := &analysis{
		t:         t,
		opt:       t.opt,
		regWrites: make(map[int32][]int),
		regReads:  make(map[int32][]int),
		fwdOut:    make(map[int][]int),
		memOut:    make(map[int][]int),
	}
	if t.dl1.Size > 0 {
		a.sets = make([][]touch, t.dl1.Sets())
	}
	// Store lists per word for load matching.
	fwdStores := make(map[wordKey][]int) // executed stores, by gseq
	memStores := make(map[wordKey][]int) // committed stores, by (retire, gseq)
	var loads []int
	threads := t.threads
	for i := range t.nodes {
		n := &t.nodes[i]
		threads = max(threads, int(n.tid)+1)
		if n.executed && n.physDest >= 0 {
			a.regWrites[n.physDest] = append(a.regWrites[n.physDest], i)
		}
		if n.issued {
			if n.physSrc1 >= 0 {
				a.regReads[n.physSrc1] = append(a.regReads[n.physSrc1], i)
			}
			if n.physSrc2 >= 0 && n.physSrc2 != n.physSrc1 {
				a.regReads[n.physSrc2] = append(a.regReads[n.physSrc2], i)
			}
		}
		switch n.class {
		case isa.Store:
			if n.executed {
				fwdStores[n.word()] = append(fwdStores[n.word()], i)
			}
			if n.committed() {
				memStores[n.word()] = append(memStores[n.word()], i)
				a.touchSet(n.addr, touch{n.retire, i})
			}
		case isa.Load:
			if n.issued {
				loads = append(loads, i)
				if !n.forwarded {
					// Wrong-path loads access the DL1 too.
					a.touchSet(n.addr, touch{n.issueAt, i})
				}
			}
		}
	}
	a.writePos = make([]int, len(t.nodes))
	for _, idxs := range a.regWrites {
		sort.Slice(idxs, func(x, y int) bool {
			nx, ny := &t.nodes[idxs[x]], &t.nodes[idxs[y]]
			if nx.ready != ny.ready {
				return nx.ready < ny.ready
			}
			return nx.gseq < ny.gseq
		})
		for p, idx := range idxs {
			a.writePos[idx] = p
		}
	}
	for _, idxs := range a.regReads {
		sort.Slice(idxs, func(x, y int) bool {
			nx, ny := &t.nodes[idxs[x]], &t.nodes[idxs[y]]
			if nx.issueAt != ny.issueAt {
				return nx.issueAt < ny.issueAt
			}
			return nx.gseq < ny.gseq
		})
	}
	for _, idxs := range fwdStores {
		sort.Slice(idxs, func(x, y int) bool {
			return t.nodes[idxs[x]].gseq < t.nodes[idxs[y]].gseq
		})
	}
	for _, idxs := range memStores {
		sort.Slice(idxs, func(x, y int) bool {
			nx, ny := &t.nodes[idxs[x]], &t.nodes[idxs[y]]
			if nx.retire != ny.retire {
				return nx.retire < ny.retire
			}
			return nx.gseq < ny.gseq
		})
	}
	for s := range a.sets {
		sort.Slice(a.sets[s], func(x, y int) bool {
			tx, ty := a.sets[s][x], a.sets[s][y]
			if tx.cycle != ty.cycle {
				return tx.cycle < ty.cycle
			}
			return tx.idx < ty.idx
		})
	}
	a.pairKeys = make([][]string, threads)
	for from := range a.pairKeys {
		a.pairKeys[from] = make([]string, threads)
		for to := range a.pairKeys[from] {
			a.pairKeys[from][to] = fmt.Sprintf("%d>%d", from, to)
		}
	}
	// Match every load to the store it observed, mirroring the LSQ and
	// cache semantics: forwarded loads take the youngest older executed
	// same-word store (lsq.ForwardCheck); the rest read the latest store
	// committed before their DL1 access.
	for _, li := range loads {
		ld := &t.nodes[li]
		if ld.forwarded {
			best := -1
			for _, si := range fwdStores[ld.word()] {
				st := &t.nodes[si]
				if st.gseq >= ld.gseq {
					break
				}
				if st.ready <= ld.issueAt {
					best = si
				}
			}
			if best >= 0 {
				a.fwdOut[best] = append(a.fwdOut[best], li)
			}
			continue
		}
		best := -1
		for _, si := range memStores[ld.word()] {
			if t.nodes[si].retire > ld.issueAt {
				break
			}
			best = si
		}
		if best >= 0 {
			a.memOut[best] = append(a.memOut[best], li)
		}
	}
	return a
}

// touchSet logs one DL1 access into the set the address maps to.
func (a *analysis) touchSet(addr uint64, tc touch) {
	if len(a.sets) == 0 {
		return
	}
	set := int(addr/uint64(a.t.dl1.LineSize)) % len(a.sets)
	a.sets[set] = append(a.sets[set], tc)
}

// strikeSet maps a struck DL1 bit to its set. Lines are laid out
// set-interleaved: line index Bit/lineBits runs over the Sets*Ways lines
// with consecutive lines in consecutive sets, so set = line mod Sets —
// the same modeling granularity the campaign's capacity math uses.
func (a *analysis) strikeSet(st inject.Strike) (int, bool) {
	if len(a.sets) == 0 {
		return 0, false
	}
	var lineBits uint64
	switch st.Struct {
	case avf.DL1Data:
		lineBits = uint64(a.t.dl1.LineSize) * 8
	case avf.DL1Tag:
		lineBits = uint64(a.t.dl1.TagBits())
	default:
		return 0, false
	}
	if lineBits == 0 {
		return 0, false
	}
	return int(st.Bit/lineBits) % len(a.sets), true
}

// consumers returns the readers a write of phys by writer node wi would
// wake: reads issuing at or after the writeback, before the register's
// next reallocation (approximated by the next writeback to the same
// physical register). The readers are sorted by issue cycle, so they form
// one run of regReads[phys], found by binary search; the returned slice
// aliases the index and must not be modified.
func (a *analysis) consumers(phys int32, wi int) []int {
	writers := a.regWrites[phys]
	pos := a.writePos[wi]
	if pos >= len(writers) || writers[pos] != wi {
		return nil
	}
	limit := ^uint64(0)
	if pos+1 < len(writers) {
		limit = a.t.nodes[writers[pos+1]].ready
	}
	reads := a.regReads[phys]
	issuedFrom := func(cycle uint64) int {
		return sort.Search(len(reads), func(i int) bool {
			return a.t.nodes[reads[i]].issueAt >= cycle
		})
	}
	return reads[issuedFrom(a.t.nodes[wi].ready):issuedFrom(limit)]
}

// resolve identifies the victim uop of a corrupting strike, plus the
// initial contamination hops for array strikes (the accesses that read a
// struck DL1 set after the strike). The strike's ThreadBit picks
// deterministically among equally-resident candidates.
func (a *analysis) resolve(st inject.Strike) (victim int, seeds []seed, ok bool) {
	t := a.t
	switch st.Struct {
	case avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU:
		si := spanIndex(st.Struct)
		var cands []int
		for i := range t.nodes {
			n := &t.nodes[i]
			if int(n.tid) != st.TID {
				continue
			}
			sp := n.spans[si]
			if sp.end > sp.start && sp.start <= st.Cycle && st.Cycle < sp.end {
				cands = append(cands, i)
			}
		}
		return pickByGSeq(t, cands, st.ThreadBit)
	case avf.Reg:
		// The register file's ACE window runs from the write to the last
		// read; reconstruct it from the consumer lists.
		var cands []int
		for i := range t.nodes {
			n := &t.nodes[i]
			if int(n.tid) != st.TID || !n.executed || n.physDest < 0 || n.ready > st.Cycle {
				continue
			}
			for _, ri := range a.consumers(n.physDest, i) {
				if a.t.nodes[ri].issueAt >= st.Cycle {
					cands = append(cands, i)
					break
				}
			}
		}
		return pickByGSeq(t, cands, st.ThreadBit)
	case avf.DL1Data, avf.DL1Tag:
		set, mapped := a.strikeSet(st)
		if !mapped {
			return -1, nil, false
		}
		touches := a.sets[set]
		// Victim: the struck thread's last access to the set before the
		// strike (falling back to any thread's — the line may be resident
		// long after its owner's access).
		victim = -1
		anyPrior := -1
		for _, tc := range touches {
			if tc.cycle > st.Cycle {
				break
			}
			anyPrior = tc.idx
			if int(t.nodes[tc.idx].tid) == st.TID {
				victim = tc.idx
			}
		}
		if victim < 0 {
			victim = anyPrior
		}
		if victim < 0 {
			return -1, nil, false
		}
		// Initial hops: the first access each thread makes to the
		// corrupted set after the strike — same-thread reads re-consume
		// the datum (memory), other threads are contaminated through the
		// shared array (cross_thread).
		seen := map[int32]bool{}
		for _, tc := range touches {
			if tc.cycle <= st.Cycle {
				continue
			}
			tid := t.nodes[tc.idx].tid
			if seen[tid] || tc.idx == victim {
				continue
			}
			seen[tid] = true
			typ := EdgeMemory
			if int(tid) != st.TID {
				typ = EdgeCrossThread
			}
			seeds = append(seeds, seed{idx: tc.idx, typ: typ, cycle: tc.cycle})
		}
		return victim, seeds, true
	default:
		// ITLB/DTLB strikes corrupt translations, not tracked dataflow.
		return -1, nil, false
	}
}

// seed is an initial hop-1 contamination edge attached during victim
// resolution (DL1 set strikes).
type seed struct {
	idx   int
	typ   string
	cycle uint64
}

// pickByGSeq orders candidates by fetch age and lets the strike's
// ThreadBit choose — the offset within the thread's ACE share is uniform
// over resident state, so this keeps victim selection unbiased and
// deterministic.
func pickByGSeq(t *Tracer, cands []int, threadBit uint64) (int, []seed, bool) {
	if len(cands) == 0 {
		return -1, nil, false
	}
	sort.Slice(cands, func(x, y int) bool {
		return t.nodes[cands[x]].gseq < t.nodes[cands[y]].gseq
	})
	return cands[int(threadBit%uint64(len(cands)))], nil, true
}

// trace taint-tracks one strike through the dataflow index.
func (a *analysis) trace(st inject.Strike) Trace {
	t := a.t
	tr := Trace{
		V:         SchemaVersion,
		Struct:    st.Struct.String(),
		Cycle:     st.Cycle,
		Bit:       st.Bit,
		TID:       st.TID,
		Outcome:   st.Outcome.String(),
		RootTID:   -1,
		CommitHop: -1,
	}
	if !st.Outcome.Corrupting() {
		tr.Terminal = TerminalMasked
		return tr
	}
	victim, seeds, ok := a.resolve(st)
	if ok {
		v := &t.nodes[victim]
		tr.Resolved = true
		tr.RootTID = int(v.tid)
		tr.RootPC = v.pc
		tr.RootOp = v.class.String()
	}
	switch st.Outcome {
	case inject.DUE:
		// Parity caught the corruption inside the structure; nothing
		// escapes, but the root still names the at-risk instruction.
		tr.Terminal = TerminalDUE
		return tr
	case inject.Corrected:
		tr.Terminal = TerminalCorrected
		return tr
	}
	if !ok {
		// An SDC verdict we cannot localize (TLB strike, or no recorded
		// resident uop); the ACE classification stands.
		tr.Terminal = TerminalSDC
		return tr
	}

	// Breadth-first taint expansion from the victim.
	hops := map[int]int{victim: 0}
	queue := []int{victim}
	tr.Tainted = 1
	edge := func(from, to int, typ string, cycle uint64) {
		if _, seen := hops[to]; seen {
			return
		}
		if len(hops) >= a.opt.MaxNodes {
			tr.Truncated = true
			return
		}
		h := hops[from] + 1
		hops[to] = h
		queue = append(queue, to)
		tr.Tainted++
		if tr.Edges == nil {
			// Lazy: traces with no edges serialize without the maps, so a
			// JSONL round trip reproduces them exactly.
			tr.Edges = map[string]int{}
			tr.Pairs = map[string]int{}
		}
		tr.Edges[typ]++
		if h > tr.Depth {
			tr.Depth = h
		}
		fn, tn := &t.nodes[from], &t.nodes[to]
		if fn.tid != tn.tid {
			tr.CrossThread++
		}
		tr.Pairs[a.pairKeys[fn.tid][tn.tid]]++
		if len(tr.Hops) < a.opt.MaxRecordedHops {
			tr.Hops = append(tr.Hops, Hop{
				Hop: h, Type: typ,
				FromTID: int(fn.tid), FromPC: fn.pc,
				ToTID: int(tn.tid), ToPC: tn.pc,
				Cycle: cycle,
			})
		}
	}
	for _, s := range seeds {
		edge(victim, s.idx, s.typ, s.cycle)
	}
	for qi := 0; qi < len(queue); qi++ {
		ni := queue[qi]
		if hops[ni] >= a.opt.MaxHops {
			continue
		}
		n := &t.nodes[ni]
		if n.executed && n.physDest >= 0 {
			for _, ri := range a.consumers(n.physDest, ni) {
				edge(ni, ri, EdgeReg, t.nodes[ri].issueAt)
			}
		}
		if n.class == isa.Store {
			for _, li := range a.fwdOut[ni] {
				edge(ni, li, EdgeForward, t.nodes[li].issueAt)
			}
			for _, li := range a.memOut[ni] {
				edge(ni, li, EdgeMemory, t.nodes[li].issueAt)
			}
			// A tainted committed store also dirties its DL1 set: the
			// next access each *other* thread makes to that set after the
			// writeback crosses the shared-array boundary.
			if n.committed() && len(a.sets) > 0 {
				set := int(n.addr/uint64(t.dl1.LineSize)) % len(a.sets)
				seen := map[int32]bool{n.tid: true}
				for _, tc := range a.sets[set] {
					if tc.cycle <= n.retire {
						continue
					}
					tid := t.nodes[tc.idx].tid
					if seen[tid] {
						continue
					}
					seen[tid] = true
					edge(ni, tc.idx, EdgeCrossThread, tc.cycle)
				}
			}
		}
	}

	// Terminal: the corruption is architecturally visible only if tainted
	// work committed live (ACE). Taint confined to squashed, dead, or NOP
	// uops never reaches committed state — microarchitectural masking the
	// per-strike view refines beyond the campaign's ACE verdict.
	for idx, h := range hops {
		if t.nodes[idx].fate == avf.FateCommitted && (tr.CommitHop < 0 || h < tr.CommitHop) {
			tr.CommitHop = h
		}
	}
	if tr.CommitHop >= 0 {
		tr.Terminal = TerminalSDC
	} else {
		tr.Terminal = TerminalMasked
	}
	return tr
}

// Analyze resolves and taint-tracks every strike against the recorded
// run, returning the aggregated atlas. Call after the simulation
// completes; the strikes typically come from Campaign.SampleStrikes with
// the same campaign that observed the run.
func (t *Tracer) Analyze(strikes []inject.Strike) *Atlas {
	a := t.build()
	atlas := NewAtlas(t.threads)
	for _, st := range strikes {
		atlas.Add(a.trace(st))
	}
	t.publish(atlas)
	return atlas
}

// publish pushes the atlas headline numbers to the telemetry gauges
// (every handle is a nil-receiver no-op when detached).
func (t *Tracer) publish(atlas *Atlas) {
	t.telStrikes.SetUint(uint64(atlas.Strikes))
	t.telResolved.SetUint(uint64(atlas.Resolved))
	t.telSDC.SetUint(uint64(atlas.Terminals[TerminalSDC]))
	t.telCross.SetUint(atlas.CrossEdges())
	t.telDepth.SetUint(uint64(atlas.MaxDepth))
}
