package propagation

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
	"smtavf/internal/isa"
)

// CheckConsumers compares every executed writer's precomputed consumer
// range with the linear scan it replaced. It returns the number of
// writers checked and the first disagreement.
func (t *Tracer) CheckConsumers() (writers int, err error) {
	a := t.build(runtime.GOMAXPROCS(0))
	for i := range int32(t.n) {
		n := t.node(i)
		if !n.has(fExecuted) || n.physDest < 0 {
			continue
		}
		writers++
		got, want := a.consumers(i), a.scanConsumers(int32(n.physDest), i)
		if !slices.Equal(got, want) {
			return writers, fmt.Errorf("writer %d of p%d: consumers %v, linear scan %v", i, n.physDest, got, want)
		}
	}
	return writers, nil
}

// WideNode is a recorded uop at full width: what Record copies out of the
// pool slot, before packing. Spans are clipped at the rebase and zero when
// empty; a uop that never issued keeps the pool's zero issue and
// writeback cycles.
type WideNode struct {
	TID                          int32
	PhysSrc1, PhysSrc2, PhysDest int32
	Class                        isa.Class
	Fate                         avf.Fate
	WrongPath, Forwarded         bool
	Issued, Executed             bool
	GSeq, PC, Addr               uint64
	IssueAt, Ready, Retire       uint64
	Spans                        [5][2]uint64 // spanStructs order
}

// Decoded returns every recorded node, decoded through the layout
// accessors the analysis reads.
func (t *Tracer) Decoded() []WideNode {
	out := make([]WideNode, t.n)
	for i := range out {
		n := t.node(int32(i))
		w := WideNode{
			TID:       int32(n.tid),
			PhysSrc1:  int32(n.physSrc1),
			PhysSrc2:  int32(n.physSrc2),
			PhysDest:  int32(n.physDest),
			Class:     n.class,
			Fate:      n.fate,
			WrongPath: n.has(fWrongPath),
			Forwarded: n.has(fForwarded),
			Issued:    n.has(fIssued),
			Executed:  n.has(fExecuted),
			GSeq:      n.gseq,
			PC:        n.pc,
			Addr:      n.addr,
			Retire:    t.cycle(n.retire),
		}
		if w.Issued {
			w.IssueAt, w.Ready = t.cycle(n.issueAt), t.cycle(n.ready)
		}
		for k := range w.Spans {
			if s := t.span(n, k); s.end > s.start {
				w.Spans[k] = [2]uint64{s.start, s.end}
			}
		}
		out[i] = w
	}
	return out
}

// SetOptions replaces the tracer's options; after a run, only the bounds
// Analyze applies still matter.
func (t *Tracer) SetOptions(opt Options) { t.opt = opt.withDefaults() }

// CheckAnalyze traces every strike through the indexed analysis and
// through the reference below, under opt's bounds. It returns the indexed
// traces and the first strike whose traces differ.
func (t *Tracer) CheckAnalyze(strikes []inject.Strike, opt Options) ([]Trace, error) {
	a := t.build(runtime.GOMAXPROCS(0))
	a.opt = opt.withDefaults()
	ref, w := a.reference(), a.walker()
	traces := make([]Trace, len(strikes))
	for i, st := range strikes {
		traces[i] = w.trace(st)
		if want := ref.trace(st); !reflect.DeepEqual(traces[i], want) {
			return nil, fmt.Errorf("strike %d (%+v):\n indexed   %+v\n reference %+v", i, st, traces[i], want)
		}
	}
	return traces, nil
}

// CheckCover compares the interval index with a scan of the thread's
// windows for every window kind and thread: at the first and last cycle of
// up to 32 longest windows, where the index's search bound is tight, and
// at 64 cycles spread over the run. It returns the first disagreement.
func (t *Tracer) CheckCover() error {
	a := t.build(runtime.GOMAXPROCS(0))
	type window struct {
		idx int32
		span
	}
	for k := range numWindows {
		windows := make([][]window, a.threads)
		var end uint64
		for i := range int32(t.n) {
			if w := a.scanWindow(k, i); w.end > w.start {
				windows[t.node(i).tid] = append(windows[t.node(i).tid], window{i, w})
				end = max(end, w.end)
			}
		}
		for tid, ws := range windows {
			var longest uint64
			for _, w := range ws {
				longest = max(longest, w.end-w.start)
			}
			var cycles []uint64
			for _, w := range ws {
				if w.end-w.start == longest && len(cycles) < 64 {
					cycles = append(cycles, w.start, w.end-1)
				}
			}
			for c := uint64(0); c < end; c += end/64 + 1 {
				cycles = append(cycles, c)
			}
			for _, c := range cycles {
				got := a.cover(k, tid, c, nil)
				slices.Sort(got)
				var want []int32
				for _, w := range ws {
					if w.start <= c && c < w.end {
						want = append(want, w.idx)
					}
				}
				if !slices.Equal(got, want) {
					return fmt.Errorf("window kind %d, thread %d, cycle %d: cover %v, scan %v", k, tid, c, got, want)
				}
			}
		}
	}
	return nil
}

// scanWindow is the reference window of node i: its recorded span, or for
// a register writer the cycles from its writeback through the issue of its
// last consumer, found by scanConsumers.
func (a *analysis) scanWindow(k int, i int32) span {
	t, n := a.t, a.t.node(i)
	if k < liveWindow {
		return t.span(n, k)
	}
	if !n.has(fExecuted) || n.physDest < 0 {
		return span{}
	}
	var w span
	for _, ri := range a.scanConsumers(int32(n.physDest), i) {
		w = span{t.cycle(n.ready), t.cycle(t.node(ri).issueAt) + 1}
	}
	return w
}

// scanConsumers is the reference consumers lookup: find the writer's
// position by scanning its register's writer list, then walk the reader
// list from the start.
func (a *analysis) scanConsumers(phys, wi int32) []int32 {
	writers := a.writes.list(phys)
	pos := slices.Index(writers, wi)
	if pos < 0 {
		return nil
	}
	t, w := a.t, a.t.node(wi)
	limit := ^uint64(0)
	if pos+1 < len(writers) {
		limit = t.cycle(t.node(writers[pos+1]).ready)
	}
	var out []int32
	for _, ri := range a.reads.list(phys) {
		r := t.node(ri)
		if t.cycle(r.issueAt) < t.cycle(w.ready) {
			continue
		}
		if t.cycle(r.issueAt) >= limit {
			break
		}
		out = append(out, ri)
	}
	return out
}

// reference is the analysis the indexes replaced: linear scans for load
// matches, victims and consumers, walks of a DL1 set from its first
// touch, and a map-based taint set. It shares only the sorted register
// and DL1 set lists with the indexed analysis.
type reference struct {
	a              *analysis
	fwdOut, memOut map[int32][]int32
}

type refSeed struct {
	idx   int32
	typ   string
	cycle uint64
}

func (a *analysis) reference() *reference {
	t := a.t
	r := &reference{a: a, fwdOut: map[int32][]int32{}, memOut: map[int32][]int32{}}
	fwdStores := make(map[wordKey][]int32)
	memStores := make(map[wordKey][]int32)
	var loads []int32
	for i := range int32(t.n) {
		n := t.node(i)
		switch n.class {
		case isa.Store:
			if n.has(fExecuted) {
				fwdStores[n.word()] = append(fwdStores[n.word()], i)
			}
			if n.committed() {
				memStores[n.word()] = append(memStores[n.word()], i)
			}
		case isa.Load:
			if n.has(fIssued) {
				loads = append(loads, i)
			}
		}
	}
	for _, idxs := range fwdStores {
		sort.Slice(idxs, func(x, y int) bool { return t.node(idxs[x]).gseq < t.node(idxs[y]).gseq })
	}
	for _, idxs := range memStores {
		sort.Slice(idxs, func(x, y int) bool {
			nx, ny := t.node(idxs[x]), t.node(idxs[y])
			if t.cycle(nx.retire) != t.cycle(ny.retire) {
				return t.cycle(nx.retire) < t.cycle(ny.retire)
			}
			return nx.gseq < ny.gseq
		})
	}
	for _, li := range loads {
		ld := t.node(li)
		if ld.has(fForwarded) {
			best := int32(-1)
			for _, si := range fwdStores[ld.word()] {
				st := t.node(si)
				if st.gseq >= ld.gseq {
					break
				}
				if t.cycle(st.ready) <= t.cycle(ld.issueAt) {
					best = si
				}
			}
			if best >= 0 {
				r.fwdOut[best] = append(r.fwdOut[best], li)
			}
			continue
		}
		best := int32(-1)
		for _, si := range memStores[ld.word()] {
			if t.cycle(t.node(si).retire) > t.cycle(ld.issueAt) {
				break
			}
			best = si
		}
		if best >= 0 {
			r.memOut[best] = append(r.memOut[best], li)
		}
	}
	return r
}

func (r *reference) resolve(st inject.Strike) (victim int32, seeds []refSeed, ok bool) {
	a, t := r.a, r.a.t
	switch st.Struct {
	case avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU:
		si := spanIndex(st.Struct)
		var cands []int32
		for i := range int32(t.n) {
			n := t.node(i)
			if int(n.tid) != st.TID {
				continue
			}
			sp := t.span(n, si)
			if sp.end > sp.start && sp.start <= st.Cycle && st.Cycle < sp.end {
				cands = append(cands, i)
			}
		}
		victim, _, ok = pickByGSeq(t, cands, st.ThreadBit)
		return victim, nil, ok
	case avf.Reg:
		var cands []int32
		for i := range int32(t.n) {
			n := t.node(i)
			if int(n.tid) != st.TID || !n.has(fExecuted) || n.physDest < 0 || t.cycle(n.ready) > st.Cycle {
				continue
			}
			for _, ri := range a.scanConsumers(int32(n.physDest), i) {
				if t.cycle(t.node(ri).issueAt) >= st.Cycle {
					cands = append(cands, i)
					break
				}
			}
		}
		victim, _, ok = pickByGSeq(t, cands, st.ThreadBit)
		return victim, nil, ok
	case avf.DL1Data, avf.DL1Tag:
		set, mapped := a.strikeSet(st)
		if !mapped {
			return -1, nil, false
		}
		touches := a.sets.list(set)
		victim = -1
		anyPrior := int32(-1)
		for _, tc := range touches {
			if tc.cycle > st.Cycle {
				break
			}
			anyPrior = tc.idx
			if int(t.node(tc.idx).tid) == st.TID {
				victim = tc.idx
			}
		}
		if victim < 0 {
			victim = anyPrior
		}
		if victim < 0 {
			return -1, nil, false
		}
		seen := map[int32]bool{}
		for _, tc := range touches {
			if tc.cycle <= st.Cycle {
				continue
			}
			tid := int32(t.node(tc.idx).tid)
			if seen[tid] || tc.idx == victim {
				continue
			}
			seen[tid] = true
			typ := EdgeMemory
			if int(tid) != st.TID {
				typ = EdgeCrossThread
			}
			seeds = append(seeds, refSeed{idx: tc.idx, typ: typ, cycle: tc.cycle})
		}
		return victim, seeds, true
	default:
		return -1, nil, false
	}
}

func (r *reference) trace(st inject.Strike) Trace {
	a, t := r.a, r.a.t
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
	victim, seeds, ok := r.resolve(st)
	if ok {
		v := t.node(victim)
		tr.Resolved = true
		tr.RootTID = int(v.tid)
		tr.RootPC = v.pc
		tr.RootOp = v.class.String()
	}
	switch st.Outcome {
	case inject.DUE:
		tr.Terminal = TerminalDUE
		return tr
	case inject.Corrected:
		tr.Terminal = TerminalCorrected
		return tr
	}
	if !ok {
		tr.Terminal = TerminalSDC
		return tr
	}

	hops := map[int32]int{victim: 0}
	queue := []int32{victim}
	tr.Tainted = 1
	edge := func(from, to int32, typ string, cycle uint64) {
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
			tr.Edges = map[string]int{}
			tr.Pairs = map[string]int{}
		}
		tr.Edges[typ]++
		if h > tr.Depth {
			tr.Depth = h
		}
		fn, tn := t.node(from), t.node(to)
		if fn.tid != tn.tid {
			tr.CrossThread++
		}
		tr.Pairs[fmt.Sprintf("%d>%d", fn.tid, tn.tid)]++
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
		n := t.node(ni)
		if n.has(fExecuted) && n.physDest >= 0 {
			for _, ri := range a.scanConsumers(int32(n.physDest), ni) {
				edge(ni, ri, EdgeReg, t.cycle(t.node(ri).issueAt))
			}
		}
		if n.class == isa.Store {
			for _, li := range r.fwdOut[ni] {
				edge(ni, li, EdgeForward, t.cycle(t.node(li).issueAt))
			}
			for _, li := range r.memOut[ni] {
				edge(ni, li, EdgeMemory, t.cycle(t.node(li).issueAt))
			}
			if n.committed() && a.sets.keys() > 0 {
				set := int32(n.addr / uint64(t.dl1.LineSize) % uint64(a.sets.keys()))
				seen := map[int32]bool{int32(n.tid): true}
				for _, tc := range a.sets.list(set) {
					if tc.cycle <= t.cycle(n.retire) {
						continue
					}
					tid := int32(t.node(tc.idx).tid)
					if seen[tid] {
						continue
					}
					seen[tid] = true
					edge(ni, tc.idx, EdgeCrossThread, tc.cycle)
				}
			}
		}
	}
	for idx, h := range hops {
		if t.node(idx).fate == avf.FateCommitted && (tr.CommitHop < 0 || h < tr.CommitHop) {
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
