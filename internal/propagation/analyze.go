package propagation

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

func (n *node) word() wordKey { return wordKey{int32(n.tid), n.addr >> 3} }

// touch is one access to a DL1 set: a load reading the array at issue, or
// a committed store writing it at retire.
type touch struct {
	cycle uint64
	idx   int32 // node index
}

// dl1Access returns the cycle node n accessed the DL1 array, if it did: a
// committed store writes it at retire, and an issued load that was not
// forwarded reads it at issue (wrong-path loads access the DL1 too).
func (t *Tracer) dl1Access(n *node) (uint64, bool) {
	switch n.class {
	case isa.Store:
		return t.cycle(n.retire), n.committed()
	case isa.Load:
		return t.cycle(n.issueAt), n.has(fIssued) && !n.has(fForwarded)
	}
	return 0, false
}

// csr groups items by a dense integer key in one flat array: the list of
// key k is items[start[k]:start[k+1]].
type csr[T any] struct {
	start []int32
	items []T
}

// newCSR builds a csr over keys [0, keys) from the (key, item) pairs each
// passes to add; a list keeps its items in the order they were added.
// each runs twice, once to count and once to fill.
func newCSR[T any](keys int, each func(add func(key int32, item T))) csr[T] {
	c := csr[T]{start: make([]int32, keys+1)}
	each(func(k int32, _ T) { c.start[k+1]++ })
	for k := range keys {
		c.start[k+1] += c.start[k]
	}
	c.items = make([]T, c.start[keys])
	// Fill with start[k] as list k's cursor. It stops at the list's end,
	// which is where list k+1 starts, so the cursors shift back into place.
	each(func(k int32, item T) {
		c.items[c.start[k]] = item
		c.start[k]++
	})
	copy(c.start[1:], c.start[:keys])
	c.start[0] = 0
	return c
}

func (c *csr[T]) keys() int        { return len(c.start) - 1 }
func (c *csr[T]) list(k int32) []T { return c.items[c.start[k]:c.start[k+1]] }

// edgeType indexes EdgeTypes.
type edgeType uint8

const (
	edgeReg edgeType = iota
	edgeForward
	edgeMemory
	edgeCrossThread
)

// Victim resolution looks nodes up by cycle window: the five residency
// spans in spanStructs order, then a register's liveness window, from its
// writeback to its last consumer's issue.
const (
	liveWindow = len(spanStructs)
	numWindows = liveWindow + 1
)

// seed is an initial hop-1 contamination edge attached during victim
// resolution (DL1 set strikes).
type seed struct {
	idx   int32
	typ   edgeType
	cycle uint64
}

// analysis is the dataflow index built once per Analyze call: who writes
// and reads each physical register, which store satisfied each load (by
// forwarding or through memory), who touched each DL1 set when, and whose
// windows cover which cycles. Nothing writes it once build returns, so
// any number of walkers share it.
type analysis struct {
	t       *Tracer
	opt     Options
	threads int

	writes csr[int32] // executed writers per phys reg, by (writeback, gseq)
	reads  csr[int32] // issued readers per phys reg, by (issue, gseq)
	// cons[i] is writer i's consumers, a range of reads.items: the reads
	// of its register issuing from its writeback until the next writer's.
	cons   []struct{ lo, hi int32 }
	fwdOut csr[int32] // store node -> loads it forwarded to, in node order
	memOut csr[int32] // store node -> loads that read it through memory
	sets   csr[touch] // DL1 set -> touches, by (cycle, node)
	// win lists, per (window kind, thread) key k*threads+tid, the nodes
	// with a nonempty window of that kind, by (start, node); maxLen[key]
	// is the longest of those windows.
	win      csr[int32]
	maxLen   []uint64
	pairKeys []string // [from*threads+to] -> "from>to" Pairs key
}

// walker is the scratch one strike's expansion reuses. Each worker owns
// one; they share the analysis.
type walker struct {
	*analysis
	hop   []int32 // node -> taint hop; -1 outside the current expansion
	queue []int32 // the current expansion, breadth-first
	edges [len(EdgeTypes)]int
	pairs []int   // [from*threads+to] -> edges of the current expansion
	cands []int32 // victim candidates
	seeds []seed
	seen  []bool // per thread, for DL1 set walks
}

func (a *analysis) walker() *walker {
	w := &walker{
		analysis: a,
		hop:      make([]int32, a.t.n),
		pairs:    make([]int, a.threads*a.threads),
		seen:     make([]bool, a.threads),
	}
	for i := range w.hop {
		w.hop[i] = -1
	}
	return w
}

// build indexes the tracer's nodes in O(n log n) on up to workers
// goroutines. Every list is sorted by explicit keys, so the index does not
// depend on which worker built which part of it.
func (t *Tracer) build(workers int) *analysis {
	a := &analysis{t: t, opt: t.opt}
	threads, regs := t.threads, 0
	for i := range int32(t.n) {
		n := t.node(i)
		threads = max(threads, int(n.tid)+1)
		regs = max(regs, int(n.physDest)+1, int(n.physSrc1)+1, int(n.physSrc2)+1)
	}
	a.threads = threads
	a.pairKeys = make([]string, threads*threads)
	for p := range a.pairKeys {
		a.pairKeys[p] = fmt.Sprintf("%d>%d", p/threads, p%threads)
	}
	sets := 0
	if t.dl1.Size > 0 {
		sets = t.dl1.Sets()
	}
	// Three passes over the log group the register writers, the register
	// readers and the DL1 touches, one job each.
	parallel(3, workers, func(_, job int) {
		switch job {
		case 0:
			a.writes = newCSR(regs, func(add func(int32, int32)) {
				for i := range int32(t.n) {
					if n := t.node(i); n.has(fExecuted) && n.physDest >= 0 {
						add(int32(n.physDest), i)
					}
				}
			})
		case 1:
			a.reads = newCSR(regs, func(add func(int32, int32)) {
				for i := range int32(t.n) {
					n := t.node(i)
					if !n.has(fIssued) {
						continue
					}
					if n.physSrc1 >= 0 {
						add(int32(n.physSrc1), i)
					}
					if n.physSrc2 >= 0 && n.physSrc2 != n.physSrc1 {
						add(int32(n.physSrc2), i)
					}
				}
			})
		case 2:
			a.sets = newCSR(sets, func(add func(int32, touch)) {
				for i := range int32(t.n) {
					n := t.node(i)
					if cycle, ok := t.dl1Access(n); ok && sets > 0 {
						add(a.setOf(n.addr), touch{cycle, i})
					}
				}
			})
		}
	})
	a.cons = make([]struct{ lo, hi int32 }, t.n)
	// One job matches the loads to their stores (the longest, so it goes
	// first), one per register sorts its lists and finds its consumer
	// ranges, and one per DL1 set sorts its touches. The window lists
	// need the consumer ranges, so they are built after.
	sorters := make([]nodeSorter, workers)
	parallel(1+regs+sets, workers, func(w, job int) {
		switch {
		case job == 0:
			a.matchLoads(&sorters[w])
		case job <= regs:
			a.indexReg(int32(job-1), &sorters[w])
		default:
			slices.SortFunc(a.sets.list(int32(job-1-regs)), func(x, y touch) int {
				return cmp.Or(cmp.Compare(x.cycle, y.cycle), cmp.Compare(x.idx, y.idx))
			})
		}
	})
	a.win = newCSR(numWindows*threads, func(add func(int32, int32)) {
		for i := range int32(t.n) {
			n := t.node(i)
			for k, s := range n.spans {
				if s.end > s.start {
					add(int32(k*threads)+int32(n.tid), i)
				}
			}
			// A consumer issues at or after its writer's writeback, so a
			// writer with consumers has a nonempty liveness window.
			if c := a.cons[i]; c.hi > c.lo {
				add(int32(liveWindow*threads)+int32(n.tid), i)
			}
		}
	})
	a.maxLen = make([]uint64, numWindows*threads)
	radix := make([]radixSorter, workers)
	parallel(len(a.maxLen), workers, func(w, key int) {
		// A list is in node order, so a stable sort by start orders it by
		// (start, node).
		k, list := key/threads, a.win.list(int32(key))
		radix[w].sortStable(list, func(i int32) uint64 { return a.windowStart(k, i) })
		for _, i := range list {
			s := a.window(k, i)
			a.maxLen[key] = max(a.maxLen[key], s.end-s.start)
		}
	})
	return a
}

// indexReg sorts register r's writers by (writeback, gseq) and readers by
// (issue, gseq), and gives every writer its consumer range.
func (a *analysis) indexReg(r int32, sorter *nodeSorter) {
	t := a.t
	writers, reads := a.writes.list(r), a.reads.list(r)
	sorter.sort(writers, func(i int32) (uint64, uint64) { return t.cycle(t.node(i).ready), t.node(i).gseq })
	sorter.sort(reads, func(i int32) (uint64, uint64) { return t.cycle(t.node(i).issueAt), t.node(i).gseq })
	// Writers are sorted by writeback and readers by issue, so one forward
	// walk finds every writer's range.
	base, p := a.reads.start[r], 0
	issuedFrom := func(cycle uint64) int32 {
		for p < len(reads) && t.cycle(t.node(reads[p]).issueAt) < cycle {
			p++
		}
		return base + int32(p)
	}
	for w, wi := range writers {
		limit := ^uint64(0)
		if w+1 < len(writers) {
			limit = t.cycle(t.node(writers[w+1]).ready)
		}
		a.cons[wi].lo = issuedFrom(t.cycle(t.node(wi).ready))
		a.cons[wi].hi = issuedFrom(limit)
	}
}

// parallel calls job(w, i) for every i in [0, n), in order of i, on up to
// workers goroutines; w names the calling worker (0 <= w < workers), so a
// job can use that worker's scratch. It returns once every call has.
func parallel(n, workers int, job func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			job(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				job(w, i)
			}
		}()
	}
	wg.Wait()
}

// matchLoads matches every load to the store it observed, mirroring the
// LSQ and cache semantics: forwarded loads take the youngest older executed
// same-word store (lsq.ForwardCheck); the rest read the latest store
// committed before their DL1 access.
func (a *analysis) matchLoads(sorter *nodeSorter) {
	t := a.t
	fwdStores := make(map[wordKey][]int32) // executed stores, by gseq
	memStores := make(map[wordKey][]int32) // committed stores, by (retire, gseq)
	var loads []int32
	for i := range int32(t.n) {
		n := t.node(i)
		switch {
		case n.class == isa.Store:
			if n.has(fExecuted) {
				fwdStores[n.word()] = append(fwdStores[n.word()], i)
			}
			if n.committed() {
				memStores[n.word()] = append(memStores[n.word()], i)
			}
		case n.class == isa.Load && n.has(fIssued):
			loads = append(loads, i)
		}
	}
	for _, idxs := range fwdStores {
		sorter.sort(idxs, func(i int32) (uint64, uint64) { return t.node(i).gseq, 0 })
	}
	for _, idxs := range memStores {
		sorter.sort(idxs, func(i int32) (uint64, uint64) { return t.cycle(t.node(i).retire), t.node(i).gseq })
	}
	var fwd, mem [][2]int32 // (store, load), in load order
	for _, li := range loads {
		ld := t.node(li)
		if ld.has(fForwarded) {
			// The youngest store older than the load that had executed by
			// its issue.
			stores := fwdStores[ld.word()]
			p := sort.Search(len(stores), func(i int) bool { return t.node(stores[i]).gseq >= ld.gseq })
			for p--; p >= 0; p-- {
				if t.cycle(t.node(stores[p]).ready) <= t.cycle(ld.issueAt) {
					fwd = append(fwd, [2]int32{stores[p], li})
					break
				}
			}
			continue
		}
		stores := memStores[ld.word()]
		if p := sort.Search(len(stores), func(i int) bool { return t.cycle(t.node(stores[i]).retire) > t.cycle(ld.issueAt) }); p > 0 {
			mem = append(mem, [2]int32{stores[p-1], li})
		}
	}
	out := func(pairs [][2]int32) csr[int32] {
		return newCSR(t.n, func(add func(int32, int32)) {
			for _, e := range pairs {
				add(e[0], e[1])
			}
		})
	}
	a.fwdOut, a.memOut = out(fwd), out(mem)
}

// keyedNode is a node index with its sort keys copied out of the node.
type keyedNode struct {
	key, tie uint64
	idx      int32
}

// nodeSorter sorts node indices through a reused buffer of keyedNodes, so
// the comparisons read the buffer instead of chasing the nodes.
type nodeSorter []keyedNode

// sort orders idxs by (key, tie) as by returns them.
func (s *nodeSorter) sort(idxs []int32, by func(i int32) (key, tie uint64)) {
	if cap(*s) < len(idxs) {
		*s = make(nodeSorter, len(idxs))
	}
	buf := (*s)[:len(idxs)]
	for j, i := range idxs {
		k, t := by(i)
		buf[j] = keyedNode{k, t, i}
	}
	slices.SortFunc(buf, func(x, y keyedNode) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return cmp.Compare(x.tie, y.tie)
	})
	for j := range buf {
		idxs[j] = buf[j].idx
	}
}

// radixSorter sorts node indices by a key through two reused buffers.
type radixSorter struct {
	src, dst []keyedIdx
}

type keyedIdx struct {
	key uint32
	idx int32
}

// sortStable orders idxs by key as by returns it, keeping equal keys in
// their order: a least-significant-digit radix sort of the keys less
// their minimum, one pass per byte the largest difference uses. The keys
// must span less than 2^32, as a tracer's cycles do (Record).
func (s *radixSorter) sortStable(idxs []int32, by func(i int32) uint64) {
	if cap(s.src) < len(idxs) {
		s.src, s.dst = make([]keyedIdx, len(idxs)), make([]keyedIdx, len(idxs))
	}
	src, dst := s.src[:len(idxs)], s.dst[:len(idxs)]
	lo := ^uint64(0)
	for _, i := range idxs {
		lo = min(lo, by(i))
	}
	var used uint32
	for j, i := range idxs {
		k := uint32(by(i) - lo)
		src[j] = keyedIdx{k, i}
		used |= k
	}
	for shift := 0; used>>shift != 0; shift += 8 {
		var pos [256]int
		for _, e := range src {
			pos[byte(e.key>>shift)]++
		}
		at := 0
		for d, n := range pos {
			pos[d], at = at, at+n
		}
		for _, e := range src {
			d := byte(e.key >> shift)
			dst[pos[d]] = e
			pos[d]++
		}
		src, dst = dst, src
	}
	for j := range src {
		idxs[j] = src[j].idx
	}
}

// setOf maps an address to its DL1 set (the DL1 must have sets).
func (a *analysis) setOf(addr uint64) int32 {
	return int32(addr / uint64(a.t.dl1.LineSize) % uint64(a.t.dl1.Sets()))
}

// strikeSet maps a struck DL1 bit to its set. Lines are laid out
// set-interleaved: line index Bit/lineBits runs over the Sets*Ways lines
// with consecutive lines in consecutive sets, so set = line mod Sets —
// the same modeling granularity the campaign's capacity math uses.
func (a *analysis) strikeSet(st inject.Strike) (int32, bool) {
	if a.sets.keys() == 0 {
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
	return int32(st.Bit / lineBits % uint64(a.sets.keys())), true
}

// consumers returns the readers writer node wi's writeback would wake:
// reads of its physical register issuing at or after the writeback, before
// the register's next reallocation (approximated by the next writeback to
// the same register), by issue cycle. Empty for a node that wrote no
// register; the slice aliases the index and must not be modified.
func (a *analysis) consumers(wi int32) []int32 {
	c := a.cons[wi]
	return a.reads.items[c.lo:c.hi]
}

// window returns node i's window of kind k, or an empty span when it has
// none: a residency span, or for liveWindow the cycles from its register
// writeback through its last consumer's issue.
func (a *analysis) window(k int, i int32) span {
	t, n := a.t, a.t.node(i)
	if k < liveWindow {
		return t.span(n, k)
	}
	c := a.cons[i]
	if c.lo == c.hi {
		return span{}
	}
	return span{t.cycle(n.ready), t.cycle(t.node(a.reads.items[c.hi-1]).issueAt) + 1}
}

// windowStart is window(k, i).start.
func (a *analysis) windowStart(k int, i int32) uint64 {
	if k < liveWindow {
		return a.t.cycle(a.t.node(i).spans[k].start)
	}
	return a.t.cycle(a.t.node(i).ready)
}

// cover appends to dst the nodes of thread tid whose window of kind k
// covers cycle c (start <= c < end). No window is longer than the key's
// maxLen, so a covering one starts after c-maxLen: one binary search and
// a walk to c find them all.
func (a *analysis) cover(k, tid int, c uint64, dst []int32) []int32 {
	if tid < 0 || tid >= a.threads {
		return dst
	}
	key := int32(k*a.threads + tid)
	list, maxLen := a.win.list(key), a.maxLen[key]
	var from uint64
	if c >= maxLen {
		from = c - maxLen + 1
	}
	i := sort.Search(len(list), func(j int) bool { return a.windowStart(k, list[j]) >= from })
	for ; i < len(list); i++ {
		w := a.window(k, list[i])
		if w.start > c {
			break
		}
		if c < w.end {
			dst = append(dst, list[i])
		}
	}
	return dst
}

// firstTouches walks touches (sorted by cycle) forward from the first one
// after cycle and calls visit with the first touch of every thread except
// thread skip (-1 skips none). It stops once every such thread is seen.
func (w *walker) firstTouches(touches []touch, cycle uint64, skip int32, visit func(tc touch, tid int32)) {
	seen, unseen := w.seen, w.threads
	clear(seen)
	if skip >= 0 {
		seen[skip] = true
		unseen--
	}
	i := sort.Search(len(touches), func(i int) bool { return touches[i].cycle > cycle })
	for ; i < len(touches) && unseen > 0; i++ {
		tc := touches[i]
		if tid := int32(w.t.node(tc.idx).tid); !seen[tid] {
			seen[tid] = true
			unseen--
			visit(tc, tid)
		}
	}
}

// resolve identifies the victim uop of a corrupting strike, plus the
// initial contamination hops for array strikes (the accesses that read a
// struck DL1 set after the strike). The strike's ThreadBit picks
// deterministically among equally-resident candidates. The seeds alias
// scratch reused by the next call.
func (w *walker) resolve(st inject.Strike) (victim int32, seeds []seed, ok bool) {
	t := w.t
	switch st.Struct {
	case avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU, avf.Reg:
		// A pipeline structure holds the uops whose residency span covers
		// the strike; the register file holds the values whose ACE window,
		// from the write to the last read, does.
		k := liveWindow
		if st.Struct != avf.Reg {
			k = spanIndex(st.Struct)
		}
		w.cands = w.cover(k, st.TID, st.Cycle, w.cands[:0])
		return pickByGSeq(t, w.cands, st.ThreadBit)
	case avf.DL1Data, avf.DL1Tag:
		set, mapped := w.strikeSet(st)
		if !mapped {
			return -1, nil, false
		}
		touches := w.sets.list(set)
		// Victim: the struck thread's last access to the set before the
		// strike (falling back to any thread's — the line may be resident
		// long after its owner's access).
		prior := touches[:sort.Search(len(touches), func(i int) bool { return touches[i].cycle > st.Cycle })]
		if len(prior) == 0 {
			return -1, nil, false
		}
		victim = prior[len(prior)-1].idx
		for i := len(prior) - 1; i >= 0; i-- {
			if int(t.node(prior[i].idx).tid) == st.TID {
				victim = prior[i].idx
				break
			}
		}
		// Initial hops: the first access each thread makes to the
		// corrupted set after the strike — same-thread reads re-consume
		// the datum (memory), other threads are contaminated through the
		// shared array (cross_thread). A node accesses the DL1 at most
		// once, so the victim, at or before the strike, is not among them.
		w.seeds = w.seeds[:0]
		w.firstTouches(touches, st.Cycle, -1, func(tc touch, tid int32) {
			typ := edgeMemory
			if int(tid) != st.TID {
				typ = edgeCrossThread
			}
			w.seeds = append(w.seeds, seed{idx: tc.idx, typ: typ, cycle: tc.cycle})
		})
		return victim, w.seeds, true
	default:
		// ITLB/DTLB strikes corrupt translations, not tracked dataflow.
		return -1, nil, false
	}
}

// pickByGSeq orders candidates by fetch age and lets the strike's
// ThreadBit choose — the offset within the thread's ACE share is uniform
// over resident state, so this keeps victim selection unbiased and
// deterministic.
func pickByGSeq(t *Tracer, cands []int32, threadBit uint64) (int32, []seed, bool) {
	if len(cands) == 0 {
		return -1, nil, false
	}
	slices.SortFunc(cands, func(x, y int32) int {
		return cmp.Compare(t.node(x).gseq, t.node(y).gseq)
	})
	return cands[int(threadBit%uint64(len(cands)))], nil, true
}

// trace taint-tracks one strike through the dataflow index.
func (w *walker) trace(st inject.Strike) Trace {
	t := w.t
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
	victim, seeds, ok := w.resolve(st)
	if ok {
		v := t.node(victim)
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
	w.hop[victim] = 0
	w.queue = append(w.queue[:0], victim)
	w.edges = [len(EdgeTypes)]int{}
	clear(w.pairs)
	for _, s := range seeds {
		w.edge(&tr, victim, s.idx, s.typ, s.cycle)
	}
	// Once the node bound truncates the expansion no later edge can change
	// the trace, so the walk stops there.
	for qi := 0; qi < len(w.queue) && !tr.Truncated; qi++ {
		ni := w.queue[qi]
		if int(w.hop[ni]) >= w.opt.MaxHops {
			continue
		}
		for _, ri := range w.consumers(ni) {
			w.edge(&tr, ni, ri, edgeReg, t.cycle(t.node(ri).issueAt))
		}
		n := t.node(ni)
		if n.class != isa.Store {
			continue
		}
		for _, li := range w.fwdOut.list(ni) {
			w.edge(&tr, ni, li, edgeForward, t.cycle(t.node(li).issueAt))
		}
		for _, li := range w.memOut.list(ni) {
			w.edge(&tr, ni, li, edgeMemory, t.cycle(t.node(li).issueAt))
		}
		// A tainted committed store also dirties its DL1 set: the next
		// access each *other* thread makes to that set after the writeback
		// crosses the shared-array boundary.
		if n.committed() && w.sets.keys() > 0 {
			w.firstTouches(w.sets.list(w.setOf(n.addr)), t.cycle(n.retire), int32(n.tid), func(tc touch, _ int32) {
				w.edge(&tr, ni, tc.idx, edgeCrossThread, tc.cycle)
			})
		}
	}

	// Terminal: the corruption is architecturally visible only if tainted
	// work committed live (ACE). Taint confined to squashed, dead, or NOP
	// uops never reaches committed state — microarchitectural masking the
	// per-strike view refines beyond the campaign's ACE verdict.
	tr.Tainted = len(w.queue)
	for _, i := range w.queue {
		if h := int(w.hop[i]); t.node(i).fate == avf.FateCommitted && (tr.CommitHop < 0 || h < tr.CommitHop) {
			tr.CommitHop = h
		}
		w.hop[i] = -1
	}
	if tr.CommitHop >= 0 {
		tr.Terminal = TerminalSDC
	} else {
		tr.Terminal = TerminalMasked
	}
	if len(w.queue) > 1 {
		// Traces with no edges serialize without the maps, so a JSONL
		// round trip reproduces them exactly.
		tr.Edges = map[string]int{}
		for typ, n := range w.edges {
			if n > 0 {
				tr.Edges[EdgeTypes[typ]] = n
			}
		}
		tr.Pairs = map[string]int{}
		for p, n := range w.pairs {
			if n > 0 {
				tr.Pairs[w.pairKeys[p]] = n
			}
		}
	}
	return tr
}

// edge taints node to through an edge from the tainted node from, unless
// it is already tainted or the expansion is at its node bound.
func (w *walker) edge(tr *Trace, from, to int32, typ edgeType, cycle uint64) {
	if w.hop[to] >= 0 {
		return
	}
	if len(w.queue) >= w.opt.MaxNodes {
		tr.Truncated = true
		return
	}
	h := w.hop[from] + 1
	w.hop[to] = h
	w.queue = append(w.queue, to)
	w.edges[typ]++
	tr.Depth = max(tr.Depth, int(h))
	fn, tn := w.t.node(from), w.t.node(to)
	if fn.tid != tn.tid {
		tr.CrossThread++
	}
	w.pairs[int(fn.tid)*w.threads+int(tn.tid)]++
	if len(tr.Hops) < w.opt.MaxRecordedHops {
		tr.Hops = append(tr.Hops, Hop{
			Hop: int(h), Type: EdgeTypes[typ],
			FromTID: int(fn.tid), FromPC: fn.pc,
			ToTID: int(tn.tid), ToPC: tn.pc,
			Cycle: cycle,
		})
	}
}

// Analyze resolves and taint-tracks every strike against the recorded
// run, returning the aggregated atlas. Call after the simulation
// completes; the strikes typically come from Campaign.SampleStrikes with
// the same campaign that observed the run.
//
// The index builds and the strikes trace on GOMAXPROCS workers. Each
// strike's trace depends only on the strike and the index, and the atlas
// folds the traces in strike order, so the atlas does not depend on the
// worker count.
func (t *Tracer) Analyze(strikes []inject.Strike) *Atlas {
	workers := runtime.GOMAXPROCS(0)
	a := t.build(workers)
	// Every walker is made before any worker starts: the workers only read
	// the analysis.
	walkers := make([]*walker, min(workers, len(strikes)))
	for w := range walkers {
		walkers[w] = a.walker()
	}
	traces := make([]Trace, len(strikes))
	parallel(len(strikes), len(walkers), func(w, i int) {
		traces[i] = walkers[w].trace(strikes[i])
	})
	atlas := NewAtlas(t.threads)
	atlas.Dropped = t.dropped
	atlas.Traces = traces
	for i := range traces {
		atlas.fold(&traces[i])
	}
	t.publish(atlas)
	return atlas
}

// publish pushes the atlas headline numbers to the live gauges (every
// handle is a nil-receiver no-op when unpublished).
func (t *Tracer) publish(atlas *Atlas) {
	t.telStrikes.SetUint(uint64(atlas.Strikes))
	t.telResolved.SetUint(uint64(atlas.Resolved))
	t.telSDC.SetUint(uint64(atlas.Terminals[TerminalSDC]))
	t.telCross.SetUint(atlas.CrossEdges())
	t.telDepth.SetUint(uint64(atlas.MaxDepth))
}
