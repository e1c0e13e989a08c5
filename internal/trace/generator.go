package trace

import (
	"smtavf/internal/isa"
	"smtavf/internal/rng"
)

// Generator produces an infinite, deterministic dynamic instruction stream.
type Generator interface {
	// Next returns the next correct-path instruction.
	Next() isa.Instruction
	// Name identifies the workload for reports.
	Name() string
}

// Address-space layout of a synthetic program. Code, the hot data region,
// and the cold data region are disjoint.
const (
	codeBase = 0x0040_0000
	dataBase = 0x1000_0000 // hot region
	coldBase = 0x5000_0000 // cold region

	numStrideStreams = 4
	maxCallDepth     = 8
	pageSize         = 4096
	pageRingSize     = 48 // recently-touched cold pages (reuse locality)
)

// Architectural register roles. Real code keeps a few registers live for
// long stretches (stack/frame/base pointers, loop-carried values); these
// long-lived registers are what gives the physical register file its ACE
// residency. Short-lived temporaries cycle through the remaining registers.
const (
	numBaseRegs = 4 // r0..r3: memory base registers, sourced by every access
	numLongInt  = 8 // r4..r11: long-lived integer values
	numLongFP   = 6 // f0..f5: long-lived FP values

	firstShortInt = numBaseRegs + numLongInt // r12..r30 temporaries
	baseRewrite   = 150                      // mean instructions between base-reg updates
	longRewriteP  = 0.05                     // P(compute dest is a long-lived reg)
	longSourceP   = 0.30                     // P(compute Src2 reads a long-lived reg)
)

// The fixed probabilities the per-instruction draws use, as thresholds.
var (
	pBaseRewrite = rng.P(1.0 / baseRewrite)
	pLongRewrite = rng.P(longRewriteP)
	pLongSource  = rng.P(longSourceP)
	pSeventy     = rng.P(0.7)
)

// thresholds holds a profile's per-instruction probabilities converted
// once into rng thresholds (rng.P). A threshold decides exactly as
// Bool(p) or Float64() < p would, on the same draws, so the stream is the
// one the profile's fields define.
type thresholds struct {
	// Cumulative bounds of the body class draw: NopFrac, +LoadFrac and
	// +StoreFrac, summed left to right. Another order can round to
	// another float and move a class boundary.
	nop, load, store rng.Prob

	loadStoreReuse, fp, div, mul, dead rng.Prob
	hot, stride, pageLocal             rng.Prob
	predictable                        rng.Prob
	depDist                            rng.Prob // rng.GeometricMean(DepDist)
}

func newThresholds(p *Profile) thresholds {
	return thresholds{
		nop:            rng.P(p.NopFrac),
		load:           rng.P(p.NopFrac + p.LoadFrac),
		store:          rng.P(p.NopFrac + p.LoadFrac + p.StoreFrac),
		loadStoreReuse: rng.P(p.LoadStoreReuse),
		fp:             rng.P(p.FPFrac),
		div:            rng.P(p.DivFrac),
		mul:            rng.P(p.MulFrac),
		dead:           rng.P(p.DeadFrac),
		hot:            rng.P(p.HotFrac),
		stride:         rng.P(p.StrideFrac),
		pageLocal:      rng.P(p.PageLocal),
		predictable:    rng.P(p.BranchPredictability),
		depDist:        rng.GeometricMean(float64(p.DepDist)),
	}
}

type block struct {
	start uint64 // PC of first instruction
	n     int    // instruction count, excluding the terminating CTI
	// terminator behaviour, fixed per static block:
	kind      isa.Class // Branch, Call, or Return
	bias      bool      // home direction for Branch
	target    int       // target block index for Branch/Call
	loopTrips int       // >0: backward loop branch with this mean trip count
}

// Synthetic generates instructions from a Profile. It models a program as a
// static set of basic blocks walked dynamically: loops with geometric trip
// counts, occasional calls/returns (exercising the RAS), per-block fixed
// terminators (so identical PCs behave consistently, as real code does),
// and a register dataflow with tunable dependence distance plus long-lived
// base registers.
type Synthetic struct {
	p   Profile
	pr  thresholds
	rnd *rng.Source

	blocks []block
	cur    int // current block index
	off    int // next instruction offset within block body

	seq       uint64
	callStack []int    // return-to block indices
	retPC     []uint64 // return addresses (PC after the call)
	trips     []int    // per block: loop trips left, 0 = not looping

	// Register dataflow.
	recentInt []isa.RegID // ring of recently written short-lived int regs
	recentFP  []isa.RegID
	riPos     int
	rfPos     int
	nextInt   isa.RegID
	nextFP    isa.RegID
	longIntRR int
	longFPRR  int
	baseRR    int

	// Data streams.
	streamPtr  [numStrideStreams]uint64
	hotPtr     uint64
	pageRing   [pageRingSize]uint64
	pageN      int
	storeRing  [8]uint64 // recent store addresses (load-after-store reuse)
	storeRingN int
}

var _ Generator = (*Synthetic)(nil)

// NewSynthetic builds a generator for profile p. Streams built from the
// same profile and seed are identical instruction-for-instruction.
func NewSynthetic(p Profile, seed uint64) *Synthetic {
	p = p.withDefaults()
	g := &Synthetic{
		p:         p,
		pr:        newThresholds(&p),
		rnd:       rng.New(seed ^ hashName(p.Name)),
		recentInt: make([]isa.RegID, 8),
		recentFP:  make([]isa.RegID, 8),
		nextInt:   firstShortInt,
		nextFP:    isa.FirstFPReg + numLongFP,
	}
	for i := range g.recentInt {
		g.recentInt[i] = firstShortInt + isa.RegID(i)
	}
	for i := range g.recentFP {
		g.recentFP[i] = isa.FirstFPReg + numLongFP + isa.RegID(i)
	}
	g.buildCode()
	for i := range g.streamPtr {
		g.streamPtr[i] = g.rnd.Uint64n(p.WorkingSet)
	}
	return g
}

func hashName(s string) uint64 {
	// FNV-1a, so different benchmarks from one seed diverge.
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// buildCode lays out the static basic blocks and their terminators.
func (g *Synthetic) buildCode() {
	p := g.p
	g.blocks = make([]block, p.CodeBlocks)
	g.trips = make([]int, p.CodeBlocks)
	pc := uint64(codeBase)
	for i := range g.blocks {
		// Block lengths cluster tightly around the mean so that the
		// dynamic branch fraction tracks Profile.BranchFrac: execution
		// time spent in a block scales with its length, so a heavy-tailed
		// length distribution would bias the dynamic mix toward long
		// blocks.
		n := p.MeanBlockLen + g.rnd.Intn(7) - 3
		if n < 2 {
			n = 2
		}
		g.blocks[i] = block{start: pc, n: n}
		pc += uint64(n+1) * 4 // +1 for the terminator
	}
	// Non-loop jump targets are local and strictly forward: locality gives
	// the instruction cache and BTB realistic behaviour, and forward-only
	// jumps keep the block walk ergodic (backward edges come only from
	// trip-counted loops, which always terminate), so every block —
	// including call sites — is eventually visited.
	forward := func(i, span int) int {
		return (i + 1 + g.rnd.Intn(span)) % len(g.blocks)
	}
	for i := range g.blocks {
		b := &g.blocks[i]
		switch {
		case g.rnd.Bool(p.CallFrac):
			b.kind = isa.Call
			b.target = forward(i, 64)
		case g.rnd.Bool(0.50):
			// Tight loop: the block branches back to its own start for a
			// trip-counted number of iterations. Self-loops (rather than
			// multi-block backward spans) keep the walk's forward progress
			// linear — chained backward loops would re-arm each other and
			// trap execution in a region for exponentially long.
			b.kind = isa.Branch
			b.target = i
			// Mostly short loops (learnable within the 10-bit history),
			// occasionally long ones (rare exits, so cheap anyway).
			if g.rnd.Bool(0.8) {
				b.loopTrips = 3 + g.rnd.Intn(7)
			} else {
				b.loopTrips = 10 + g.rnd.Intn(40)
			}
			b.bias = true // loop branches are taken while looping
		default:
			b.kind = isa.Branch
			b.target = forward(i, 24)
			b.bias = g.rnd.Bool(0.5)
		}
	}
	// Sprinkle Returns so the call stack drains.
	if p.CallFrac > 0 {
		for i := range g.blocks {
			if g.blocks[i].kind == isa.Branch && g.rnd.Bool(p.CallFrac*1.5) {
				g.blocks[i].kind = isa.Return
			}
		}
	}
}

// Name implements Generator.
func (g *Synthetic) Name() string { return g.p.Name }

// Next implements Generator.
func (g *Synthetic) Next() isa.Instruction {
	b := &g.blocks[g.cur]
	var in isa.Instruction
	if g.off < b.n {
		in = g.body(b.start + uint64(g.off)*4)
		g.off++
	} else {
		in = g.terminator(b)
		g.off = 0
	}
	in.Seq = g.seq
	g.seq++
	return in
}

// body emits one non-CTI instruction at pc.
func (g *Synthetic) body(pc uint64) isa.Instruction {
	p, pr := &g.p, &g.pr
	in := isa.Instruction{PC: pc, Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.RegNone}
	r := g.rnd.Uint53()
	switch {
	case pr.nop.Covers(r):
		in.Class = isa.NOP
		return in
	case pr.load.Covers(r):
		in.Class = isa.Load
		if g.storeRingN > 0 && g.rnd.Chance(pr.loadStoreReuse) {
			// Reload a recently stored address (register spill/reload).
			in.Addr = g.storeRing[g.rnd.Intn(min(g.storeRingN, len(g.storeRing)))]
			in.Size = 8
		} else {
			in.Addr, in.Size = g.address()
		}
		in.Src1 = g.pickBase()
		g.setDest(&in, p.FPFrac > 0.5)
		return in
	case pr.store.Covers(r):
		in.Class = isa.Store
		in.Addr, in.Size = g.address()
		in.Src1 = g.pickBase()
		in.Src2 = g.pickSrc(p.FPFrac > 0.5)
		g.storeRing[g.storeRingN%len(g.storeRing)] = in.Addr
		g.storeRingN++
		return in
	}
	// Compute op.
	fp := g.rnd.Chance(pr.fp)
	switch {
	case g.rnd.Chance(pr.div):
		if fp {
			in.Class = isa.FPDiv
		} else {
			in.Class = isa.IntDiv
		}
	case g.rnd.Chance(pr.mul):
		if fp {
			in.Class = isa.FPMul
		} else {
			in.Class = isa.IntMul
		}
	default:
		if fp {
			in.Class = isa.FPALU
		} else {
			in.Class = isa.IntALU
		}
	}
	in.Src1 = g.pickSrc(fp)
	switch {
	case g.rnd.Chance(pLongSource):
		in.Src2 = g.pickLong(fp)
	case g.rnd.Chance(pSeventy):
		in.Src2 = g.pickSrc(fp)
	default:
		in.Src2 = isa.RegNone
	}
	g.setDest(&in, fp)
	return in
}

// terminator emits the CTI ending block b and advances the block walk.
func (g *Synthetic) terminator(b *block) isa.Instruction {
	pc := b.start + uint64(b.n)*4
	in := isa.Instruction{PC: pc, Class: b.kind, Src1: g.pickSrc(false), Src2: isa.RegNone, Dest: isa.RegNone}
	idx := g.cur
	switch b.kind {
	case isa.Call:
		if len(g.callStack) >= maxCallDepth {
			// Too deep: degrade to a fall-through branch.
			in.Class = isa.Branch
			in.Taken = false
			g.cur = g.nextSequential(idx)
			return in
		}
		in.Taken = true
		in.Target = g.blocks[b.target].start
		g.callStack = append(g.callStack, g.nextSequential(idx))
		g.retPC = append(g.retPC, in.PC+4)
		g.cur = b.target
		return in
	case isa.Return:
		if len(g.callStack) == 0 {
			in.Class = isa.Branch
			in.Taken = false
			g.cur = g.nextSequential(idx)
			return in
		}
		in.Taken = true
		n := len(g.callStack) - 1
		g.cur = g.callStack[n]
		in.Target = g.retPC[n]
		g.callStack = g.callStack[:n]
		g.retPC = g.retPC[:n]
		return in
	}
	// Conditional branch. Loop branches follow a trip counter; others
	// follow their static bias with probability BranchPredictability.
	taken := false
	if b.loopTrips > 0 {
		t := g.trips[idx]
		if t == 0 {
			// Real loop bounds are stable across entries, which is what
			// makes their exits learnable; BranchPredictability controls
			// the occasional data-dependent jitter.
			t = b.loopTrips
			if !g.rnd.Chance(g.pr.predictable) {
				t += g.rnd.Intn(5) - 2
				if t < 1 {
					t = 1
				}
			}
		}
		t--
		g.trips[idx] = t
		taken = t > 0
	} else {
		taken = b.bias
		if !g.rnd.Chance(g.pr.predictable) {
			taken = !taken
		}
	}
	in.Taken = taken
	if taken {
		in.Target = g.blocks[b.target].start
		g.cur = b.target
	} else {
		g.cur = g.nextSequential(idx)
	}
	return in
}

func (g *Synthetic) nextSequential(idx int) int {
	if idx+1 < len(g.blocks) {
		return idx + 1
	}
	return 0
}

// address returns the effective address and size of the next memory
// access: the hot region with probability HotFrac, else the cold region,
// which is walked by strided streams or random accesses with page reuse.
func (g *Synthetic) address() (uint64, uint8) {
	p := &g.p
	if g.rnd.Chance(g.pr.hot) {
		var off uint64
		if g.rnd.Chance(pSeventy) {
			g.hotPtr = (g.hotPtr + 8) % p.HotSet
			off = g.hotPtr
		} else {
			off = g.rnd.Uint64n(p.HotSet)
		}
		return dataBase + (off &^ 7), 8
	}
	var off uint64
	if g.rnd.Chance(g.pr.stride) {
		s := g.rnd.Intn(numStrideStreams)
		g.streamPtr[s] = (g.streamPtr[s] + p.Stride) % p.WorkingSet
		off = g.streamPtr[s]
	} else {
		pages := p.WorkingSet / pageSize
		if pages == 0 {
			pages = 1
		}
		var page uint64
		if g.pageN > 0 && g.rnd.Chance(g.pr.pageLocal) {
			page = g.pageRing[g.rnd.Intn(min(g.pageN, pageRingSize))]
		} else {
			page = g.rnd.Uint64n(pages)
			g.pageRing[g.pageN%pageRingSize] = page
			g.pageN++
		}
		off = page*pageSize + g.rnd.Uint64n(pageSize)
	}
	return coldBase + (off &^ 7), 8
}

// pickBase returns one of the memory base registers.
func (g *Synthetic) pickBase() isa.RegID {
	return isa.RegID(g.rnd.Intn(numBaseRegs))
}

// pickLong returns a long-lived register of the selected bank.
func (g *Synthetic) pickLong(fp bool) isa.RegID {
	if fp {
		return isa.FirstFPReg + isa.RegID(g.rnd.Intn(numLongFP))
	}
	return isa.RegID(numBaseRegs + g.rnd.Intn(numLongInt))
}

// pickSrc chooses a short-lived source register at roughly DepDist
// instructions behind the current point.
func (g *Synthetic) pickSrc(fp bool) isa.RegID {
	d := g.rnd.GeometricP(g.pr.depDist)
	if fp {
		if d > len(g.recentFP) {
			d = len(g.recentFP)
		}
		return g.recentFP[(g.rfPos-d+len(g.recentFP)*2)%len(g.recentFP)]
	}
	if d > len(g.recentInt) {
		d = len(g.recentInt)
	}
	return g.recentInt[(g.riPos-d+len(g.recentInt)*2)%len(g.recentInt)]
}

// setDest assigns a destination register: the scratch register for
// dynamically dead results, occasionally a base or long-lived register,
// otherwise the next short-lived temporary.
func (g *Synthetic) setDest(in *isa.Instruction, fp bool) {
	if g.rnd.Chance(g.pr.dead) {
		in.Dead = true
		if fp {
			in.Dest = isa.FPScratch
		} else {
			in.Dest = isa.IntScratch
		}
		return
	}
	if !fp {
		if g.rnd.Chance(pBaseRewrite) {
			in.Dest = isa.RegID(g.baseRR % numBaseRegs)
			g.baseRR++
			return
		}
		if g.rnd.Chance(pLongRewrite) {
			in.Dest = isa.RegID(numBaseRegs + g.longIntRR%numLongInt)
			g.longIntRR++
			return
		}
		g.nextInt++
		if g.nextInt >= isa.IntScratch {
			g.nextInt = firstShortInt
		}
		in.Dest = g.nextInt
		g.recentInt[g.riPos%len(g.recentInt)] = in.Dest
		g.riPos++
		return
	}
	if g.rnd.Chance(pLongRewrite) {
		in.Dest = isa.FirstFPReg + isa.RegID(g.longFPRR%numLongFP)
		g.longFPRR++
		return
	}
	g.nextFP++
	if g.nextFP >= isa.FPScratch {
		g.nextFP = isa.FirstFPReg + numLongFP
	}
	in.Dest = g.nextFP
	g.recentFP[g.rfPos%len(g.recentFP)] = in.Dest
	g.rfPos++
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
