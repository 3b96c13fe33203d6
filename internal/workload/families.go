package workload

import (
	"fmt"
	"math"

	"exysim/internal/isa"
	"exysim/internal/rng"
	"exysim/internal/trace"
)

// Address-space layout for synthetic programs. Code, heap and stack live
// in disjoint regions like a real process image.
const (
	codeBase  = 0x0040_0000
	heapBase  = 0x1000_0000
	stackBase = 0x7ff0_0000
)

// style controls instruction-level characteristics of generated
// straight-line code: class mix, dependence structure, and which memory
// behaviours the loads/stores follow. Every block of a program is built
// in its one style, so the style also owns the program's block slabs and
// the per-site memory streams its loads and stores index.
type style struct {
	memFrac    float64 // fraction of block instructions that touch memory
	storeFrac  float64 // of memory ops, fraction that are stores
	fpFrac     float64 // fraction that are floating-point
	mulFrac    float64 // fraction that are complex ALU (of int ALU ops)
	divFrac    float64 // fraction that are divides (of int ALU ops)
	ilp        int     // number of independent dependence chains (1 = serial)
	serialLoad bool    // loads form an address-dependence chain (pointer chase)
	mems       []memGen
	chainReg   uint8 // register carrying the pointer-chase chain

	sites  []strideMem // per-site clones of stride behaviours in mems
	insts  slab[staticInst]
	blocks slab[blockNode]
	seqs   slab[seqNode]
	loops  slab[loopNode]
	ifs    slab[ifNode]
	fns    slab[function]
	kids   slab[node]
}

// blockOf builds n straight-line instructions in the given style.
func blockOf(r *rng.RNG, n int, st *style) *blockNode {
	if st.ilp < 1 {
		st.ilp = 1
	}
	b := &st.blocks.take(1)[0]
	b.insts = st.insts.take(n)
	// Dependence chains are block-local: the first instruction of each
	// chain initializes its register rather than reading the previous
	// block's value, as in real code where most values are freshly
	// computed per block. One chain is occasionally loop-carried (a
	// reduction), which serializes iterations through it.
	carried := r.Bool(0.35)
	var seen [32]bool
	for i := 0; i < n; i++ {
		chain := uint8(1 + i%st.ilp) // r1..r(ilp) carry chains
		src1 := chain
		if !seen[chain] {
			seen[chain] = true
			if !(carried && chain == 1) {
				src1 = isa.RegNone
			}
		}
		si := staticInst{dst: chain, s1: src1, s2: uint8(9 + r.Intn(16))}
		u := r.Float64()
		switch {
		case u < st.memFrac && len(st.mems) > 0:
			if r.Bool(st.storeFrac) {
				si.class = isa.Store
			} else {
				si.class = isa.Load
			}
			si.size = 8
			m := r.Intn(len(st.mems))
			si.mem = int32(m)
			if sm, ok := st.mems[m].(*strideMem); ok {
				st.sites = append(st.sites, sm.clone(r))
				si.mem = ^int32(len(st.sites) - 1)
			}
			// Loads read an induction register for their address but
			// deposit into a value register outside the loop-carried
			// chain, as real array code does — otherwise every cache
			// miss would serialize the loop. ALU ops pick sources from
			// r9..r24, so load results still feed computation.
			if si.class == isa.Load {
				si.dst = uint8(9 + r.Intn(16))
			} else {
				si.dst = isa.RegNone
				si.s2 = uint8(9 + r.Intn(16)) // stored value
			}
			si.serialized = st.serialLoad && si.class == isa.Load
		case u < st.memFrac+st.fpFrac:
			switch r.Intn(3) {
			case 0:
				si.class = isa.FPMAC
			case 1:
				si.class = isa.FPMUL
			default:
				si.class = isa.FPADD
			}
		default:
			v := r.Float64()
			switch {
			case v < st.divFrac:
				si.class = isa.ALUDiv
			case v < st.divFrac+st.mulFrac:
				si.class = isa.ALUComplex
			case v < st.divFrac+st.mulFrac+0.05:
				si.class = isa.Move
			default:
				si.class = isa.ALUSimple
			}
		}
		b.insts[i] = si
	}
	return b
}

// condMix describes the population of conditional-branch behaviours in a
// family; draw picks one behaviour for a static branch.
type condMix struct {
	easyBias   float64 // strongly biased branches (p in [0.9, 1.0) or (0, 0.1])
	alwaysT    float64 // always-taken conditionals (ZAT/1AT fodder)
	pattern    float64 // short periodic patterns
	correlated float64 // GHIST-correlated at family-specific distances
	hard       float64 // near-50/50 Bernoulli
	corrDist   [2]int  // correlation distance range [lo, hi]

	// detPeriods, when non-nil, makes drawn behaviours fully
	// deterministic: biased/hard draws become periodic patterns with the
	// corresponding bit bias, with periods drawn from this set. Using a
	// divisor-closed set keeps the whole program's branch stream
	// periodic with a bounded period, reproducing the locally-repeating
	// history of real instruction traces — the property that makes long
	// global history profitable for hashed perceptrons (Fig. 1).
	detPeriods []int
	// detFrac is the probability a draw uses the deterministic path
	// when detPeriods is set (1.0 = always).
	detFrac float64
}

func (m *condMix) period(r *rng.RNG) int {
	return m.detPeriods[r.Intn(len(m.detPeriods))]
}

// draw picks a behaviour for a static branch. inLoop marks branches
// whose execution recurrence is tight (inside a loop body): only those
// can carry long-period or long-distance behaviour, because a predictor
// can only exploit context that re-appears within its history window.
// Function-level (non-loop) branches in real code are overwhelmingly
// constant or heavily biased; modelling them that way keeps the noise
// floor where the paper's is.
func (m *condMix) draw(r *rng.RNG, inLoop bool) condGen {
	if !inLoop {
		u := r.Float64()
		switch {
		case u < 0.30:
			return &alwaysCond{taken: true}
		case u < 0.55:
			return &alwaysCond{taken: false}
		case u < 0.62+m.hard:
			// The slice's hard mass lives here: data-dependent
			// branches with weak bias.
			return &biasedCond{p: 0.25 + r.Float64()*0.5}
		case u < 0.80:
			p := 0.99 + r.Float64()*0.0095
			if r.Bool(0.5) {
				p = 1 - p
			}
			return &biasedCond{p: p}
		default:
			return newPatternCondBiased(r, 2+r.Intn(6), 0.5+r.Float64()*0.4)
		}
	}
	if m.detPeriods != nil && r.Bool(m.detFrac) {
		// Polarity flips keep forward branches fall-through-biased
		// about half the time, as in real code.
		pol := func(p float64) float64 {
			if r.Bool(0.5) {
				return 1 - p
			}
			return p
		}
		u := r.Float64()
		period := func() int {
			p := m.period(r)
			if p > 64 {
				p = 2 + p%48 // long phases are unobservable; fold down
			}
			return p
		}
		switch {
		case u < m.alwaysT:
			return &alwaysCond{taken: true}
		case u < m.alwaysT+m.easyBias:
			return newPatternCondBiased(r, period(), pol(0.97))
		case u < m.alwaysT+m.easyBias+m.pattern:
			return newPatternCondBiased(r, period(), pol(0.8))
		case u < m.alwaysT+m.easyBias+m.pattern+m.correlated:
			d := logUniform(r, m.corrDist[0], m.corrDist[1])
			return &corrCond{taps: []int{d}, invert: r.Bool(0.5)}
		default:
			return newPatternCondBiased(r, period(), 0.55)
		}
	}
	u := r.Float64()
	switch {
	case u < m.alwaysT:
		return &alwaysCond{taken: true}
	case u < m.alwaysT+m.easyBias:
		p := 0.98 + r.Float64()*0.0195
		if r.Bool(0.5) {
			p = 1 - p
		}
		return &biasedCond{p: p}
	case u < m.alwaysT+m.easyBias+m.pattern:
		// Short periods every predictor learns once history covers a
		// few recurrences.
		return newPatternCond(r, 2+r.Intn(14))
	case u < m.alwaysT+m.easyBias+m.pattern+m.correlated:
		lo, hi := m.corrDist[0], m.corrDist[1]
		if hi <= lo {
			hi = lo + 1
		}
		// Log-uniform distances: many short-range correlations, a thin
		// tail of long-range ones, which is what produces the
		// diminishing-returns curve of Fig. 1.
		d := logUniform(r, lo, hi)
		taps := []int{d}
		if r.Bool(0.25) && d > 2 {
			// A second tap adjacent to the first so both usually fall
			// in one table's interval (learnable XOR), as in real code
			// where neighbouring outcomes correlate jointly.
			near := d - 1 - r.Intn(min(3, d-1))
			if near >= 1 && near != d {
				taps = append(taps, near)
			}
		}
		return &corrCond{taps: taps, invert: r.Bool(0.5), noise: 0.004}
	case u < m.alwaysT+m.easyBias+m.pattern+m.correlated+m.hard:
		return &biasedCond{p: 0.35 + r.Float64()*0.3}
	default:
		p := 0.97 + r.Float64()*0.025
		if r.Bool(0.5) {
			p = 1 - p
		}
		return &biasedCond{p: p}
	}
}

// hardMass draws a slice's share of near-50/50 branches: most slices
// have almost none, a minority are genuinely hard — producing the
// clipped right-hand tail of Fig. 9.
func hardMass(r *rng.RNG) float64 {
	if r.Bool(0.7) {
		return 0.004
	}
	return 0.02 + r.Float64()*0.12
}

// divisorPeriods returns the divisors (>= 2) of a divisor-rich base no
// larger than maxP. Periods drawn from a divisor-closed set keep the
// joint branch stream's period bounded by the base itself.
func divisorPeriods(maxP int) []int {
	const base = 2 * 2 * 2 * 2 * 3 * 3 * 5 * 7 // 5040, divisor-rich
	var out []int
	for d := 2; d <= maxP; d++ {
		if base%d == 0 {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{2}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// funcShape controls the structured-control-flow synthesis of a function.
type funcShape struct {
	segments    int     // top-level segments in the body
	maxDepth    int     // nesting depth of loops/diamonds
	blockLen    [2]int  // straight-line block length range
	loopProb    float64 // a segment is a loop
	diamondProb float64 // a segment is an if/else
	indProb     float64 // a segment is an indirect switch
	callProb    float64 // a segment is a call to an earlier function
	leafLoops   float64 // probability a loop body is straight-line code
	loopTrip    func(r *rng.RNG) tripGen
	conds       *condMix
	indirect    func(r *rng.RNG) (arms int, sel targetSel)
	style       *style
}

func (sh *funcShape) blockN(r *rng.RNG) int {
	lo, hi := sh.blockLen[0], sh.blockLen[1]
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo)
}

// genBody builds a body of nested structured segments; nested bodies get
// segments/2+1 of their own so total program size stays bounded. inLoop
// marks a body (nested in) a loop body. callees is the pool of
// already-built functions callable from this one; extraFns accumulates
// callee functions synthesized for indirect-call arms.
func (sh *funcShape) genBody(r *rng.RNG, depth, segments int, inLoop bool, callees []*function, extraFns *[]*function) node {
	st := sh.style
	seq := &st.seqs.take(1)[0]
	// Each segment adds a block and at most one structure, and a block
	// closes the body.
	seq.kids = st.kids.take(2*segments + 1)[:0]
	inner := segments/2 + 1
	for s := 0; s < segments; s++ {
		seq.kids = append(seq.kids, blockOf(r, sh.blockN(r), st))
		if depth >= sh.maxDepth {
			continue
		}
		u := r.Float64()
		switch {
		case u < sh.loopProb:
			l := &st.loops.take(1)[0]
			if r.Bool(sh.leafLoops) {
				// Leaf loop: a conditional-free body, so the back-edge
				// executes back-to-back in the branch stream and its
				// history requirement is set by the trip count alone.
				l.body = blockOf(r, sh.blockN(r), st)
			} else {
				l.body = sh.genBody(r, depth+1, inner, true, callees, extraFns)
			}
			l.trip = sh.loopTrip(r)
			seq.kids = append(seq.kids, l)
		case u < sh.loopProb+sh.diamondProb:
			f := &st.ifs.take(1)[0]
			if r.Bool(0.5) {
				f.els = sh.genBody(r, depth+1, inner, inLoop, callees, extraFns)
			}
			f.cond = sh.conds.draw(r, inLoop)
			f.then = sh.genBody(r, depth+1, inner, inLoop, callees, extraFns)
			seq.kids = append(seq.kids, f)
		case u < sh.loopProb+sh.diamondProb+sh.indProb && sh.indirect != nil:
			arms, sel := sh.indirect(r)
			x := &indirectNode{sel: sel, isCall: r.Bool(0.5)}
			if x.isCall {
				x.fnArms = make([]*function, arms)
			} else {
				x.arms = make([]node, arms)
			}
			for a := 0; a < arms; a++ {
				body := blockOf(r, sh.blockN(r), st)
				if x.isCall {
					fn := &st.fns.take(1)[0]
					fn.body = body
					x.fnArms[a] = fn
					*extraFns = append(*extraFns, fn)
				} else {
					x.arms[a] = body
				}
			}
			seq.kids = append(seq.kids, x)
		case u < sh.loopProb+sh.diamondProb+sh.indProb+sh.callProb && len(callees) > 0:
			seq.kids = append(seq.kids, &callNode{fn: callees[r.Intn(len(callees))]})
		}
	}
	seq.kids = append(seq.kids, blockOf(r, sh.blockN(r), st))
	return seq
}

// loopBank builds a kernel function of nloops consecutive leaf loops
// with patterned trip counts in [avgLo, avgHi]. Banks of tens to a few
// hundred concurrently-live loop back-edges are the structure that puts
// a hashed-perceptron predictor into its capacity-limited regime — the
// regime where the paper's generational growth of rows, tables and
// history pays off. One bank dominates a slice's dynamic stream the way
// hot loop nests dominate SPEC.
func loopBank(r *rng.RNG, nloops, avgLo, avgHi int, st *style) *function {
	seq := &seqNode{}
	for i := 0; i < nloops; i++ {
		avg := logUniform(r, avgLo, avgHi)
		seq.kids = append(seq.kids, &loopNode{
			trip: newPatternTrip(r, 2+r.Intn(4), avg/2+1, avg+avg/2+1),
			body: blockOf(r, 2+r.Intn(5), st),
		})
	}
	return &function{body: seq}
}

// genProgram builds numFuncs functions of the given shape plus the driver
// that cycles through numEntries of them plus any bank kernels.
// Indirect-call arm functions are laid out alongside the named functions.
func genProgram(r *rng.RNG, numFuncs, numEntries int, sh *funcShape, banks ...*function) *program {
	funcs := make([]*function, 0, numFuncs)
	var extra []*function
	for i := 0; i < numFuncs; i++ {
		f := &function{body: sh.genBody(r, 0, sh.segments, false, funcs, &extra)}
		funcs = append(funcs, f)
	}
	if numEntries > len(funcs) {
		numEntries = len(funcs)
	}
	entries := append([]*function{}, funcs[len(funcs)-numEntries:]...)
	entries = append(entries, banks...)
	all := append(funcs, banks...)
	return newProgram(codeBase, sh.style, append(all, extra...), entries)
}

// Family is a named generator of related workload slices.
type Family struct {
	// Name of the family, e.g. "specint".
	Name string
	// Suite the family reports under ("spec", "web", "mobile", ...).
	Suite string
	// Gen builds slice idx with the given instruction budget. Slices of
	// one family differ in their drawn parameters but share character.
	Gen func(idx int, budget, warmup int, seed uint64) *trace.Slice
}

func sliceName(fam string, idx int) string { return fmt.Sprintf("%s/%03d", fam, idx) }

// logUniform draws an int in [lo, hi] with log-uniform density.
func logUniform(r *rng.RNG, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	llo, lhi := math.Log(float64(lo)), math.Log(float64(hi))
	v := int(math.Exp(llo + r.Float64()*(lhi-llo)))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// wsBytesFor spreads working sets log-uniformly over [lo, hi].
func wsBytesFor(r *rng.RNG, lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	// log2 interpolation
	lg := func(x uint64) float64 {
		f := 0.0
		for x > 1 {
			x >>= 1
			f++
		}
		return f
	}
	e := lg(lo) + r.Float64()*(lg(hi)-lg(lo))
	return uint64(1) << uint(e)
}

// heapZipf builds a zipf memory behaviour over wsBytes.
func heapZipf(r *rng.RNG, wsBytes uint64, skew float64) memGen {
	lines := int(wsBytes >> 6)
	if lines < 8 {
		lines = 8
	}
	return &zipfMem{base: heapBase + uint64(r.Intn(64))<<20, lines: lines, skew: skew, lineLog: 6}
}

// multiStride builds a stride behaviour with 1-3 components.
func multiStride(r *rng.RNG, wsBytes uint64) memGen {
	comps := 1 + r.Intn(3)
	pat := make([]strideStep, comps)
	for i := range pat {
		st := int64(1 + r.Intn(8))
		if r.Bool(0.15) {
			st = -st
		}
		pat[i] = strideStep{stride: st, count: 1 + r.Intn(4)}
	}
	return &strideMem{
		base:    heapBase + uint64(r.Intn(64))<<20,
		elem:    8,
		pattern: pat,
		wsBytes: wsBytes,
	}
}

// SpecIntFamily models SPECint-like slices: medium branch density with a
// predictability mixture, modest ILP, and mixed heap behaviour. These are
// the "interesting middle" of Fig. 9.
func SpecIntFamily() Family {
	return Family{Name: "specint", Suite: "spec", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+1))
		ws := wsBytesFor(r, 32<<10, 2<<20)
		st := &style{
			memFrac:   0.28,
			storeFrac: 0.30,
			fpFrac:    0.02,
			mulFrac:   0.06,
			divFrac:   0.005,
			ilp:       2 + r.Intn(3),
			mems: []memGen{
				heapZipf(r, ws, 1.0+r.Float64()*0.4),
				multiStride(r, ws),
				&stackMem{base: stackBase, span: 1 << 10},
				&stackMem{base: stackBase + 4096, span: 2 << 10},
			},
		}
		sh := &funcShape{
			segments:    4,
			maxDepth:    3,
			blockLen:    [2]int{3, 9},
			loopProb:    0.42,
			diamondProb: 0.30,
			indProb:     0.04,
			callProb:    0.14,
			leafLoops:   0.55,
			loopTrip: func(r *rng.RNG) tripGen {
				u := r.Float64()
				switch {
				case u < 0.4:
					return &fixedTrip{n: 2 + r.Intn(30)}
				case u < 0.94:
					avg := logUniform(r, 3, 64)
					return newPatternTrip(r, 2+r.Intn(5), avg/2+1, avg+avg/2+1)
				default:
					return &geomTrip{mean: 16 + r.Intn(32), max: 128}
				}
			},
			conds: &condMix{
				easyBias:   0.38,
				alwaysT:    0.12,
				pattern:    0.12,
				correlated: 0.20,
				hard:       hardMass(r),
				corrDist:   [2]int{2, 100},
				detPeriods: divisorPeriods(160),
				detFrac:    0.65,
			},
			indirect: func(r *rng.RNG) (int, targetSel) {
				n := 2 + r.Intn(6)
				return n, &zipfSel{n: n, skew: 1.0}
			},
			style: st,
		}
		bank := loopBank(r, 32+r.Intn(96), 4, 32, st)
		p := genProgram(r, 14+r.Intn(18), 6, sh, bank)
		return buildSlice(sliceName("specint", idx), "spec", p, budget, warmup, r.Fork(7))
	}}
}

// SpecFPFamily models SPECfp-like slices: deep regular loop nests, heavy
// striding, high ILP, very predictable branches. High-IPC fodder capped
// by machine width (Fig. 17's right edge).
func SpecFPFamily() Family {
	return Family{Name: "specfp", Suite: "spec", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x1000))
		ws := wsBytesFor(r, 256<<10, 16<<20)
		st := &style{
			memFrac:   0.24,
			storeFrac: 0.25,
			fpFrac:    0.38,
			mulFrac:   0.03,
			ilp:       4 + r.Intn(5),
			mems: []memGen{
				multiStride(r, ws),
				multiStride(r, ws/2+64),
				&stackMem{base: stackBase, span: 512},
			},
		}
		sh := &funcShape{
			segments:    2,
			maxDepth:    3,
			blockLen:    [2]int{8, 20},
			loopProb:    0.68,
			diamondProb: 0.10,
			callProb:    0.06,
			loopTrip: func(r *rng.RNG) tripGen {
				return &fixedTrip{n: 8 + r.Intn(120)}
			},
			conds: &condMix{
				easyBias: 0.60,
				alwaysT:  0.20,
				pattern:  0.15,
				hard:     0.01,
				corrDist: [2]int{2, 8},
			},
			style: st,
		}
		p := genProgram(r, 3+r.Intn(5), 2, sh)
		return buildSlice(sliceName("specfp", idx), "spec", p, budget, warmup, r.Fork(7))
	}}
}

// WebFamily models browser/JavaScript slices (Speedometer/Octane/BBench/
// SunSpider): very large code footprint that spills the BTBs, frequent
// polymorphic indirect calls with large target counts (§IV-F), hard
// branches, and large irregular data working sets. The web family is what
// the L2BTB growth, vBTB, and the M6 indirect hash respond to.
func WebFamily() Family {
	return Family{Name: "web", Suite: "web", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x2000))
		ws := wsBytesFor(r, 256<<10, 6<<20)
		st := &style{
			memFrac:   0.30,
			storeFrac: 0.35,
			fpFrac:    0.03,
			mulFrac:   0.05,
			ilp:       2 + r.Intn(2),
			mems: []memGen{
				heapZipf(r, ws, 1.1),
				heapZipf(r, ws/4+4096, 0.9),
				&stackMem{base: stackBase, span: 2 << 10},
				&stackMem{base: stackBase + 8192, span: 2 << 10},
			},
		}
		bigTargets := 16 + r.Intn(240) // JavaScript-era fan-out, up to hundreds
		sh := &funcShape{
			segments:    3,
			maxDepth:    2,
			blockLen:    [2]int{2, 7},
			loopProb:    0.26,
			diamondProb: 0.34,
			indProb:     0.12,
			callProb:    0.20,
			leafLoops:   0.5,
			loopTrip: func(r *rng.RNG) tripGen {
				u := r.Float64()
				switch {
				case u < 0.5:
					return &fixedTrip{n: 2 + r.Intn(8)}
				case u < 0.93:
					avg := logUniform(r, 3, 32)
					return newPatternTrip(r, 2+r.Intn(4), avg/2+1, avg+avg/2+1)
				default:
					return &geomTrip{mean: 10 + r.Intn(10), max: 48}
				}
			},
			conds: &condMix{
				easyBias:   0.30,
				alwaysT:    0.10,
				pattern:    0.10,
				correlated: 0.24,
				hard:       hardMass(r),
				corrDist:   [2]int{4, 220},
				detPeriods: divisorPeriods(220),
				detFrac:    0.55,
			},
			indirect: func(r *rng.RNG) (int, targetSel) {
				u := r.Float64()
				switch {
				case u < 0.35:
					// JavaScript-era fan-out: long mostly-deterministic
					// tours over up to hundreds of targets (§IV-F).
					return bigTargets, newMarkovSel(r, bigTargets, 3)
				case u < 0.7:
					n := 6 + r.Intn(26)
					return n, &seqSel{n: n, stride: 1}
				case u < 0.9:
					n := 2 + r.Intn(6)
					return n, &zipfSel{n: n, skew: 1.6}
				default:
					n := 4 + r.Intn(12)
					return n, &zipfSel{n: n, skew: 0.7}
				}
			},
			style: st,
		}
		bank := loopBank(r, 48+r.Intn(112), 3, 16, st)
		p := genProgram(r, 350+r.Intn(400), 16, sh, bank)
		return buildSlice(sliceName("web", idx), "web", p, budget, warmup, r.Fork(7))
	}}
}

// MobileFamily models AnTuTu/Geekbench-style mixed mobile workloads.
func MobileFamily() Family {
	return Family{Name: "mobile", Suite: "mobile", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x3000))
		ws := wsBytesFor(r, 32<<10, 1<<20)
		st := &style{
			memFrac:   0.26,
			storeFrac: 0.32,
			fpFrac:    0.10,
			mulFrac:   0.06,
			divFrac:   0.003,
			ilp:       3 + r.Intn(3),
			mems: []memGen{
				heapZipf(r, ws, 1.2),
				multiStride(r, ws),
				newRegionMem(r, heapBase+512<<20, 48, 2048, 4+r.Intn(8)),
				&stackMem{base: stackBase, span: 2 << 10},
			},
		}
		sh := &funcShape{
			segments:    3,
			maxDepth:    3,
			blockLen:    [2]int{4, 10},
			loopProb:    0.34,
			diamondProb: 0.30,
			indProb:     0.05,
			callProb:    0.15,
			leafLoops:   0.5,
			loopTrip: func(r *rng.RNG) tripGen {
				u := r.Float64()
				switch {
				case u < 0.4:
					return &fixedTrip{n: 2 + r.Intn(40)}
				case u < 0.93:
					avg := logUniform(r, 3, 48)
					return newPatternTrip(r, 2+r.Intn(5), avg/2+1, avg+avg/2+1)
				default:
					return &geomTrip{mean: 12 + r.Intn(16), max: 64}
				}
			},
			conds: &condMix{
				easyBias:   0.42,
				alwaysT:    0.14,
				pattern:    0.12,
				correlated: 0.14,
				hard:       hardMass(r),
				corrDist:   [2]int{2, 110},
				detPeriods: divisorPeriods(160),
				detFrac:    0.65,
			},
			indirect: func(r *rng.RNG) (int, targetSel) {
				n := 2 + r.Intn(8)
				return n, &zipfSel{n: n, skew: 1.2}
			},
			style: st,
		}
		bank := loopBank(r, 24+r.Intn(72), 4, 28, st)
		p := genProgram(r, 16+r.Intn(28), 6, sh, bank)
		return buildSlice(sliceName("mobile", idx), "mobile", p, budget, warmup, r.Fork(7))
	}}
}

// GameFamily models mobile games: FP arithmetic plus pointer-chasing
// scene-graph traversal and streaming asset touches.
func GameFamily() Family {
	return Family{Name: "game", Suite: "game", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x4000))
		ws := wsBytesFor(r, 256<<10, 3<<20)
		nodes := int(ws / 64 / 4)
		if nodes < 64 {
			nodes = 64
		}
		st := &style{
			memFrac:    0.28,
			storeFrac:  0.25,
			fpFrac:     0.22,
			mulFrac:    0.05,
			ilp:        3 + r.Intn(3),
			serialLoad: r.Bool(0.5),
			chainReg:   28,
			mems: []memGen{
				newChaseMem(r, heapBase, nodes, 64),
				multiStride(r, ws),
				&stackMem{base: stackBase, span: 1 << 10},
			},
		}
		sh := &funcShape{
			segments:    3,
			maxDepth:    3,
			blockLen:    [2]int{5, 12},
			loopProb:    0.40,
			diamondProb: 0.26,
			indProb:     0.04,
			callProb:    0.12,
			leafLoops:   0.45,
			loopTrip: func(r *rng.RNG) tripGen {
				if r.Bool(0.82) {
					avg := 4 + r.Intn(36)
					return newPatternTrip(r, 2+r.Intn(4), avg/2+1, avg+avg/2+1)
				}
				return &geomTrip{mean: 16 + r.Intn(24), max: 96}
			},
			conds: &condMix{
				easyBias:   0.40,
				alwaysT:    0.12,
				pattern:    0.10,
				correlated: 0.14,
				hard:       hardMass(r),
				corrDist:   [2]int{2, 72},
				detPeriods: divisorPeriods(120),
				detFrac:    0.55,
			},
			indirect: func(r *rng.RNG) (int, targetSel) {
				n := 3 + r.Intn(6)
				return n, newMarkovSel(r, n, 2)
			},
			style: st,
		}
		bank := loopBank(r, 16+r.Intn(48), 4, 24, st)
		p := genProgram(r, 12+r.Intn(20), 5, sh, bank)
		return buildSlice(sliceName("game", idx), "game", p, budget, warmup, r.Fork(7))
	}}
}

// TightLoopFamily produces tiny predictable kernels that fit entirely in
// the μBTB and UOC: the "lock mode" and FetchMode showcase, and the
// left edge of Fig. 16 (pure DL1 hits showing the 3-cycle cascade).
func TightLoopFamily() Family {
	return Family{Name: "micro.tight", Suite: "micro", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x5000))
		st := &style{
			memFrac:   0.18,
			storeFrac: 0.3,
			mulFrac:   0.02,
			ilp:       5 + r.Intn(4),
			mems: []memGen{
				&stackMem{base: stackBase, span: 4 << 10},
				multiStride(r, 16<<10),
			},
		}
		sh := &funcShape{
			segments:    2,
			maxDepth:    2,
			blockLen:    [2]int{3, 7},
			loopProb:    0.85,
			diamondProb: 0.10,
			loopTrip: func(r *rng.RNG) tripGen {
				return &fixedTrip{n: 16 + r.Intn(200)}
			},
			conds: &condMix{
				easyBias: 0.6,
				alwaysT:  0.25,
				pattern:  0.15,
				corrDist: [2]int{2, 6},
			},
			style: st,
		}
		p := genProgram(r, 1+r.Intn(2), 1, sh)
		return buildSlice(sliceName("micro.tight", idx), "micro", p, budget, warmup, r.Fork(7))
	}}
}

// ChaseFamily is a pure dependent pointer chase over a working set far
// larger than the caches: the low-IPC, high-load-latency extreme that
// §IX's DRAM-latency features and §VIII's standalone prefetcher target.
func ChaseFamily() Family {
	return Family{Name: "micro.chase", Suite: "micro", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x6000))
		ws := wsBytesFor(r, 1<<20, 8<<20)
		nodes := int(ws / 64)
		st := &style{
			memFrac:    0.40,
			storeFrac:  0.05,
			ilp:        1,
			serialLoad: true,
			chainReg:   28,
			mems:       []memGen{newChaseMem(r, heapBase, nodes, 64)},
		}
		sh := &funcShape{
			segments: 1,
			maxDepth: 1,
			blockLen: [2]int{4, 8},
			loopProb: 0.9,
			loopTrip: func(r *rng.RNG) tripGen { return &fixedTrip{n: 64 + r.Intn(400)} },
			conds:    &condMix{easyBias: 0.7, alwaysT: 0.3, corrDist: [2]int{2, 4}},
			style:    st,
		}
		p := genProgram(r, 1, 1, sh)
		return buildSlice(sliceName("micro.chase", idx), "micro", p, budget, warmup, r.Fork(7))
	}}
}

// StreamFamily is pure multi-stride streaming: prefetcher heaven, used to
// demonstrate degree scaling and one-pass/two-pass behaviour.
func StreamFamily() Family {
	return Family{Name: "micro.stream", Suite: "micro", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x7000))
		ws := wsBytesFor(r, 4<<20, 32<<20)
		st := &style{
			memFrac:   0.38,
			storeFrac: 0.15,
			fpFrac:    0.20,
			ilp:       6,
			mems: []memGen{
				multiStride(r, ws),
				multiStride(r, ws),
			},
		}
		sh := &funcShape{
			segments: 1,
			maxDepth: 2,
			blockLen: [2]int{8, 16},
			loopProb: 0.9,
			loopTrip: func(r *rng.RNG) tripGen { return &fixedTrip{n: 128 + r.Intn(512)} },
			conds:    &condMix{easyBias: 0.7, alwaysT: 0.3, corrDist: [2]int{2, 4}},
			style:    st,
		}
		p := genProgram(r, 1+r.Intn(2), 1, sh)
		return buildSlice(sliceName("micro.stream", idx), "micro", p, budget, warmup, r.Fork(7))
	}}
}

// SMSFamily produces spatially clustered irregular accesses: a primary
// load touching a new 2KB region followed by a recurring set of offsets —
// invisible to stride engines, exactly what the SMS prefetcher (§VII-C)
// captures.
func SMSFamily() Family {
	return Family{Name: "micro.sms", Suite: "micro", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x8000))
		regions := 64 + r.Intn(512)
		st := &style{
			memFrac:   0.36,
			storeFrac: 0.10,
			ilp:       3,
			mems: []memGen{
				newRegionMem(r, heapBase, regions, 2048, 6+r.Intn(10)),
			},
		}
		sh := &funcShape{
			segments: 1,
			maxDepth: 2,
			blockLen: [2]int{6, 12},
			loopProb: 0.85,
			loopTrip: func(r *rng.RNG) tripGen { return &fixedTrip{n: 32 + r.Intn(128)} },
			conds:    &condMix{easyBias: 0.6, alwaysT: 0.3, pattern: 0.1, corrDist: [2]int{2, 4}},
			style:    st,
		}
		p := genProgram(r, 1+r.Intn(2), 1, sh)
		return buildSlice(sliceName("micro.sms", idx), "micro", p, budget, warmup, r.Fork(7))
	}}
}

// CBPFamily produces branch-prediction stress traces in the spirit of the
// public CBP-5 set used for Fig. 1: dense conditional branches whose
// outcomes correlate with global history at distances spread up to
// maxDist, with diminishing density at long range so the MPKI-vs-GHIST
// curve shows the paper's diminishing returns.
func CBPFamily(maxDist int) Family {
	return Family{Name: "cbp", Suite: "cbp", Gen: func(idx, budget, warmup int, seed uint64) *trace.Slice {
		r := rng.New(seed ^ rng.Mix64(uint64(idx)+0x9000))
		st := &style{
			memFrac:   0.10,
			storeFrac: 0.3,
			ilp:       3,
			mems:      []memGen{&stackMem{base: stackBase, span: 8 << 10}},
		}
		// Correlation distances: mostly short, a tail of long ones. The
		// filler population is nearly deterministic so the history
		// windows repeat and correlation distance — not ambient noise —
		// is what bounds predictability, as in the CBP traces.
		condFactory := &condMix{
			easyBias:   0.42,
			alwaysT:    0.12,
			pattern:    0.24,
			correlated: 0.20,
			hard:       0.02,
			corrDist:   [2]int{2, maxDist},
			detPeriods: divisorPeriods(maxDist),
			detFrac:    1.0,
		}
		sh := &funcShape{
			segments:    4,
			maxDepth:    2,
			blockLen:    [2]int{1, 4},
			loopProb:    0.50,
			diamondProb: 0.34,
			callProb:    0.06,
			leafLoops:   0.75,
			loopTrip: func(r *rng.RNG) tripGen {
				// Loops cycling through a short list of trip counts:
				// predicting the exit takes global history spanning a
				// couple of trips, so the log-uniform spread of average
				// trips [3, maxDist/3] yields branches whose history
				// requirement sweeps the whole GHIST range — the
				// mechanism behind Fig. 1's diminishing-returns curve.
				avg := logUniform(r, 3, maxDist/3+2)
				return newPatternTrip(r, 2+r.Intn(4), avg/2+1, avg+avg/2+1)
			},
			conds: condFactory,
			style: st,
		}
		bank := loopBank(r, 24+r.Intn(64), 3, maxDist/3+2, st)
		p := genProgram(r, 4+r.Intn(5), 3, sh, bank)
		return buildSlice(sliceName("cbp", idx), "cbp", p, budget, warmup, r.Fork(7))
	}}
}
