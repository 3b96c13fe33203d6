// Package workload synthesizes the deterministic instruction traces that
// stand in for the paper's proprietary suite of 4,026 SimPoint slices
// (§II: SPEC CPU2000/2006, Speedometer, Octane, BBench, SunSpider, AnTuTu,
// Geekbench, mobile games). Each synthetic family sweeps the behavioural
// axes that differentiate those suites — branch predictability, code and
// data working-set size, indirect-target fan-out, memory access patterns,
// and instruction-level parallelism — so that population figures keep
// their published shapes even though the absolute traces differ.
//
// Traces are produced by building a small structured program (loops,
// if/else diamonds, calls, indirect switches) and then interpreting it,
// which guarantees the control-flow consistency a front-end model needs:
// repeated PCs, coherent targets, balanced calls/returns.
package workload

import (
	"exysim/internal/isa"
	"exysim/internal/rng"
	"exysim/internal/trace"
)

// node is one structured-control-flow element of a synthetic program.
// Layout assigns PCs; emit interprets the node, appending dynamic
// instructions to the context.
type node interface {
	// layout assigns program counters starting at pc and returns the
	// first unused pc.
	layout(pc uint64) uint64
	// emit appends one dynamic execution of the node.
	emit(ctx *emitCtx)
}

// emitCtx carries interpreter state during trace emission.
type emitCtx struct {
	out    []isa.Inst
	budget int
	r      *rng.RNG
	st     *style // the program's style: memory behaviours, chain register

	// hist is a ring of recent conditional-branch outcomes so that
	// history-correlated branch behaviours (the CBP-like families) can
	// look back a configurable distance.
	hist    [1024]bool
	histPos int

	// retStack tracks pending return addresses for call/ret emission.
	retStack []uint64

	// recentInt/recentFP hold recently written registers, used to bias
	// source-operand selection toward real dependence chains.
	recentInt [8]uint8
	recentFP  [8]uint8
	riPos     int
	rfPos     int
}

func (ctx *emitCtx) full() bool { return len(ctx.out) >= ctx.budget }

func (ctx *emitCtx) pushHist(taken bool) {
	ctx.hist[ctx.histPos&1023] = taken
	ctx.histPos++
}

// histAt returns the conditional outcome d branches ago (d >= 1);
// false before enough history exists.
func (ctx *emitCtx) histAt(d int) bool {
	if d <= 0 || d > ctx.histPos || d > len(ctx.hist) {
		return false
	}
	return ctx.hist[(ctx.histPos-d)&1023]
}

func (ctx *emitCtx) noteWrite(class isa.Class, reg uint8) {
	if reg == isa.RegNone {
		return
	}
	if class.IsFP() {
		ctx.recentFP[ctx.rfPos&7] = reg
		ctx.rfPos++
	} else {
		ctx.recentInt[ctx.riPos&7] = reg
		ctx.riPos++
	}
}

func (ctx *emitCtx) push(in isa.Inst) {
	if ctx.full() {
		return
	}
	ctx.out = append(ctx.out, in)
	ctx.noteWrite(in.Class, in.Dst)
}

// staticInst is one laid-out non-control instruction. Memory operands are
// regenerated at every dynamic execution by the mem behaviour. It holds
// no pointers, so the slabs of a program's static code are never scanned
// by the garbage collector.
type staticInst struct {
	pc          uint64
	mem         int32 // Load/Store only: index into style.mems, or ^index into style.sites
	class       isa.Class
	dst, s1, s2 uint8
	size        uint8
	serialized  bool // pointer chase: address source and result are style.chainReg
}

// slab carves small slices out of shared chunks, so a program's many
// tiny nodes cost a handful of allocations instead of one each. A carved
// slice stays valid because a chunk is abandoned when it runs out, never
// grown. Chunks double from 32 to 1024 elements, so a small program
// pays for small chunks.
type slab[T any] struct {
	free  []T
	chunk int
}

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, 32), 1024)
		s.free = make([]T, max(n, s.chunk))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// blockNode is straight-line code.
type blockNode struct {
	insts []staticInst
}

func (b *blockNode) layout(pc uint64) uint64 {
	for i := range b.insts {
		b.insts[i].pc = pc
		pc += isa.InstBytes
	}
	return pc
}

func (b *blockNode) emit(ctx *emitCtx) {
	st := ctx.st
	for i := range b.insts {
		if ctx.full() {
			return
		}
		si := &b.insts[i]
		in := isa.Inst{
			PC:    si.pc,
			Class: si.class,
			Dst:   si.dst,
			Src1:  si.s1,
			Src2:  si.s2,
		}
		if si.class.IsMem() {
			if si.mem >= 0 {
				in.Addr = st.mems[si.mem].next(ctx)
			} else {
				in.Addr = st.sites[^si.mem].next(ctx)
			}
			in.Size = si.size
			if si.serialized {
				// Pointer chase: this load's address comes from the
				// previous load's result, and its result feeds the next.
				in.Dst, in.Src1 = st.chainReg, st.chainReg
			}
		}
		ctx.push(in)
	}
}

// seqNode runs children in order.
type seqNode struct {
	kids []node
}

func (s *seqNode) layout(pc uint64) uint64 {
	for _, k := range s.kids {
		pc = k.layout(pc)
	}
	return pc
}

func (s *seqNode) emit(ctx *emitCtx) {
	for _, k := range s.kids {
		if ctx.full() {
			return
		}
		k.emit(ctx)
	}
}

// loopNode emits its body trip-count times. The layout places a
// conditional back-edge branch after the body; the branch is taken on
// every iteration except the last.
type loopNode struct {
	trip tripGen
	body node
	brPC uint64
	top  uint64
}

func (l *loopNode) layout(pc uint64) uint64 {
	l.top = pc
	pc = l.body.layout(pc)
	l.brPC = pc
	return pc + isa.InstBytes
}

func (l *loopNode) emit(ctx *emitCtx) {
	n := l.trip.next(ctx)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if ctx.full() {
			return
		}
		l.body.emit(ctx)
		taken := i+1 < n
		ctx.pushHist(taken)
		ctx.push(isa.Inst{
			PC:     l.brPC,
			Class:  isa.Branch,
			Branch: isa.BranchCond,
			Taken:  taken,
			Target: l.top,
		})
	}
}

// ifNode is a two-arm diamond. A taken condition branch jumps to the else
// arm (or past the then arm when else is nil).
type ifNode struct {
	cond     condGen
	then     node
	els      node // may be nil
	condPC   uint64
	jmpPC    uint64 // unconditional jump over else; only if els != nil
	elsePC   uint64
	endPC    uint64
	hasJmp   bool
	takenTgt uint64
}

func (f *ifNode) layout(pc uint64) uint64 {
	f.condPC = pc
	pc += isa.InstBytes
	pc = f.then.layout(pc)
	if f.els != nil {
		f.hasJmp = true
		f.jmpPC = pc
		pc += isa.InstBytes
		f.elsePC = pc
		pc = f.els.layout(pc)
	}
	f.endPC = pc
	if f.els != nil {
		f.takenTgt = f.elsePC
	} else {
		f.takenTgt = f.endPC
	}
	return pc
}

func (f *ifNode) emit(ctx *emitCtx) {
	taken := f.cond.next(ctx)
	ctx.pushHist(taken)
	ctx.push(isa.Inst{
		PC:     f.condPC,
		Class:  isa.Branch,
		Branch: isa.BranchCond,
		Taken:  taken,
		Target: f.takenTgt,
	})
	if ctx.full() {
		return
	}
	if taken {
		if f.els != nil {
			f.els.emit(ctx)
		}
		return
	}
	f.then.emit(ctx)
	if f.hasJmp {
		ctx.push(isa.Inst{
			PC:     f.jmpPC,
			Class:  isa.Branch,
			Branch: isa.BranchUncond,
			Taken:  true,
			Target: f.endPC,
		})
	}
}

// callNode emits a direct call into fn, fn's body, and the matching
// return.
type callNode struct {
	fn     *function
	callPC uint64
}

func (c *callNode) layout(pc uint64) uint64 {
	c.callPC = pc
	return pc + isa.InstBytes
}

func (c *callNode) emit(ctx *emitCtx) {
	ctx.push(isa.Inst{
		PC:     c.callPC,
		Class:  isa.Branch,
		Branch: isa.BranchCall,
		Taken:  true,
		Target: c.fn.entry,
	})
	if ctx.full() {
		return
	}
	ctx.retStack = append(ctx.retStack, c.callPC+isa.InstBytes)
	c.fn.emitBody(ctx)
	ctx.retStack = ctx.retStack[:len(ctx.retStack)-1]
}

// indirectNode is an n-way computed transfer. In jump flavour (a switch)
// the arms are laid out inline and each falls out to the common join with
// an unconditional jump. In call flavour (virtual dispatch) each arm is a
// real function laid out elsewhere; the indirect call pushes a return
// address and the callee returns to the instruction after the call, so
// calls and returns stay balanced for the RAS.
type indirectNode struct {
	sel    targetSel
	arms   []node // inline arms (jump flavour)
	indPC  uint64
	armPCs []uint64
	jmpPCs []uint64
	endPC  uint64
	isCall bool
	fnArms []*function // function arms (call flavour)
}

func (x *indirectNode) layout(pc uint64) uint64 {
	x.indPC = pc
	pc += isa.InstBytes
	if x.isCall {
		// Callee functions are laid out with the rest of the program.
		x.endPC = pc
		return pc
	}
	x.armPCs = make([]uint64, len(x.arms))
	x.jmpPCs = make([]uint64, len(x.arms))
	for i, a := range x.arms {
		x.armPCs[i] = pc
		pc = a.layout(pc)
		x.jmpPCs[i] = pc
		pc += isa.InstBytes
	}
	x.endPC = pc
	return pc
}

func (x *indirectNode) emit(ctx *emitCtx) {
	if x.isCall {
		i := x.sel.next(ctx)
		if i < 0 || i >= len(x.fnArms) {
			i = 0
		}
		fn := x.fnArms[i]
		ctx.push(isa.Inst{
			PC:     x.indPC,
			Class:  isa.Branch,
			Branch: isa.BranchIndCall,
			Taken:  true,
			Target: fn.entry,
		})
		if ctx.full() {
			return
		}
		ctx.retStack = append(ctx.retStack, x.indPC+isa.InstBytes)
		fn.emitBody(ctx)
		ctx.retStack = ctx.retStack[:len(ctx.retStack)-1]
		return
	}
	i := x.sel.next(ctx)
	if i < 0 || i >= len(x.arms) {
		i = 0
	}
	ctx.push(isa.Inst{
		PC:     x.indPC,
		Class:  isa.Branch,
		Branch: isa.BranchIndirect,
		Taken:  true,
		Target: x.armPCs[i],
	})
	if ctx.full() {
		return
	}
	x.arms[i].emit(ctx)
	ctx.push(isa.Inst{
		PC:     x.jmpPCs[i],
		Class:  isa.Branch,
		Branch: isa.BranchUncond,
		Taken:  true,
		Target: x.endPC,
	})
}

// function is a callable body ending in a return instruction.
type function struct {
	body  node
	entry uint64
	retPC uint64
}

func (f *function) layout(pc uint64) uint64 {
	f.entry = pc
	pc = f.body.layout(pc)
	f.retPC = pc
	return pc + isa.InstBytes
}

func (f *function) emitBody(ctx *emitCtx) {
	f.body.emit(ctx)
	ret := isa.Inst{
		PC:     f.retPC,
		Class:  isa.Branch,
		Branch: isa.BranchReturn,
		Taken:  true,
	}
	if n := len(ctx.retStack); n > 0 {
		ret.Target = ctx.retStack[n-1]
	} else {
		ret.Target = f.retPC + isa.InstBytes
	}
	ctx.push(ret)
}

// program is a complete synthetic program: a set of functions plus a
// top-level driver that repeatedly calls entry functions until the
// dynamic budget is reached.
type program struct {
	funcs   []*function
	top     []*callNode
	topLoop uint64 // pc of the driver's backward branch
	base    uint64
	st      *style // the style every block of the program was built in
}

// newProgram lays out the functions and a driver loop starting at base.
func newProgram(base uint64, st *style, funcs []*function, entries []*function) *program {
	p := &program{funcs: funcs, base: base, st: st}
	pc := base
	// Driver: call sites for each entry, then an always-taken backward
	// branch to the first call site.
	p.top = make([]*callNode, len(entries))
	for i, f := range entries {
		p.top[i] = &callNode{fn: f}
		pc = p.top[i].layout(pc)
	}
	p.topLoop = pc
	pc += isa.InstBytes
	for _, f := range funcs {
		pc = f.layout(pc)
	}
	return p
}

// generate interprets the program until budget dynamic instructions are
// produced, returning the trace.
func (p *program) generate(budget int, r *rng.RNG) []isa.Inst {
	ctx := &emitCtx{
		out:    make([]isa.Inst, 0, budget+64),
		budget: budget,
		r:      r,
		st:     p.st,
	}
	for !ctx.full() {
		for _, c := range p.top {
			if ctx.full() {
				break
			}
			c.emit(ctx)
		}
		ctx.push(isa.Inst{
			PC:     p.topLoop,
			Class:  isa.Branch,
			Branch: isa.BranchUncond,
			Taken:  true,
			Target: p.base,
		})
	}
	// Trim to exact budget while keeping control-flow consistency: cut
	// at the final emitted instruction (the stream simply ends there).
	if len(ctx.out) > budget {
		ctx.out = ctx.out[:budget]
	}
	return ctx.out
}

// buildSlice wraps generation with standard metadata.
func buildSlice(name, suite string, p *program, budget, warmup int, r *rng.RNG) *trace.Slice {
	return &trace.Slice{
		Name:   name,
		Suite:  suite,
		Warmup: warmup,
		Insts:  p.generate(budget, r),
	}
}
