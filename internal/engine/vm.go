package engine

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// VM is the bytecode backend: the program compiles to a flat instruction
// stream interpreted by a fetch-decode-dispatch loop over an int64 register
// file and operand stack. Its cost profile — one dispatch per operation,
// unboxed values, Lua-5.1-style dedicated numeric-for opcodes — is the
// stand-in for the Lua backend that earlier BEAST releases used and that
// Figure 18 measures: faster than the boxed tree-walker, slower than
// compiled code.
//
// The Protocol option selects how range loops compile, mirroring the
// figure's syntactic variants:
//
//	ProtoXRange (default) — dedicated FORTEST/FORINCR opcodes (Lua `for`)
//	ProtoWhile            — generic compare + conditional jump per iteration
//	ProtoRepeat           — post-test loop with a hoisted emptiness check
type VM struct {
	prog *plan.Program
}

// NewVM returns a bytecode engine for prog. Compilation happens per worker
// (it is linear in program size and specializes each worker's code to
// resume from a fixed loop-variable prefix).
func NewVM(prog *plan.Program) *VM { return &VM{prog: prog} }

// Name implements Engine.
func (vm *VM) Name() string { return "vm" }

// Run implements Engine.
func (vm *VM) Run(opts Options) (*Stats, error) {
	return runContext(context.Background(), vm.prog, vm, opts)
}

// RunContext implements Engine.
func (vm *VM) RunContext(ctx context.Context, opts Options) (*Stats, error) {
	return runContext(ctx, vm.prog, vm, opts)
}

type opcode uint8

const (
	opHalt  opcode = iota
	opPushC        // push consts[a]
	opLoad         // push reg[a]
	opStore        // reg[a] = pop
	opDup          // duplicate top
	opPop          // drop top
	opAdd          // binary arithmetic: pop r, pop l, push l?r
	opSub
	opMul
	opDiv
	opMod
	opNeg
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opNot
	opMinN // pop a values, push min
	opMaxN // pop a values, push max
	opAbs
	opTable   // pop col, pop row, push tables[a][row][col] or default b
	opJmp     // pc = a
	opJz      // pop; if zero pc = a
	opJnz     // pop; if nonzero pc = a
	opForPrep // pop step->reg[c], stop->reg[b], start->reg[a]
	opForTest // if !(reg[c]>0 ? reg[a]<reg[b] : (reg[c]<0 ? reg[a]>reg[b] : false)) pc = d
	opForIncr // reg[a] += reg[c]; pc = d
	opHostDom // bufs[a] = materialize hostDoms[a]; reg[b] = 0 (cursor)
	opForList // if reg[b] >= len(bufs[a]) pc = d else reg[c] = bufs[a][reg[b]]
	opListInc // reg[b]++; pc = d
	opVisit   // stats.LoopVisits[a]++
	opCheck   // pop; stats.Checks[a]++; if nonzero { stats.Kills[a]++; pc = b }
	opHostChk // stats.Checks[c]++; if deferred[a](reg) { stats.Kills[c]++; pc = b }
	opSurvive // survivor bookkeeping; may halt enumeration
	opLeaf    // leaf(reg[a]): a tiling level's surviving value
	opNarrow  // narrows[a]: tighten the freshly prepped loop range in place
	opTabChk  // tabulated check: test table a's pass bit; stats.Checks[c]++; killed -> pc = b

	// Chunked innermost loop: push the prepped range registers (or a
	// materialized list buffer) into the chunker.
	opChunkRange // chunk-enumerate start reg[a], stop reg[b], step reg[c]
	opChunkList  // chunk-enumerate the values in bufs[a]

	// Lane programs only (see chunk_vm.go): a lane load and the select
	// forms of the short-circuit operators.
	opLane   // push lane[a]
	opAnd    // pop r, l; push l == 0 ? l : r
	opOr     // pop r, l; push l != 0 ? l : r
	opSelect // pop else, then, cond; push cond != 0 ? then : else
)

// binOps pairs each binary opcode with its expression operator.
var binOps = [...]expr.Op{
	opAdd: expr.OpAdd, opSub: expr.OpSub, opMul: expr.OpMul, opDiv: expr.OpDiv, opMod: expr.OpMod,
	opEq: expr.OpEq, opNe: expr.OpNe, opLt: expr.OpLt, opLe: expr.OpLe, opGt: expr.OpGt, opGe: expr.OpGe,
	opAnd: expr.OpAnd, opOr: expr.OpOr,
}

type instr struct {
	op         opcode
	a, b, c, d int32
}

// vmCode is one compiled instruction stream plus its constant and host
// tables.
type vmCode struct {
	ins       []instr
	consts    []int64
	tables    [][][]int64
	hostDoms  []space.IntDomain
	deferred  []func(r []int64) bool
	narrows   []vmNarrow
	nregs     int
	loopSlots []int32 // loop-variable registers in nest order (tile prefixes)
	// lanes holds one lane program per innermost step (nil for tabulated
	// and host checks) when the innermost loop runs chunked.
	lanes [][]instr
}

// vmNarrow is one opNarrow site: which loop registers to tighten and the
// compiled bound groups to tighten them with. The closures run as host
// calls over the register file, the way non-range domains already do.
type vmNarrow struct {
	depth                    int32
	varReg, stopReg, stepReg int32
	cb                       *compiledBounds
}

type vmAssembler struct {
	vm       *VM
	code     *vmCode
	settings map[int]expr.Value
	protocol Protocol
	// temp register bases
	stopT, stepT, posT []int32
	// laneOf is the vector layout while a lane program is being
	// compiled, nil for the scalar stream.
	laneOf []int
	last   int  // deepest level the stream enumerates
	leaf   bool // level last ends in opLeaf instead of the nest below
	err    error
}

// newWorker implements backend: it compiles the worker's instruction
// stream and keeps one register file and operand stack across tiles.
func (vm *VM) newWorker(opts Options, ctl *runCtl, depth int, leaf func(int64)) (tileWorker, error) {
	code, err := vm.compile(opts, depth, leaf != nil)
	if err != nil {
		return nil, err
	}
	x := newVMExec(vm, code, opts, ctl)
	x.leaf = leaf
	return x, nil
}

func (x *vmExec) counters() *Stats { return x.stats }

// runTile implements tileWorker: it pokes the prefix values into the loop
// variable registers and re-executes the stream.
func (x *vmExec) runTile(prefix []int64) (err error) {
	defer recoverRunError(&err)
	for d, v := range prefix {
		x.reg[x.code.loopSlots[d]] = v
	}
	x.stk = x.stk[:0]
	x.run()
	return nil
}

// compile translates the planned program into the stream of a worker at
// prefix depth depth (see backend): the prelude, checked and counted at
// depth 0 and otherwise only its assignments; the assignment steps of the
// prefix levels, whose variables runTile sets before execution; then the
// loop nest from depth inward, or just the survivor bookkeeping when the
// prefix is a complete tuple. A leaf stream enumerates level depth alone
// and ends its body in opLeaf.
func (vm *VM) compile(opts Options, depth int, leaf bool) (*vmCode, error) {
	prog := vm.prog
	n := len(prog.Loops)
	base := int32(prog.NumSlots())
	a := &vmAssembler{
		vm:       vm,
		code:     &vmCode{nregs: prog.NumSlots() + 3*n},
		settings: prog.SettingBySlot(),
		protocol: opts.Protocol,
		stopT:    make([]int32, n),
		stepT:    make([]int32, n),
		posT:     make([]int32, n),
		last:     n - 1,
		leaf:     leaf,
	}
	if leaf {
		a.last = depth
	}
	for d := 0; d < n; d++ {
		a.stopT[d] = base + int32(3*d)
		a.stepT[d] = base + int32(3*d+1)
		a.posT[d] = base + int32(3*d+2)
	}
	a.code.hostDoms = make([]space.IntDomain, n)
	for _, lp := range prog.Loops {
		a.code.loopSlots = append(a.code.loopSlots, int32(lp.Slot))
	}
	// Compile the innermost loop's lane programs when chunking is on and
	// this stream runs that loop.
	if v := prog.Vector; normChunk(opts.ChunkSize) > 1 && v != nil && depth < n {
		tabIdx := tabStepIndex(prog, v.Depth)
		steps := prog.Loops[v.Depth].Steps
		a.code.lanes = make([][]instr, len(steps))
		for i := range steps {
			if st := &steps[i]; tabIdx[i] < 0 && !(st.Kind == plan.CheckStep && st.Constraint.Deferred()) {
				a.code.lanes[i] = a.laneProgram(st.Expr)
			}
		}
	}
	// Setting initialization is done by the executor from the program
	// directly.
	for _, st := range prog.Prelude {
		if depth == 0 {
			a.emitStepToHalt(st)
		} else {
			a.emitAssign(st)
		}
	}
	for d := 0; d < depth; d++ {
		for _, st := range prog.Loops[d].Steps {
			a.emitAssign(st)
		}
	}
	if depth == n {
		a.emit(instr{op: opSurvive})
	} else {
		a.emitLoop(depth)
	}
	a.emit(instr{op: opHalt})
	if a.err != nil {
		return nil, a.err
	}
	return a.code, nil
}

// emitAssign compiles a replayed assignment step; a replayed check emits
// nothing, since the level that built the prefix already applied it.
func (a *vmAssembler) emitAssign(st plan.Step) {
	if st.Kind == plan.AssignStep {
		a.emitExpr(st.Expr)
		a.emit(instr{op: opStore, a: int32(st.Slot)})
	}
}

func (a *vmAssembler) emit(in instr) int32 {
	a.code.ins = append(a.code.ins, in)
	return int32(len(a.code.ins) - 1)
}

func (a *vmAssembler) here() int32 { return int32(len(a.code.ins)) }

func (a *vmAssembler) patch(at int32, target int32) {
	in := &a.code.ins[at]
	switch in.op {
	case opJmp, opJz, opJnz:
		in.a = target
	case opForTest, opForIncr, opForList, opListInc:
		in.d = target
	case opCheck, opHostChk, opTabChk:
		in.b = target
	default:
		a.fail(fmt.Errorf("vm: cannot patch op %d", in.op))
	}
}

func (a *vmAssembler) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

func (a *vmAssembler) constIdx(v int64) int32 {
	for i, c := range a.code.consts {
		if c == v {
			return int32(i)
		}
	}
	a.code.consts = append(a.code.consts, v)
	return int32(len(a.code.consts) - 1)
}

// laneProgram compiles e into a jump-free lane program: refs to
// lane-resident slots load lanes, and and/or/ternary become selects.
func (a *vmAssembler) laneProgram(e expr.Expr) []instr {
	scalar := a.code.ins
	a.code.ins, a.laneOf = nil, a.vm.prog.Vector.LaneOf
	a.emitExpr(e)
	prog := a.code.ins
	a.code.ins, a.laneOf = scalar, nil
	return prog
}

// emitExpr compiles e, leaving its value on the stack.
func (a *vmAssembler) emitExpr(e expr.Expr) {
	switch n := e.(type) {
	case *expr.Lit:
		a.emit(instr{op: opPushC, a: a.constIdx(n.V.I)})
	case *expr.Ref:
		if a.laneOf != nil && a.laneOf[n.Slot] >= 0 {
			a.emit(instr{op: opLane, a: int32(a.laneOf[n.Slot])})
			return
		}
		a.emit(instr{op: opLoad, a: int32(n.Slot)})
	case *expr.Unary:
		a.emitExpr(n.X)
		if n.Op == expr.OpNeg {
			a.emit(instr{op: opNeg})
		} else {
			a.emit(instr{op: opNot})
		}
	case *expr.Binary:
		a.emitBinary(n)
	case *expr.Ternary:
		a.emitExpr(n.Cond)
		if a.laneOf != nil {
			a.emitExpr(n.Then)
			a.emitExpr(n.Else)
			a.emit(instr{op: opSelect})
			return
		}
		jz := a.emit(instr{op: opJz})
		a.emitExpr(n.Then)
		jend := a.emit(instr{op: opJmp})
		a.patch(jz, a.here())
		a.emitExpr(n.Else)
		a.patch(jend, a.here())
	case *expr.Call:
		for _, arg := range n.Args {
			a.emitExpr(arg)
		}
		switch n.Fn {
		case "min":
			a.emit(instr{op: opMinN, a: int32(len(n.Args))})
		case "max":
			a.emit(instr{op: opMaxN, a: int32(len(n.Args))})
		case "abs":
			a.emit(instr{op: opAbs})
		default:
			a.fail(fmt.Errorf("vm: unknown builtin %q", n.Fn))
		}
	case *expr.Table2D:
		a.emitExpr(n.Row)
		a.emitExpr(n.Col)
		a.code.tables = append(a.code.tables, n.Data)
		a.emit(instr{op: opTable, a: int32(len(a.code.tables) - 1), b: int32(n.Default)})
	default:
		a.fail(fmt.Errorf("vm: unsupported expression type %T", e))
	}
}

func (a *vmAssembler) emitBinary(n *expr.Binary) {
	if a.laneOf == nil && (n.Op == expr.OpAnd || n.Op == expr.OpOr) {
		// Short-circuit with a jump; lane programs use the select forms.
		jump := opJz
		if n.Op == expr.OpOr {
			jump = opJnz
		}
		a.emitExpr(n.L)
		a.emit(instr{op: opDup})
		j := a.emit(instr{op: jump})
		a.emit(instr{op: opPop})
		a.emitExpr(n.R)
		a.patch(j, a.here())
		return
	}
	a.emitExpr(n.L)
	a.emitExpr(n.R)
	for op, eop := range binOps {
		if eop == n.Op && n.Op != expr.OpInvalid {
			a.emit(instr{op: opcode(op)})
			return
		}
	}
	a.fail(fmt.Errorf("vm: bad binary op %v", n.Op))
}

// emitStep compiles one loop-body step; a rejecting check jumps to
// killTarget (patched later via the returned patch list). It returns the
// instruction index to patch, or -1.
func (a *vmAssembler) emitStep(st plan.Step, _ int32) int32 {
	if st.Kind == plan.AssignStep {
		a.emitAssign(st)
		return -1
	}
	if st.Constraint.Deferred() {
		a.code.deferred = append(a.code.deferred, deferredCheck(&st, a.settings))
		return a.emit(instr{op: opHostChk, a: int32(len(a.code.deferred) - 1), c: int32(st.StatsID)})
	}
	// Tabulated checks test a single precomputed pass bit instead of
	// evaluating the expression.
	if tab := a.vm.prog.Tab; tab != nil {
		if ti, ok := tab.ByStats[st.StatsID]; ok {
			return a.emit(instr{op: opTabChk, a: int32(ti), c: int32(st.StatsID)})
		}
	}
	a.emitExpr(st.Expr)
	return a.emit(instr{op: opCheck, a: int32(st.StatsID)})
}

// emitStepToHalt compiles a prelude step whose rejection halts the program.
func (a *vmAssembler) emitStepToHalt(st plan.Step) {
	at := a.emitStep(st, -1)
	if at < 0 {
		return
	}
	j := a.emit(instr{op: opJmp}) // taken on pass: skip the halt
	halt := a.emit(instr{op: opHalt})
	a.patch(at, halt)
	a.patch(j, a.here())
}

// emitLoop compiles the loop nest at depth d.
func (a *vmAssembler) emitLoop(d int) {
	prog := a.vm.prog
	lp := prog.Loops[d]
	varReg := int32(lp.Slot)
	rangeDomain, _ := lp.Domain.(*space.RangeDomain) // nil for host iterators
	// A chunked innermost loop pushes its values into the chunker,
	// which runs the body through the lane programs. The loop protocol is
	// intentionally ignored here, exactly as in the other backends: the
	// protocols model per-iteration control shapes that chunking
	// replaces, and they are property-tested to leave every counter
	// unchanged.
	chunked := a.code.lanes != nil && d == len(prog.Loops)-1

	// Body emission shared by all loop forms: visits, steps (kills jump to
	// the loop continue point), inner nest or survivor.
	emitBody := func() (killPatches []int32) {
		a.emit(instr{op: opVisit, a: int32(d)})
		for _, st := range lp.Steps {
			if at := a.emitStep(st, -1); at >= 0 {
				killPatches = append(killPatches, at)
			}
		}
		switch {
		case d < a.last:
			a.emitLoop(d + 1)
		case a.leaf:
			a.emit(instr{op: opLeaf, a: varReg})
		default:
			a.emit(instr{op: opSurvive})
		}
		return killPatches
	}

	if rangeDomain == nil {
		// List-driven loop: materialize via host, then cursor iteration.
		if lp.Iter.Kind != space.ExprIter {
			a.code.hostDoms[d] = &hostDom{iter: lp.Iter, argSlots: lp.ArgSlots, settings: a.settings}
		} else {
			dom, err := space.CompileDomain(lp.Domain)
			if err != nil {
				a.fail(fmt.Errorf("vm: iterator %s: %w", lp.Iter.Name, err))
				return
			}
			a.code.hostDoms[d] = dom
		}
		a.emit(instr{op: opHostDom, a: int32(d), b: a.posT[d]})
		if chunked {
			a.emit(instr{op: opChunkList, a: int32(d)})
			return
		}
		test := a.emit(instr{op: opForList, a: int32(d), b: a.posT[d], c: varReg})
		kills := emitBody()
		cont := a.here()
		inc := a.emit(instr{op: opListInc, b: a.posT[d]})
		a.patch(inc, test)
		a.patch(test, a.here())
		for _, at := range kills {
			a.patch(at, cont)
		}
		return
	}

	// Range-driven loop, per protocol.
	a.emitExpr(rangeDomain.Start)
	a.emitExpr(rangeDomain.Stop)
	a.emitExpr(rangeDomain.Step)
	a.emit(instr{op: opForPrep, a: varReg, b: a.stopT[d], c: a.stepT[d]})
	if lp.Bounds != nil {
		cb, err := lowerLoopBounds(lp.Bounds, lp.Slot, compileBound)
		if err != nil {
			a.fail(fmt.Errorf("vm: loop %s bounds: %w", lp.Iter.Name, err))
			return
		}
		a.code.narrows = append(a.code.narrows, vmNarrow{
			depth: int32(d), varReg: varReg, stopReg: a.stopT[d], stepReg: a.stepT[d], cb: cb,
		})
		a.emit(instr{op: opNarrow, a: int32(len(a.code.narrows) - 1)})
	}
	if chunked {
		a.emit(instr{op: opChunkRange, a: varReg, b: a.stopT[d], c: a.stepT[d]})
		return
	}

	stepLit, stepIsLit := rangeDomain.Step.(*expr.Lit)
	switch a.protocol {
	case ProtoWhile:
		// Generic pre-test loop: compare, conditional jump, body, jump back.
		var test int32
		if stepIsLit && stepLit.V.I != 0 {
			top := a.here()
			a.emit(instr{op: opLoad, a: varReg})
			a.emit(instr{op: opLoad, a: a.stopT[d]})
			if stepLit.V.I > 0 {
				a.emit(instr{op: opLt})
			} else {
				a.emit(instr{op: opGt})
			}
			test = a.emit(instr{op: opJz})
			kills := emitBody()
			cont := a.here()
			a.emit(instr{op: opLoad, a: varReg})
			a.emit(instr{op: opLoad, a: a.stepT[d]})
			a.emit(instr{op: opAdd})
			a.emit(instr{op: opStore, a: varReg})
			back := a.emit(instr{op: opJmp})
			a.patch(back, top)
			a.patch(test, a.here())
			for _, at := range kills {
				a.patch(at, cont)
			}
			return
		}
		// Dynamic step sign: fall back to the dedicated test opcode but
		// keep the generic increment sequence (the while shape).
		top := a.here()
		test = a.emit(instr{op: opForTest, a: varReg, b: a.stopT[d], c: a.stepT[d]})
		kills := emitBody()
		cont := a.here()
		a.emit(instr{op: opLoad, a: varReg})
		a.emit(instr{op: opLoad, a: a.stepT[d]})
		a.emit(instr{op: opAdd})
		a.emit(instr{op: opStore, a: varReg})
		back := a.emit(instr{op: opJmp})
		a.patch(back, top)
		a.patch(test, a.here())
		for _, at := range kills {
			a.patch(at, cont)
		}
	case ProtoRepeat:
		// Post-test loop with a hoisted emptiness check.
		head := a.emit(instr{op: opForTest, a: varReg, b: a.stopT[d], c: a.stepT[d]})
		top := a.here()
		kills := emitBody()
		cont := a.here()
		inc := a.emit(instr{op: opForIncr, a: varReg, c: a.stepT[d]})
		// repeat-until: after increment, test; if still in range, loop.
		test := a.emit(instr{op: opForTest, a: varReg, b: a.stopT[d], c: a.stepT[d]})
		back := a.emit(instr{op: opJmp})
		a.patch(back, top)
		exit := a.here()
		a.patch(head, exit)
		a.patch(test, exit)
		// opForIncr carries its own jump target; aim it at the test.
		a.code.ins[inc].d = int32(test)
		for _, at := range kills {
			a.patch(at, cont)
		}
	default: // ProtoXRange / ProtoDefault / ProtoRange: dedicated numeric for.
		top := a.here()
		test := a.emit(instr{op: opForTest, a: varReg, b: a.stopT[d], c: a.stepT[d]})
		kills := emitBody()
		cont := a.here()
		inc := a.emit(instr{op: opForIncr, a: varReg, c: a.stepT[d]})
		a.patch(inc, top)
		a.patch(test, a.here())
		for _, at := range kills {
			a.patch(at, cont)
		}
	}
}

// vmExec is one worker's execution session: the register file, operand
// stack, and scratch buffers live across tiles so the worker re-executes
// its stream without reallocating.
type vmExec struct {
	vm    *VM
	code  *vmCode
	reg   []int64
	bufs  [][]int64 // per-depth values of a list-driven loop
	stk   []int64
	stats *Stats
	ctl   *runCtl
	out   sink
	chunk *chunker    // non-nil when code.lanes is
	tabx  *tabExec    // non-nil when the plan tabulated constraints
	leaf  func(int64) // non-nil on a tiling level (see backend)
	// collect appends to bufs[d] for each list-driven depth d, bound
	// once so materializing a domain does not allocate on every entry.
	collect []func(int64) bool
}

func newVMExec(vm *VM, code *vmCode, opts Options, ctl *runCtl) *vmExec {
	x := &vmExec{
		vm:    vm,
		code:  code,
		reg:   make([]int64, code.nregs),
		bufs:  make([][]int64, len(code.hostDoms)),
		stk:   make([]int64, 0, 64),
		stats: NewStats(vm.prog),
		ctl:   ctl,
	}
	x.collect = make([]func(int64) bool, len(code.hostDoms))
	for d, dom := range code.hostDoms {
		if dom != nil {
			x.collect[d] = func(v int64) bool { x.bufs[d] = append(x.bufs[d], v); return true }
		}
	}
	for _, s := range vm.prog.IntSettings() {
		x.reg[s.Slot] = s.V.I
	}
	x.out = newSink(vm.prog, opts, ctl, x.stats, x.reg, nil)
	if vm.prog.Tab != nil {
		x.tabx = newTabExec(vm.prog.Tab)
	}
	if code.lanes != nil {
		x.attachLanes(newChunker(vm.prog, opts, &x.out, x.tabx))
	}
	return x
}

// run interprets the bytecode.
func (x *vmExec) run() {
	code, stats := x.code, x.stats
	reg, bufs := x.reg, x.bufs
	stk := x.stk
	defer func() { x.stk = stk }()
	ins := code.ins
	pc := int32(0)
	for {
		in := &ins[pc]
		pc++
		switch in.op {
		case opHalt:
			return
		case opPushC:
			stk = append(stk, code.consts[in.a])
		case opLoad:
			stk = append(stk, reg[in.a])
		case opStore:
			reg[in.a] = stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case opDup:
			stk = append(stk, stk[len(stk)-1])
		case opPop:
			stk = stk[:len(stk)-1]
		case opAdd:
			stk[len(stk)-2] += stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case opSub:
			stk[len(stk)-2] -= stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case opMul:
			stk[len(stk)-2] *= stk[len(stk)-1]
			stk = stk[:len(stk)-1]
		case opDiv:
			stk[len(stk)-2] = expr.FloorDiv(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opMod:
			stk[len(stk)-2] = expr.FloorMod(stk[len(stk)-2], stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opNeg:
			stk[len(stk)-1] = -stk[len(stk)-1]
		case opEq:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] == stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opNe:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] != stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opLt:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] < stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opLe:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] <= stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opGt:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] > stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opGe:
			stk[len(stk)-2] = b2i(stk[len(stk)-2] >= stk[len(stk)-1])
			stk = stk[:len(stk)-1]
		case opNot:
			stk[len(stk)-1] = b2i(stk[len(stk)-1] == 0)
		case opMinN:
			n := int(in.a)
			best := stk[len(stk)-n]
			for _, v := range stk[len(stk)-n+1:] {
				if v < best {
					best = v
				}
			}
			stk = stk[:len(stk)-n+1]
			stk[len(stk)-1] = best
		case opMaxN:
			n := int(in.a)
			best := stk[len(stk)-n]
			for _, v := range stk[len(stk)-n+1:] {
				if v > best {
					best = v
				}
			}
			stk = stk[:len(stk)-n+1]
			stk[len(stk)-1] = best
		case opAbs:
			if stk[len(stk)-1] < 0 {
				stk[len(stk)-1] = -stk[len(stk)-1]
			}
		case opTable:
			col := stk[len(stk)-1]
			row := stk[len(stk)-2]
			stk = stk[:len(stk)-1]
			data := code.tables[in.a]
			v := int64(in.b)
			if row >= 0 && row < int64(len(data)) {
				r := data[row]
				if col >= 0 && col < int64(len(r)) {
					v = r[col]
				}
			}
			stk[len(stk)-1] = v
		case opJmp:
			pc = in.a
		case opJz:
			v := stk[len(stk)-1]
			stk = stk[:len(stk)-1]
			if v == 0 {
				pc = in.a
			}
		case opJnz:
			v := stk[len(stk)-1]
			stk = stk[:len(stk)-1]
			if v != 0 {
				pc = in.a
			}
		case opForPrep:
			reg[in.c] = stk[len(stk)-1] // step
			reg[in.b] = stk[len(stk)-2] // stop
			reg[in.a] = stk[len(stk)-3] // start
			stk = stk[:len(stk)-3]
		case opForTest:
			v, stop, step := reg[in.a], reg[in.b], reg[in.c]
			ok := (step > 0 && v < stop) || (step < 0 && v > stop)
			if !ok {
				pc = in.d
			}
		case opForIncr:
			reg[in.a] += reg[in.c]
			pc = in.d
		case opHostDom:
			bufs[in.a] = bufs[in.a][:0]
			code.hostDoms[in.a].Iterate(reg, x.collect[in.a])
			reg[in.b] = 0
		case opForList:
			pos := reg[in.b]
			buf := bufs[in.a]
			if pos >= int64(len(buf)) {
				pc = in.d
			} else {
				reg[in.c] = buf[pos]
			}
		case opListInc:
			reg[in.b]++
			pc = in.d
		case opVisit:
			if x.ctl.cancelled() {
				return
			}
			stats.LoopVisits[in.a]++
		case opCheck:
			v := stk[len(stk)-1]
			stk = stk[:len(stk)-1]
			stats.Checks[in.a]++
			if v != 0 {
				stats.Kills[in.a]++
				pc = in.b
			}
		case opHostChk:
			stats.Checks[in.c]++
			if code.deferred[in.a](reg) {
				stats.Kills[in.c]++
				pc = in.b
			}
		case opTabChk:
			tx := x.tabx
			t := tx.tab.Tables[in.a]
			var outer int64
			if t.Kind == plan.BinaryTable {
				outer = reg[t.OuterSlot]
			}
			stats.Checks[in.c]++
			if tx.scalarKill(int(in.a), reg[tx.tab.InnerSlot], outer, stats) {
				stats.Kills[in.c]++
				pc = in.b
			}
		case opNarrow:
			nw := &code.narrows[in.a]
			if step := reg[nw.stepReg]; step > 0 {
				lo, hi := narrowRange(nw.cb, reg, reg[nw.varReg], reg[nw.stopReg], step, stats, int(nw.depth))
				reg[nw.varReg], reg[nw.stopReg] = lo, hi
			}
		case opSurvive:
			if !x.out.survive() {
				return
			}
		case opLeaf:
			x.leaf(reg[in.a])
		case opChunkRange:
			ch := x.chunk
			if !ch.pushRange(reg[in.a], reg[in.b], reg[in.c]) || !ch.flush() {
				return
			}
		case opChunkList:
			ch := x.chunk
			for _, v := range bufs[in.a] {
				if !ch.push(v) {
					return
				}
			}
			if !ch.flush() {
				return
			}
		default:
			panic(fmt.Sprintf("vm: bad opcode %d at pc %d", in.op, pc-1))
		}
	}
}
