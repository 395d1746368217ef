package engine

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// Compiled is the closure-compilation backend: every expression becomes a
// native Go closure over a flat int64 register file, and range loops become
// native for loops. No boxed values, no per-operation dispatch beyond one
// indirect call per compiled node. This is the repository's stand-in for the
// standard C the paper's translator emits (§XI.D): like the generated C it
// removes all interpretation overhead from the hot loop, which is where the
// paper's 250× speedup over the Python front end comes from.
//
// Compilation requires a *specialized* program: all string-valued settings
// folded out of expressions (the planner does this by default). String
// values surviving in expressions are reported as errors at construction.
type Compiled struct {
	prog     *plan.Program
	loops    []compiledLoop
	prelude  []compiledStep
	settings map[int]expr.Value // slot -> original value (strings for hosts)
	initInts []slotInit
}

type slotInit struct {
	slot int
	v    int64
}

type intFn func(r []int64) int64

type compiledStep struct {
	check        bool
	slot         int // assign target
	fn           intFn
	statsID      int
	deferredFn   func(r []int64) bool // non-nil for deferred constraints
	temp         bool                 // optimizer temp assignment
	level        int                  // Stats temp-counter index (step depth + 1)
	tempRefs     int64                // temp-slot reads in this step's expression
	tabIdx       int                  // plan table index, -1 for the expression path
	tabOuterSlot int                  // binary-table outer register, -1 for unary
}

// compiledDomain enumerates values against the raw register file.
type compiledDomain interface {
	iterate(r []int64, yield func(int64) bool) bool
}

type rangeDom struct{ start, stop, step intFn }

func (d *rangeDom) span(r []int64) (int64, int64, int64) {
	return d.start(r), d.stop(r), d.step(r)
}

func (d *rangeDom) iterate(r []int64, yield func(int64) bool) bool {
	start, stop, step := d.span(r)
	if step > 0 {
		for v := start; v < stop; v += step {
			if !yield(v) {
				return false
			}
		}
	} else if step < 0 {
		for v := start; v > stop; v += step {
			if !yield(v) {
				return false
			}
		}
	}
	return true
}

type listDom struct{ elems []intFn }

func (d *listDom) iterate(r []int64, yield func(int64) bool) bool {
	for _, e := range d.elems {
		if !yield(e(r)) {
			return false
		}
	}
	return true
}

type condDom struct {
	cond      intFn
	then, els compiledDomain
}

func (d *condDom) iterate(r []int64, yield func(int64) bool) bool {
	if d.cond(r) != 0 {
		return d.then.iterate(r, yield)
	}
	return d.els.iterate(r, yield)
}

type algebraDom struct {
	op   space.SetOp
	l, r compiledDomain
}

func (d *algebraDom) iterate(r []int64, yield func(int64) bool) bool {
	collect := func(cd compiledDomain) []int64 {
		var out []int64
		cd.iterate(r, func(v int64) bool { out = append(out, v); return true })
		return out
	}
	lv := collect(d.l)
	if d.op == space.OpConcat {
		for _, v := range append(lv, collect(d.r)...) {
			if !yield(v) {
				return false
			}
		}
		return true
	}
	rv := collect(d.r)
	// Reuse the reference set algebra by round-tripping through constant
	// domains; correctness over micro-optimization here (algebra domains
	// sit far from the hot innermost loops in practice).
	ref := &space.AlgebraDomain{Op: d.op, L: constList(lv), R: constList(rv)}
	return ref.Iterate(&expr.Env{}, yield)
}

func constList(vals []int64) space.DomainExpr {
	return space.NewIntList(vals...)
}

// hostDom adapts a deferred or closure iterator to the raw register file.
type hostDom struct {
	iter     *space.Iterator
	argSlots []int
	settings map[int]expr.Value
}

func (d *hostDom) iterate(r []int64, yield func(int64) bool) bool {
	args := hostArgs(r, d.argSlots, d.settings)
	switch d.iter.Kind {
	case space.DeferredIter:
		dom := d.iter.Deferred(args)
		if dom == nil {
			return true
		}
		return dom.Iterate(&expr.Env{}, yield)
	case space.ClosureIter:
		done := true
		d.iter.Generator(args, func(v int64) bool {
			if !yield(v) {
				done = false
				return false
			}
			return true
		})
		return done
	}
	panic(fmt.Sprintf("engine: hostDom on %v iterator", d.iter.Kind))
}

// hostArgs boxes the register values of slots for a host callback;
// string settings, which have no register value, pass through as set.
func hostArgs(r []int64, slots []int, settings map[int]expr.Value) []expr.Value {
	args := make([]expr.Value, len(slots))
	for i, s := range slots {
		if v, ok := settings[s]; ok && v.K == expr.Str {
			args[i] = v
		} else {
			args[i] = expr.IntVal(r[s])
		}
	}
	return args
}

// deferredCheck returns a deferred check step's predicate over the
// register file.
func deferredCheck(st *plan.Step, settings map[int]expr.Value) func(r []int64) bool {
	cn, slots := st.Constraint, st.ArgSlots
	return func(r []int64) bool { return cn.Fn(hostArgs(r, slots, settings)) }
}

type compiledLoop struct {
	slot   int
	domain compiledDomain
	steps  []compiledStep
	// fast path: non-nil when the domain is a plain range, letting the
	// enumerator run the loop inline without the domain indirection.
	rng *rangeDom
	// bounds is the compiled narrowing recipe when the plan absorbed
	// leading checks into the range (only ever set alongside rng).
	bounds *compiledBounds
}

// NewCompiled compiles prog; it fails if expressions still contain string
// values (run the planner with folding enabled) or other untranslatable
// nodes.
func NewCompiled(prog *plan.Program) (*Compiled, error) {
	if err := checkProgramStrings(prog); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	c := &Compiled{prog: prog, settings: prog.SettingBySlot()}
	for _, s := range prog.Settings {
		if s.V.K != expr.Str {
			c.initInts = append(c.initInts, slotInit{slot: s.Slot, v: s.V.I})
		}
	}
	var err error
	c.prelude, err = c.compileSteps(prog.Prelude)
	if err != nil {
		return nil, err
	}
	for _, lp := range prog.Loops {
		cl := compiledLoop{slot: lp.Slot}
		if lp.Iter.Kind == space.ExprIter {
			dom, derr := compileDomain(lp.Domain)
			if derr != nil {
				return nil, fmt.Errorf("engine: iterator %s: %w", lp.Iter.Name, derr)
			}
			cl.domain = dom
			if rd, ok := dom.(*rangeDom); ok {
				cl.rng = rd
				if lp.Bounds != nil {
					cl.bounds, err = lowerLoopBounds(lp.Bounds, lp.Slot, compileBound)
					if err != nil {
						return nil, fmt.Errorf("engine: loop %s bounds: %w", lp.Iter.Name, err)
					}
				}
			}
		} else {
			cl.domain = &hostDom{iter: lp.Iter, argSlots: lp.ArgSlots, settings: c.settings}
		}
		cl.steps, err = c.compileSteps(lp.Steps)
		if err != nil {
			return nil, fmt.Errorf("engine: loop %s: %w", lp.Iter.Name, err)
		}
		c.loops = append(c.loops, cl)
	}
	return c, nil
}

func (c *Compiled) compileSteps(steps []plan.Step) ([]compiledStep, error) {
	out := make([]compiledStep, 0, len(steps))
	for i := range steps {
		st := &steps[i]
		cs := compiledStep{
			check: st.Kind == plan.CheckStep, slot: st.Slot, statsID: st.StatsID,
			temp: st.Temp, level: st.Depth + 1, tempRefs: int64(st.TempRefs),
			tabIdx: -1, tabOuterSlot: -1,
		}
		if tab := c.prog.Tab; tab != nil && cs.check {
			if ti, ok := tab.ByStats[st.StatsID]; ok {
				cs.tabIdx = ti
				if t := tab.Tables[ti]; t.Kind == plan.BinaryTable {
					cs.tabOuterSlot = t.OuterSlot
				}
			}
		}
		if cs.check && st.Constraint.Deferred() {
			cs.deferredFn = deferredCheck(st, c.settings)
		} else {
			fn, err := CompileExpr(st.Expr)
			if err != nil {
				return nil, fmt.Errorf("step %s: %w", st.Name, err)
			}
			cs.fn = fn
		}
		out = append(out, cs)
	}
	return out, nil
}

// compileDomain lowers an expression-iterator domain to native enumeration
// over the raw register file. Shared by the Compiled and VM backends (a VM
// reaches non-range domains through host calls, as Lua reaches C).
func compileDomain(d space.DomainExpr) (compiledDomain, error) {
	switch n := d.(type) {
	case *space.RangeDomain:
		start, err := CompileExpr(n.Start)
		if err != nil {
			return nil, err
		}
		stop, err := CompileExpr(n.Stop)
		if err != nil {
			return nil, err
		}
		step, err := CompileExpr(n.Step)
		if err != nil {
			return nil, err
		}
		return &rangeDom{start: start, stop: stop, step: step}, nil
	case *space.ListDomain:
		elems := make([]intFn, len(n.Elems))
		for i, e := range n.Elems {
			fn, err := CompileExpr(e)
			if err != nil {
				return nil, err
			}
			elems[i] = fn
		}
		return &listDom{elems: elems}, nil
	case *space.CondDomain:
		cond, err := CompileExpr(n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := compileDomain(n.Then)
		if err != nil {
			return nil, err
		}
		els, err := compileDomain(n.Else)
		if err != nil {
			return nil, err
		}
		return &condDom{cond: cond, then: then, els: els}, nil
	case *space.AlgebraDomain:
		l, err := compileDomain(n.L)
		if err != nil {
			return nil, err
		}
		r, err := compileDomain(n.R)
		if err != nil {
			return nil, err
		}
		return &algebraDom{op: n.Op, l: l, r: r}, nil
	default:
		return nil, fmt.Errorf("unsupported domain type %T", d)
	}
}

// CompileExpr lowers a bound expression to a closure over the raw register
// file. Booleans are 0/1; string operands are a compile-time error.
func CompileExpr(e expr.Expr) (intFn, error) {
	switch n := e.(type) {
	case *expr.Lit:
		if n.V.K == expr.Str {
			return nil, fmt.Errorf("string literal %s cannot be compiled; specialize the program first", n.V)
		}
		v := n.V.I
		return func([]int64) int64 { return v }, nil
	case *expr.Ref:
		slot := n.Slot
		if slot < 0 {
			return nil, fmt.Errorf("unbound reference %q", n.Name)
		}
		return func(r []int64) int64 { return r[slot] }, nil
	case *expr.Unary:
		x, err := CompileExpr(n.X)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case expr.OpNeg:
			return func(r []int64) int64 { return -x(r) }, nil
		case expr.OpNot:
			return func(r []int64) int64 {
				if x(r) == 0 {
					return 1
				}
				return 0
			}, nil
		}
		return nil, fmt.Errorf("bad unary op %v", n.Op)
	case *expr.Binary:
		l, err := CompileExpr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := CompileExpr(n.R)
		if err != nil {
			return nil, err
		}
		return compileBinary(n.Op, l, r)
	case *expr.Ternary:
		cond, err := CompileExpr(n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := CompileExpr(n.Then)
		if err != nil {
			return nil, err
		}
		els, err := CompileExpr(n.Else)
		if err != nil {
			return nil, err
		}
		return func(r []int64) int64 {
			if cond(r) != 0 {
				return then(r)
			}
			return els(r)
		}, nil
	case *expr.Call:
		args := make([]intFn, len(n.Args))
		for i, a := range n.Args {
			fn, err := CompileExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = fn
		}
		switch n.Fn {
		case "min":
			return func(r []int64) int64 {
				best := args[0](r)
				for _, a := range args[1:] {
					if v := a(r); v < best {
						best = v
					}
				}
				return best
			}, nil
		case "max":
			return func(r []int64) int64 {
				best := args[0](r)
				for _, a := range args[1:] {
					if v := a(r); v > best {
						best = v
					}
				}
				return best
			}, nil
		case "abs":
			return func(r []int64) int64 {
				v := args[0](r)
				if v < 0 {
					return -v
				}
				return v
			}, nil
		}
		return nil, fmt.Errorf("unknown builtin %q", n.Fn)
	case *expr.Table2D:
		row, err := CompileExpr(n.Row)
		if err != nil {
			return nil, err
		}
		col, err := CompileExpr(n.Col)
		if err != nil {
			return nil, err
		}
		data, def := n.Data, n.Default
		return func(r []int64) int64 {
			i, j := row(r), col(r)
			if i < 0 || i >= int64(len(data)) {
				return def
			}
			rw := data[i]
			if j < 0 || j >= int64(len(rw)) {
				return def
			}
			return rw[j]
		}, nil
	default:
		return nil, fmt.Errorf("unsupported expression type %T", e)
	}
}

func compileBinary(op expr.Op, l, r intFn) (intFn, error) {
	switch op {
	case expr.OpAdd:
		return func(reg []int64) int64 { return l(reg) + r(reg) }, nil
	case expr.OpSub:
		return func(reg []int64) int64 { return l(reg) - r(reg) }, nil
	case expr.OpMul:
		return func(reg []int64) int64 { return l(reg) * r(reg) }, nil
	case expr.OpDiv:
		return func(reg []int64) int64 { return expr.FloorDiv(l(reg), r(reg)) }, nil
	case expr.OpMod:
		return func(reg []int64) int64 { return expr.FloorMod(l(reg), r(reg)) }, nil
	case expr.OpEq:
		return func(reg []int64) int64 { return b2i(l(reg) == r(reg)) }, nil
	case expr.OpNe:
		return func(reg []int64) int64 { return b2i(l(reg) != r(reg)) }, nil
	case expr.OpLt:
		return func(reg []int64) int64 { return b2i(l(reg) < r(reg)) }, nil
	case expr.OpLe:
		return func(reg []int64) int64 { return b2i(l(reg) <= r(reg)) }, nil
	case expr.OpGt:
		return func(reg []int64) int64 { return b2i(l(reg) > r(reg)) }, nil
	case expr.OpGe:
		return func(reg []int64) int64 { return b2i(l(reg) >= r(reg)) }, nil
	case expr.OpAnd:
		return func(reg []int64) int64 {
			if v := l(reg); v == 0 {
				return v
			}
			return r(reg)
		}, nil
	case expr.OpOr:
		return func(reg []int64) int64 {
			if v := l(reg); v != 0 {
				return v
			}
			return r(reg)
		}, nil
	default:
		return nil, fmt.Errorf("bad binary op %v", op)
	}
}

// Name implements Engine.
func (c *Compiled) Name() string { return "compiled" }

// Run implements Engine.
func (c *Compiled) Run(opts Options) (*Stats, error) {
	return run(c.prog, c, opts)
}

// RunContext implements Engine.
func (c *Compiled) RunContext(ctx context.Context, opts Options) (*Stats, error) {
	return runContext(ctx, c.prog, c, opts)
}

type compiledState struct {
	c     *Compiled
	reg   []int64
	stats *Stats
	ctl   *runCtl
	out   sink
	chunk *chunker // non-nil when the innermost loop runs chunked
	tabx  *tabExec // non-nil when the plan tabulated constraints
}

func (c *Compiled) newState(opts Options, ctl *runCtl) *compiledState {
	state := &compiledState{
		c:     c,
		reg:   make([]int64, c.prog.NumSlots()),
		stats: NewStats(c.prog),
		ctl:   ctl,
	}
	for _, in := range c.initInts {
		state.reg[in.slot] = in.v
	}
	state.out = newSink(c.prog, opts, ctl, state.stats, state.reg, nil)
	if c.prog.Tab != nil {
		state.tabx = newTabExec(c.prog.Tab)
	}
	if ch := newChunker(c.prog, opts, &state.out, state.tabx); ch != nil {
		state.attachLanes(ch)
	}
	return state
}

func (c *Compiled) runFull(opts Options, ctl *runCtl) (st *Stats, err error) {
	defer recoverRunError(&err)
	state := c.newState(opts, ctl)
	ok, rejected := state.steps(c.prelude)
	if rejected || !ok {
		return state.stats, nil
	}
	if len(c.loops) == 0 {
		state.out.survive()
		return state.stats, nil
	}
	state.loop(0)
	return state.stats, nil
}

// newWorker implements backend: a tile worker over a private register file.
// Prelude assignments run once per worker; prelude checks already passed
// (and were counted) during tiling.
func (c *Compiled) newWorker(opts Options, ctl *runCtl, depth int) (w tileWorker, err error) {
	defer recoverRunError(&err)
	state := c.newState(opts, ctl)
	for i := range c.prelude {
		st := &c.prelude[i]
		if !st.check {
			state.reg[st.slot] = st.fn(state.reg)
		}
	}
	return &compiledWorker{state: state, depth: depth}, nil
}

type compiledWorker struct {
	state *compiledState
	depth int
}

func (w *compiledWorker) stats() *Stats { return w.state.stats }

func (w *compiledWorker) runTile(prefix []int64) (err error) {
	defer recoverRunError(&err)
	s := w.state
	for d, v := range prefix {
		lp := &s.c.loops[d]
		s.reg[lp.slot] = v
		for i := range lp.steps {
			st := &lp.steps[i]
			if !st.check {
				s.reg[st.slot] = st.fn(s.reg)
			}
		}
	}
	if w.depth == len(s.c.loops) {
		s.out.survive()
		return nil
	}
	s.loop(w.depth)
	return nil
}

func (s *compiledState) steps(steps []compiledStep) (ok, rejected bool) {
	for i := range steps {
		st := &steps[i]
		if st.tempRefs > 0 {
			s.stats.TempHits[st.level] += st.tempRefs
		}
		if !st.check {
			s.reg[st.slot] = st.fn(s.reg)
			if st.temp {
				s.stats.TempEvals[st.level]++
			}
			continue
		}
		s.stats.Checks[st.statsID]++
		var kill, tabbed bool
		if st.tabIdx >= 0 && s.tabx != nil {
			var outer int64
			if st.tabOuterSlot >= 0 {
				outer = s.reg[st.tabOuterSlot]
			}
			kill, tabbed = s.tabx.scalarKill(st.tabIdx, s.reg[s.tabx.tab.InnerSlot], outer, s.stats)
		}
		if !tabbed {
			if st.deferredFn != nil {
				kill = st.deferredFn(s.reg)
			} else {
				kill = st.fn(s.reg) != 0
			}
		}
		if kill {
			s.stats.Kills[st.statsID]++
			return true, true
		}
	}
	return true, false
}

func (s *compiledState) body(d int, v int64) bool {
	if s.ctl.cancelled() {
		return false
	}
	lp := &s.c.loops[d]
	s.reg[lp.slot] = v
	s.stats.LoopVisits[d]++
	ok, rejected := s.steps(lp.steps)
	if !ok {
		return false
	}
	if rejected {
		return true
	}
	if d == len(s.c.loops)-1 {
		return s.out.survive()
	}
	return s.loop(d + 1)
}

func (s *compiledState) loop(d int) bool {
	lp := &s.c.loops[d]
	ch := s.chunk
	if ch != nil && d == ch.depth {
		ch.begin()
	} else {
		ch = nil
	}
	if lp.rng != nil {
		start, stop, step := lp.rng.span(s.reg)
		if step > 0 && lp.bounds != nil {
			start, stop = narrowRange(lp.bounds, s.reg, start, stop, step, s.stats, d)
		}
		if ch != nil {
			return ch.pushRange(start, stop, step) && ch.flush()
		}
		if step > 0 {
			for v := start; v < stop; v += step {
				if !s.body(d, v) {
					return false
				}
			}
		} else if step < 0 {
			for v := start; v > stop; v += step {
				if !s.body(d, v) {
					return false
				}
			}
		}
		return true
	}
	if ch != nil {
		return lp.domain.iterate(s.reg, ch.yield) && ch.flush()
	}
	return lp.domain.iterate(s.reg, func(v int64) bool { return s.body(d, v) })
}
