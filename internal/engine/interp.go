package engine

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// Interp is the tree-walking interpreter backend, the stand-in for the
// paper's Python front end. It reproduces CPython's cost model deliberately:
//
//   - every value is boxed (expr.Value);
//   - every variable access is an associative-array lookup keyed by name —
//     §XI.B attributes Python's loop overhead to exactly this ("Python's
//     access to variables is through associative array lookup; there is one
//     array per lexical scope");
//   - every operator application dispatches on the node type and unboxes
//     its operands, as CPython's eval loop does per opcode;
//   - under ProtoWhile even the loop condition and increment run through
//     this machinery, and under ProtoRange the whole iteration list is
//     materialized first, reproducing the Figure 17 variants.
//
// The compiled backends read the same plan.Program; only the evaluation
// strategy differs, which is what the paper's Figures 17–19 isolate.
type Interp struct {
	prog *plan.Program
}

// NewInterp returns an interpreter for prog.
func NewInterp(prog *plan.Program) *Interp { return &Interp{prog: prog} }

// Name implements Engine.
func (in *Interp) Name() string { return "interp" }

// Run implements Engine.
func (in *Interp) Run(opts Options) (*Stats, error) {
	return runContext(context.Background(), in.prog, in, opts)
}

// RunContext implements Engine.
func (in *Interp) RunContext(ctx context.Context, opts Options) (*Stats, error) {
	return runContext(ctx, in.prog, in, opts)
}

// ienv is the interpreter's associative environment: one flat name->value
// table, as in a Python lexical scope.
type ienv map[string]expr.Value

// evalMap walks the expression tree against the associative environment.
// This duplicates expr.Expr.Eval on purpose: the slot-based Eval is the
// specialized path the compiled backends build on, while this walker is the
// dynamic-language cost model. A planned expression holds no string, so
// every operand unboxes to its integer payload.
func evalMap(e expr.Expr, env ienv) expr.Value {
	switch n := e.(type) {
	case *expr.Lit:
		return n.V
	case *expr.Ref:
		v, ok := env[n.Name]
		if !ok {
			panic(fmt.Sprintf("interp: NameError: %q is not defined", n.Name))
		}
		return v
	case *expr.Unary:
		v := evalMap(n.X, env)
		if n.Op == expr.OpNot {
			return expr.BoolVal(!v.Truthy())
		}
		return expr.IntVal(-v.I)
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			l := evalMap(n.L, env)
			if !l.Truthy() {
				return l
			}
			return evalMap(n.R, env)
		case expr.OpOr:
			l := evalMap(n.L, env)
			if l.Truthy() {
				return l
			}
			return evalMap(n.R, env)
		}
		l, r := evalMap(n.L, env), evalMap(n.R, env)
		return applyBinary(n.Op, l.I, r.I)
	case *expr.Ternary:
		if evalMap(n.Cond, env).Truthy() {
			return evalMap(n.Then, env)
		}
		return evalMap(n.Else, env)
	case *expr.Call:
		switch n.Fn {
		case "min", "max":
			best := evalMap(n.Args[0], env).I
			for _, a := range n.Args[1:] {
				v := evalMap(a, env).I
				if (n.Fn == "min" && v < best) || (n.Fn == "max" && v > best) {
					best = v
				}
			}
			return expr.IntVal(best)
		case "abs":
			v := evalMap(n.Args[0], env).I
			if v < 0 {
				v = -v
			}
			return expr.IntVal(v)
		}
		panic(fmt.Sprintf("interp: unknown builtin %q", n.Fn))
	case *expr.Table2D:
		row, col := evalMap(n.Row, env).I, evalMap(n.Col, env).I
		if row < 0 || row >= int64(len(n.Data)) {
			return expr.IntVal(n.Default)
		}
		r := n.Data[row]
		if col < 0 || col >= int64(len(r)) {
			return expr.IntVal(n.Default)
		}
		return expr.IntVal(r[col])
	default:
		panic(fmt.Sprintf("interp: unsupported expression type %T", e))
	}
}

func applyBinary(op expr.Op, l, r int64) expr.Value {
	switch op {
	case expr.OpEq:
		return expr.BoolVal(l == r)
	case expr.OpNe:
		return expr.BoolVal(l != r)
	case expr.OpLt:
		return expr.BoolVal(l < r)
	case expr.OpLe:
		return expr.BoolVal(l <= r)
	case expr.OpGt:
		return expr.BoolVal(l > r)
	case expr.OpGe:
		return expr.BoolVal(l >= r)
	case expr.OpAdd:
		return expr.IntVal(l + r)
	case expr.OpSub:
		return expr.IntVal(l - r)
	case expr.OpMul:
		return expr.IntVal(l * r)
	case expr.OpDiv:
		return expr.IntVal(expr.FloorDiv(l, r))
	case expr.OpMod:
		return expr.IntVal(expr.FloorMod(l, r))
	}
	panic(fmt.Sprintf("interp: bad binary op %v", op))
}

// iterateMap enumerates a domain against the associative environment.
func iterateMap(d space.DomainExpr, env ienv, yield func(int64) bool) bool {
	switch n := d.(type) {
	case *space.RangeDomain:
		start, stop, step, ok := spanMap(n, env)
		if !ok {
			return true
		}
		if step > 0 {
			for v := start; v < stop; v += step {
				if !yield(v) {
					return false
				}
			}
		} else {
			for v := start; v > stop; v += step {
				if !yield(v) {
					return false
				}
			}
		}
		return true
	case *space.ListDomain:
		for _, e := range n.Elems {
			if !yield(evalMap(e, env).I) {
				return false
			}
		}
		return true
	case *space.CondDomain:
		if evalMap(n.Cond, env).Truthy() {
			return iterateMap(n.Then, env, yield)
		}
		return iterateMap(n.Else, env, yield)
	case *space.AlgebraDomain:
		var vals []int64
		collect := func(d space.DomainExpr) []int64 {
			var out []int64
			iterateMap(d, env, func(v int64) bool { out = append(out, v); return true })
			return out
		}
		lv, rv := collect(n.L), collect(n.R)
		ref := &space.AlgebraDomain{Op: n.Op, L: space.NewIntList(lv...), R: space.NewIntList(rv...)}
		ref.Iterate(&expr.Env{}, func(v int64) bool { vals = append(vals, v); return true })
		for _, v := range vals {
			if !yield(v) {
				return false
			}
		}
		return true
	default:
		panic(fmt.Sprintf("interp: unsupported domain type %T", d))
	}
}

func spanMap(r *space.RangeDomain, env ienv) (start, stop, step int64, ok bool) {
	s, e, st := evalMap(r.Start, env).I, evalMap(r.Stop, env).I, evalMap(r.Step, env).I
	if st == 0 {
		return 0, 0, 0, false
	}
	return s, e, st, true
}

// interpState is one worker of the interpreter: the associative
// environment, private Stats and scratch it keeps across tiles.
type interpState struct {
	in     *Interp
	env    ienv
	stats  *Stats
	opts   Options
	ctl    *runCtl
	out    sink
	depth  int         // prefix depth the worker resumes below
	last   int         // deepest level it enumerates
	leaf   func(int64) // non-nil on a tiling level (see backend)
	chunk  *chunker    // non-nil when the innermost loop runs chunked
	tabx   *tabExec    // non-nil when the plan tabulated constraints
	tabIdx [][]int     // per-depth step → table index (-1 expression path)

	// Per-depth narrowing bounds, lowered once to closures over env, and
	// the register file their probes read trial values from; both nil
	// when no loop narrows.
	bounds []*compiledBounds
	breg   []int64

	// Reused scratch, so the hot loop stops allocating: per-depth body
	// callbacks, deferred-call argument values, per-depth ProtoRange
	// value lists, per-depth iterator-argument buffers, and per-depth
	// ProtoWhile control trees.
	bodies     []func(int64) bool
	argBuf     []expr.Value
	rangeBuf   [][]int64
	iterArgBuf [][]expr.Value
	whileCtl   []whileControl
}

// whileControl caches the expression trees ProtoWhile drives a range
// loop with; building them once per depth instead of once per loop entry
// removes the interpreter's main allocation churn.
type whileControl struct {
	stopName, stepName   string
	ltCond, gtCond, incr expr.Expr
}

// newWorker implements backend.
func (in *Interp) newWorker(opts Options, ctl *runCtl, depth int, leaf func(int64)) (tileWorker, error) {
	prog := in.prog
	n := len(prog.Loops)
	env := make(ienv, prog.NumSlots()+8)
	for _, s := range prog.Settings {
		env[s.Name] = s.V
	}
	st := &interpState{
		in:         in,
		env:        env,
		stats:      NewStats(prog),
		opts:       opts,
		ctl:        ctl,
		depth:      depth,
		last:       n - 1,
		leaf:       leaf,
		bodies:     make([]func(int64) bool, n),
		rangeBuf:   make([][]int64, n),
		iterArgBuf: make([][]expr.Value, n),
		whileCtl:   make([]whileControl, n),
	}
	st.out = newSink(prog, opts, ctl, st.stats, nil, env)
	for d, lp := range prog.Loops {
		st.bodies[d] = func(v int64) bool { return st.body(d, v) }
		if lp.Bounds != nil {
			if st.bounds == nil {
				st.bounds, st.breg = make([]*compiledBounds, n), make([]int64, prog.NumSlots())
			}
			eval := func(e expr.Expr) expr.Value { return evalMap(e, env) }
			name := lp.Iter.Name
			bind := func(v int64) { env[name] = expr.IntVal(v) }
			st.bounds[d], _ = lowerLoopBounds(lp.Bounds, lp.Slot, boxedBounds(eval, bind, lp.Slot)) // boxed lowering never fails
		}
	}
	if prog.Tab != nil {
		st.tabx = newTabExec(prog.Tab)
		st.tabIdx = make([][]int, n)
		for d := range prog.Loops {
			st.tabIdx[d] = tabStepIndex(prog, d)
		}
	}
	if leaf != nil {
		st.last = depth
	}
	if ch := newChunker(prog, opts, &st.out, st.tabx); ch != nil {
		st.attachLanes(ch)
	}
	return st, nil
}

// deferredArgs fills the shared argument scratch with the named
// environment values. Valid until the next deferred call; host
// predicates receive it for the duration of one call only.
func (s *interpState) deferredArgs(deps []string) []expr.Value {
	if cap(s.argBuf) < len(deps) {
		s.argBuf = make([]expr.Value, len(deps))
	}
	args := s.argBuf[:len(deps)]
	for i, dep := range deps {
		args[i] = s.env[dep]
	}
	return args
}

// iterArgs fills depth d's iterator-argument buffer (per depth, because
// a closure iterator may keep reading it while inner loops run).
func (s *interpState) iterArgs(d int, lp *plan.Loop) []expr.Value {
	deps := lp.Iter.DeclaredDeps
	if cap(s.iterArgBuf[d]) < len(deps) {
		s.iterArgBuf[d] = make([]expr.Value, len(deps))
	}
	args := s.iterArgBuf[d][:len(deps)]
	for i, dep := range deps {
		args[i] = s.env[dep]
	}
	return args
}

func (s *interpState) counters() *Stats { return s.stats }

// runTile implements tileWorker.
func (s *interpState) runTile(prefix []int64) (err error) {
	defer recoverRunError(&err)
	prog := s.in.prog
	if s.depth > 0 {
		s.replay(prog.Prelude)
	} else if !s.steps(prog.Prelude, nil) {
		return nil
	}
	for d, v := range prefix {
		lp := prog.Loops[d]
		s.env[lp.Iter.Name] = expr.IntVal(v)
		s.replay(lp.Steps)
	}
	if s.depth == len(prog.Loops) {
		s.out.survive()
		return nil
	}
	s.loop(s.depth)
	return nil
}

// replay runs the assignments of an already-checked step list, uncounted.
func (s *interpState) replay(steps []plan.Step) {
	for i := range steps {
		if st := &steps[i]; st.Kind == plan.AssignStep {
			s.env[st.Name] = evalMap(st.Expr, s.env)
		}
	}
}

// steps executes a step list, counted; it reports whether every check
// passed. tabIdx maps each step to its plan table (-1 = expression path,
// nil = no tables at this depth), precomputed so the hot loop never
// consults the ByStats map.
func (s *interpState) steps(steps []plan.Step, tabIdx []int) bool {
	for i := range steps {
		st := &steps[i]
		if st.Kind == plan.AssignStep {
			s.env[st.Name] = evalMap(st.Expr, s.env)
			continue
		}
		s.stats.Checks[st.StatsID]++
		var kill bool
		switch {
		case tabIdx != nil && tabIdx[i] >= 0:
			ti := tabIdx[i]
			t := s.tabx.tab.Tables[ti]
			var outer int64
			if t.Kind == plan.BinaryTable {
				outer = s.env[t.OuterName].I
			}
			kill = s.tabx.scalarKill(ti, s.env[s.tabx.tab.InnerName].I, outer, s.stats)
		case st.Constraint.Deferred():
			kill = st.Constraint.Fn(s.deferredArgs(st.Constraint.DeclaredDeps))
		default:
			kill = evalMap(st.Expr, s.env).Truthy()
		}
		if kill {
			s.stats.Kills[st.StatsID]++
			return false
		}
	}
	return true
}

// body binds value v at depth d, runs the hoisted steps, and recurses.
// It reports whether to continue iterating at depth d.
func (s *interpState) body(d int, v int64) bool {
	if s.ctl.cancelled() {
		return false
	}
	lp := s.in.prog.Loops[d]
	s.env[lp.Iter.Name] = expr.IntVal(v)
	s.stats.LoopVisits[d]++
	var tabIdx []int
	if s.tabIdx != nil {
		tabIdx = s.tabIdx[d]
	}
	if !s.steps(lp.Steps, tabIdx) {
		return true // pruned: next value at this depth
	}
	if d == s.last {
		if s.leaf != nil {
			s.leaf(v)
			return true
		}
		return s.out.survive()
	}
	return s.loop(d + 1)
}

// loop enumerates depth d; it reports whether to continue. A chunked
// innermost loop ignores the protocol, as in every backend: the
// protocols model per-iteration control that chunking replaces, and
// they are property-tested to leave every counter unchanged.
func (s *interpState) loop(d int) bool {
	if ch := s.chunk; ch != nil && d == ch.depth {
		return s.each(d, ch.yield) && ch.flush()
	}
	if r, isRange := s.in.prog.Loops[d].Domain.(*space.RangeDomain); isRange {
		switch s.opts.Protocol {
		case ProtoWhile:
			return s.loopWhile(d, r)
		case ProtoRange:
			return s.loopRange(d, r)
		}
	}
	return s.each(d, s.bodies[d])
}

// each enumerates depth d's domain into yield: a host iterator, a range
// evaluated and narrowed once, then streamed (Figure 17's `xrange`
// variant, where loop control lives inside the interpreter runtime but
// the body still pays associative access), or any other domain.
func (s *interpState) each(d int, yield func(int64) bool) bool {
	lp := s.in.prog.Loops[d]
	switch lp.Iter.Kind {
	case space.DeferredIter:
		dom := lp.Iter.Deferred(s.iterArgs(d, lp))
		return dom == nil || dom.Iterate(&expr.Env{}, yield)
	case space.ClosureIter:
		done := true
		lp.Iter.Generator(s.iterArgs(d, lp), func(v int64) bool {
			done = yield(v)
			return done
		})
		return done
	}
	r, isRange := lp.Domain.(*space.RangeDomain)
	if !isRange {
		return iterateMap(lp.Domain, s.env, yield)
	}
	start, stop, step, ok := s.span(d, r)
	if !ok {
		return true
	}
	if step > 0 {
		for v := start; v < stop; v += step {
			if !yield(v) {
				return false
			}
		}
	} else {
		for v := start; v > stop; v += step {
			if !yield(v) {
				return false
			}
		}
	}
	return true
}

// span evaluates range loop d's bounds and tightens an ascending range
// through the loop's compiled bounds before any protocol machinery runs.
// Descending and dynamic-step loops are never narrowed (the plan only
// attaches Bounds to provably ascending ranges, but the runtime re-checks
// the sign it actually evaluated).
func (s *interpState) span(d int, r *space.RangeDomain) (start, stop, step int64, ok bool) {
	start, stop, step, ok = spanMap(r, s.env)
	if ok && step > 0 && s.bounds != nil && s.bounds[d] != nil {
		start, stop = narrowRange(s.bounds[d], s.breg, start, stop, step, s.stats, d)
	}
	return start, stop, step, ok
}

// loopWhile evaluates the loop condition and increment as expression trees
// every iteration — Figure 17's `while` variant, the slowest Python form
// because all loop control (compare, add, both name lookups) goes through
// the interpreted environment.
func (s *interpState) loopWhile(d int, r *space.RangeDomain) bool {
	start, stop, step, ok := s.span(d, r)
	if !ok {
		return true
	}
	name := s.in.prog.Loops[d].Iter.Name
	ctl := &s.whileCtl[d]
	if ctl.incr == nil {
		ctl.stopName, ctl.stepName = name+"$stop", name+"$step"
		varRef := expr.NewRef(name)
		ctl.ltCond = expr.Lt(varRef, expr.NewRef(ctl.stopName))
		ctl.gtCond = expr.Gt(varRef, expr.NewRef(ctl.stopName))
		ctl.incr = expr.Add(varRef, expr.NewRef(ctl.stepName))
	}
	s.env[name] = expr.IntVal(start)
	s.env[ctl.stopName] = expr.IntVal(stop)
	s.env[ctl.stepName] = expr.IntVal(step)
	cond := ctl.ltCond
	if step < 0 {
		cond = ctl.gtCond
	}
	incr := ctl.incr
	for evalMap(cond, s.env).Truthy() {
		v := s.env[name].I
		if !s.body(d, v) {
			return false
		}
		s.env[name] = expr.IntVal(v)
		s.env[name] = evalMap(incr, s.env)
	}
	return true
}

// loopRange materializes the full value list first — Figure 17's `range`
// variant, which pays an allocation proportional to the iteration count.
func (s *interpState) loopRange(d int, r *space.RangeDomain) bool {
	start, stop, step, ok := s.span(d, r)
	if !ok {
		return true
	}
	vals := s.rangeBuf[d][:0]
	if step > 0 {
		for v := start; v < stop; v += step {
			vals = append(vals, v)
		}
	} else {
		for v := start; v > stop; v += step {
			vals = append(vals, v)
		}
	}
	s.rangeBuf[d] = vals // keep the grown capacity for the next entry
	for _, v := range vals {
		if !s.body(d, v) {
			return false
		}
	}
	return true
}
