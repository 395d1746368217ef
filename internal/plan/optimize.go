// Plan-time expression optimizer: common-subexpression elimination,
// subexpression-level loop-invariant code motion, and algebraic
// simplification over the placed steps of a Program.
//
// The paper's hoisting moves whole constraints to the outermost loop at
// which their variables are bound; this pass applies the same idea one
// level down, to the subexpressions *inside* constraints and derived
// variables. Identical subtrees that occur more than once — or once, but
// at a shallower natural depth than the step that contains them — are
// computed a single time into a synthetic temp slot ("$t0", "$t1", ...)
// assigned at the outermost loop level at which all of their free
// variables are bound, provided no check step, and no loop an absorbed
// equality pins to one value, sits between that level and the use:
// pruning in between would make the hoisted evaluation run on iterations
// the original never saw (hoistSafe). Every engine executes temp
// assignments as ordinary AssignSteps, and both code generators emit them
// as hoisted locals, so the optimization is visible in generated C/Go
// exactly as the paper's translator burns setting specialization into its
// output.
//
// Soundness rests on two properties of the value model (DESIGN.md):
// integer arithmetic is total (floor division and modulo return 0 on a
// zero divisor), and a planned expression holds no string (place folds
// every string away and rejects what does not fold), so no evaluation can
// raise a type error and eager evaluation of every temp is panic-free.
// The Int/Bool kind distinction is unobservable (both coerce through
// Truthy/AsInt/Equal/Compare identically), so simplifications may freely
// trade one for the other.
//
// Temps are created only at strict positions — places that are evaluated
// unconditionally whenever their step runs. The right operand of and/or
// and the branches of a ternary are conditional: hoisting them would
// evaluate code the original program might skip, which is harmless for
// pure total expressions but would distort the evaluation-count
// statistics the ablation measures. Options.DisableCSE skips the whole
// pass.
package plan

import (
	"fmt"

	"repro/internal/expr"
)

// optimize rewrites prog's step expressions in place, appending synthetic
// temp assignments to the prelude and loop bodies and recording them in
// prog.Temps. Survivor sets and per-constraint kill counts are unchanged.
func optimize(prog *Program) {
	o := &optimizer{
		prog:        prog,
		depthBySlot: make(map[int]int),
		canon:       NewCanon(),
		depthMemo:   make(map[expr.Expr]int),
		count:       make(map[string]int),
		temps:       make(map[string]*expr.Ref),
		tempSlots:   make(map[int]bool),
		inserts:     make(map[int]map[int][]Step),
		appends:     make(map[int][]Step),
	}
	o.run()
}

type optimizer struct {
	prog *Program

	// depthBySlot maps every environment slot to the loop depth at which
	// its value is bound: -1 for settings and prelude assigns, d for loop
	// variables and loop-body assigns at depth d.
	depthBySlot map[int]int

	canon     *Canon
	depthMemo map[expr.Expr]int

	// count tallies occurrences of each canonical key across all step
	// expressions (after simplification).
	count map[string]int

	// temps maps a canonical key to the shared Ref of its temp.
	temps     map[string]*expr.Ref
	tempSlots map[int]bool
	nextTemp  int

	// Placement buffers: inserts[depth][i] holds temp steps to insert
	// before original step i of that depth; appends[depth] holds temps
	// created from deeper steps, placed after all original steps.
	inserts map[int]map[int][]Step
	appends map[int][]Step

	curDepth, curIdx int
}

// eachStep visits every step in definition-before-use order: prelude
// first, then each loop body outermost to innermost, steps in body order.
func (o *optimizer) eachStep(fn func(depth, idx int, st *Step)) {
	for i := range o.prog.Prelude {
		fn(-1, i, &o.prog.Prelude[i])
	}
	for d, lp := range o.prog.Loops {
		for i := range lp.Steps {
			fn(d, i, &lp.Steps[i])
		}
	}
}

func (o *optimizer) run() {
	for _, s := range o.prog.Settings {
		o.depthBySlot[s.Slot] = -1
	}
	for d, lp := range o.prog.Loops {
		o.depthBySlot[lp.Slot] = d
	}
	o.eachStep(func(depth, _ int, st *Step) {
		if st.Kind == AssignStep {
			o.depthBySlot[st.Slot] = depth
		}
	})
	o.eachStep(func(_, _ int, st *Step) {
		if st.Expr != nil {
			st.Expr = o.simplify(st.Expr)
		}
	})
	o.eachBoundExpr(func(_ int, pe *expr.Expr) { *pe = o.simplify(*pe) })
	o.eachProbe(func(p *Probe) { p.Pred = o.simplify(p.Pred) })
	// An identity can drop the last read of an assignment (a * 0): drop
	// the steps that leaves dead before any subexpression is shared.
	dropDeadAssigns(o.prog)
	o.eachStep(func(_, _ int, st *Step) {
		if st.Expr != nil {
			o.countNodes(st.Expr)
		}
	})
	o.eachBoundExpr(func(_ int, pe *expr.Expr) { o.countNodes(*pe) })
	o.eachStep(func(depth, idx int, st *Step) {
		if st.Expr == nil {
			return
		}
		o.curDepth, o.curIdx = depth, idx
		st.Expr = o.rewrite(st.Expr, true, depth)
	})
	// Bound expressions run at loop entry, which is the tail of the
	// parent level's body; temps they need are placed there (or hoisted
	// further out when the path is check-free). Probe predicates are
	// never rewritten: they evaluate mid-search, before the loop body's
	// temps exist.
	o.eachBoundExpr(func(useDepth int, pe *expr.Expr) {
		o.curDepth, o.curIdx = useDepth, o.stepsAt(useDepth)
		*pe = o.rewrite(*pe, true, useDepth)
	})
	o.flush()

	// Static accounting: per-step temp-reference counts (the engines'
	// cache-hit increment) and per-temp use counts.
	uses := make(map[int]int)
	o.eachStep(func(_, _ int, st *Step) {
		if st.Expr == nil {
			return
		}
		st.TempRefs = o.countTempRefs(st.Expr, uses)
	})
	for _, lp := range o.prog.Loops {
		if lp.Bounds == nil {
			continue
		}
		n := 0
		lp.Bounds.eachEntryExpr(func(pe *expr.Expr) { n += o.countTempRefs(*pe, uses) })
		lp.Bounds.TempRefs = n
	}
	for i := range o.prog.Temps {
		o.prog.Temps[i].Uses = uses[o.prog.Temps[i].Slot]
	}
}

// eachBoundExpr visits every Lo/Hi bound and pin expression of every
// narrowed loop; useDepth is the level the expression is evaluated at (the
// parent of the narrowed loop: its entry is the tail of that body).
func (o *optimizer) eachBoundExpr(fn func(useDepth int, pe *expr.Expr)) {
	for d, lp := range o.prog.Loops {
		lp.Bounds.eachEntryExpr(func(pe *expr.Expr) { fn(d-1, pe) })
	}
}

// eachProbe visits every binary-search probe of every narrowed loop.
func (o *optimizer) eachProbe(fn func(p *Probe)) {
	for _, lp := range o.prog.Loops {
		if lp.Bounds == nil {
			continue
		}
		for gi := range lp.Bounds.Groups {
			g := &lp.Bounds.Groups[gi]
			for pi := range g.Probes {
				fn(&g.Probes[pi])
			}
		}
	}
}

// stepsAt returns the current step count of a level (before flush), the
// past-the-end insertion index bound expressions rewrite at.
func (o *optimizer) stepsAt(depth int) int {
	if depth < 0 {
		return len(o.prog.Prelude)
	}
	return len(o.prog.Loops[depth].Steps)
}

// --- canonical keys, natural depth ----------------------------------------

// key returns a canonical string for e: structurally identical bound
// subtrees produce equal keys (see canon.go; the analyzer shares the
// same notion of identity through plan.NewCanon).
func (o *optimizer) key(e expr.Expr) string { return o.canon.Key(e) }

// depth returns the natural depth of e: the innermost loop level among
// its free variables, or -1 if it depends only on settings and prelude
// values. A temp hoists to exactly this level.
func (o *optimizer) depth(e expr.Expr) int {
	if v, ok := o.depthMemo[e]; ok {
		return v
	}
	d := -1
	max := func(x expr.Expr) {
		if dd := o.depth(x); dd > d {
			d = dd
		}
	}
	switch n := e.(type) {
	case *expr.Lit:
	case *expr.Ref:
		if dd, ok := o.depthBySlot[n.Slot]; ok {
			d = dd
		} else {
			d = len(o.prog.Loops) - 1 // unknown binding: never hoist
		}
	case *expr.Unary:
		max(n.X)
	case *expr.Binary:
		max(n.L)
		max(n.R)
	case *expr.Ternary:
		max(n.Cond)
		max(n.Then)
		max(n.Else)
	case *expr.Call:
		for _, a := range n.Args {
			max(a)
		}
	case *expr.Table2D:
		max(n.Row)
		max(n.Col)
	default:
		d = len(o.prog.Loops) - 1
	}
	o.depthMemo[e] = d
	return d
}

// --- algebraic simplification ---------------------------------------------

// simplify folds constant subtrees and applies kind-safe identities. A
// rule may drop an operand's evaluation, or let an operand's value pass
// through where the original coerced it: planned expressions are pure,
// total and string-free, so eliding an evaluation can neither change
// observable state nor skip a panic the original would have raised.
func (o *optimizer) simplify(e expr.Expr) expr.Expr {
	switch n := e.(type) {
	case *expr.Lit, *expr.Ref:
		return e
	case *expr.Unary:
		x := o.simplify(n.X)
		if inner, ok := x.(*expr.Unary); ok && n.Op == expr.OpNeg && inner.Op == expr.OpNeg {
			return inner.X
		}
		return o.foldIfConst(&expr.Unary{Op: n.Op, X: x})
	case *expr.Binary:
		return o.simplifyBinary(n.Op, o.simplify(n.L), o.simplify(n.R))
	case *expr.Ternary:
		c := o.simplify(n.Cond)
		if lc, ok := c.(*expr.Lit); ok {
			if lc.V.Truthy() {
				return o.simplify(n.Then)
			}
			return o.simplify(n.Else)
		}
		t, f := o.simplify(n.Then), o.simplify(n.Else)
		if o.key(t) == o.key(f) {
			return t
		}
		return &expr.Ternary{Cond: c, Then: t, Else: f}
	case *expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = o.simplify(a)
		}
		if (n.Fn == "min" || n.Fn == "max") && len(args) == 1 {
			return args[0]
		}
		return o.foldIfConst(&expr.Call{Fn: n.Fn, Args: args})
	case *expr.Table2D:
		return o.foldIfConst(&expr.Table2D{Name: n.Name, Data: n.Data, Row: o.simplify(n.Row), Col: o.simplify(n.Col), Default: n.Default})
	default:
		return e
	}
}

func (o *optimizer) simplifyBinary(op expr.Op, l, r expr.Expr) expr.Expr {
	ll, lconst := l.(*expr.Lit)
	rl, rconst := r.(*expr.Lit)
	isInt := func(lit *expr.Lit, ok bool, want int64) bool {
		if !ok {
			return false
		}
		i, iok := lit.V.AsInt()
		return iok && i == want
	}
	switch op {
	case expr.OpMul:
		if isInt(ll, lconst, 1) {
			return r
		}
		if isInt(rl, rconst, 1) {
			return l
		}
		if (isInt(ll, lconst, 0)) || (isInt(rl, rconst, 0)) {
			return expr.IntLit(0)
		}
	case expr.OpAdd:
		if isInt(ll, lconst, 0) {
			return r
		}
		if isInt(rl, rconst, 0) {
			return l
		}
	case expr.OpSub:
		if isInt(rl, rconst, 0) {
			return l
		}
	case expr.OpDiv:
		if isInt(rl, rconst, 1) {
			return l
		}
		if isInt(ll, lconst, 0) {
			return expr.IntLit(0) // floor division is total: 0/x == 0 even at x == 0
		}
	case expr.OpMod:
		if isInt(rl, rconst, 1) {
			return expr.IntLit(0)
		}
		if isInt(ll, lconst, 0) {
			return expr.IntLit(0)
		}
	case expr.OpAnd:
		if lconst {
			if !ll.V.Truthy() {
				return ll
			}
			return r
		}
		// x and <falsy>: both outcomes are falsy.
		if rconst && !rl.V.Truthy() {
			return expr.IntLit(0)
		}
	case expr.OpOr:
		if lconst {
			if ll.V.Truthy() {
				return ll
			}
			return r
		}
		if rconst && !rl.V.Truthy() {
			return l
		}
	case expr.OpEq, expr.OpLe, expr.OpGe:
		if o.key(l) == o.key(r) {
			return expr.BoolLit(true)
		}
	case expr.OpNe, expr.OpLt, expr.OpGt:
		if o.key(l) == o.key(r) {
			return expr.BoolLit(false)
		}
	}
	return o.foldIfConst(&expr.Binary{Op: op, L: l, R: r})
}

// foldIfConst evaluates e when all of its immediate children are literals.
func (o *optimizer) foldIfConst(e expr.Expr) expr.Expr {
	lit := func(x expr.Expr) bool { _, ok := x.(*expr.Lit); return ok }
	all := false
	switch n := e.(type) {
	case *expr.Unary:
		all = lit(n.X)
	case *expr.Binary:
		all = lit(n.L) && lit(n.R)
	case *expr.Ternary:
		all = lit(n.Cond) && lit(n.Then) && lit(n.Else)
	case *expr.Call:
		all = len(n.Args) > 0
		for _, a := range n.Args {
			all = all && lit(a)
		}
	case *expr.Table2D:
		all = lit(n.Row) && lit(n.Col)
	}
	if !all {
		return e
	}
	if v, err := expr.EvalClosed(e); err == nil {
		return expr.NewLit(v)
	}
	return e
}

// --- CSE and loop-invariant motion ----------------------------------------

// countNodes tallies every non-leaf subtree occurrence.
func (o *optimizer) countNodes(e expr.Expr) {
	switch n := e.(type) {
	case *expr.Lit, *expr.Ref:
		return
	case *expr.Unary:
		o.countNodes(n.X)
	case *expr.Binary:
		o.countNodes(n.L)
		o.countNodes(n.R)
	case *expr.Ternary:
		o.countNodes(n.Cond)
		o.countNodes(n.Then)
		o.countNodes(n.Else)
	case *expr.Call:
		for _, a := range n.Args {
			o.countNodes(a)
		}
	case *expr.Table2D:
		o.countNodes(n.Row)
		o.countNodes(n.Col)
	}
	o.count[o.key(e)]++
}

// rewrite replaces qualifying subtrees of e with temp references. strict
// marks positions evaluated unconditionally whenever the step runs;
// useDepth is the loop depth of the step (or temp definition) being
// rewritten. A non-leaf subtree becomes a temp when it already has one,
// or when it sits in a strict position and either occurs at least twice
// program-wide or is invariant at this depth.
func (o *optimizer) rewrite(e expr.Expr, strict bool, useDepth int) expr.Expr {
	switch e.(type) {
	case *expr.Lit, *expr.Ref:
		return e
	}
	k := o.key(e)
	if ref, ok := o.temps[k]; ok {
		if o.depthBySlot[ref.Slot] <= useDepth {
			return ref
		}
		// The temp is assigned deeper than this site evaluates (bound
		// expressions run at the parent level's tail, before the body
		// that defines the temp): keep the subtree inline.
		return o.rewriteChildren(e, strict, useDepth)
	}
	if strict {
		t := o.depth(e)
		if o.count[k] >= 2 {
			// Shared subtree: hoist to its natural depth when the
			// path there is check-free, otherwise define it right
			// here — still shared, never evaluated on iterations
			// pruning would have skipped.
			if t < useDepth && !o.hoistSafe(t) {
				t = useDepth
			}
			return o.makeTemp(k, e, t)
		}
		if t < useDepth && o.hoistSafe(t) {
			// Single-use invariant: only worth a temp when hoisting
			// is guaranteed profitable.
			return o.makeTemp(k, e, t)
		}
	}
	return o.rewriteChildren(e, strict, useDepth)
}

// hoistSafe reports whether a temp evaluated at the end of level t is
// guaranteed to run no more often than the subtree it replaces at the
// current rewrite site. Any check step between the two points prunes
// iterations the hoisted definition would still pay for — on heavily
// pruned spaces that turns invariant motion into a net loss (the deep
// GEMM reshape constraints kill >98% of iterations before their
// neighbours run) — so the path must be check-free: no checks on the
// levels strictly between, and none at the current level before the
// current step. A loop in (t, current level] with a pin (BoundGroup.Pins)
// counts as a check: it runs at most once per entry, so a temp above it
// runs at least as often as the use below it.
func (o *optimizer) hoistSafe(t int) bool {
	for d := t + 1; d <= o.curDepth; d++ {
		lp := o.prog.Loops[d]
		if lp.Bounds.pinned() {
			return false
		}
		if d == o.curDepth {
			break
		}
		for i := range lp.Steps {
			if lp.Steps[i].Kind == CheckStep {
				return false
			}
		}
	}
	steps := o.prog.Prelude
	if o.curDepth >= 0 {
		steps = o.prog.Loops[o.curDepth].Steps
	}
	for i := 0; i < o.curIdx && i < len(steps); i++ {
		if steps[i].Kind == CheckStep {
			return false
		}
	}
	return true
}

func (o *optimizer) rewriteChildren(e expr.Expr, strict bool, useDepth int) expr.Expr {
	switch n := e.(type) {
	case *expr.Unary:
		return &expr.Unary{Op: n.Op, X: o.rewrite(n.X, strict, useDepth)}
	case *expr.Binary:
		// and/or short-circuit: the right operand is conditional.
		rstrict := strict && n.Op != expr.OpAnd && n.Op != expr.OpOr
		return &expr.Binary{Op: n.Op, L: o.rewrite(n.L, strict, useDepth), R: o.rewrite(n.R, rstrict, useDepth)}
	case *expr.Ternary:
		return &expr.Ternary{
			Cond: o.rewrite(n.Cond, strict, useDepth),
			Then: o.rewrite(n.Then, false, useDepth),
			Else: o.rewrite(n.Else, false, useDepth),
		}
	case *expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = o.rewrite(a, strict, useDepth)
		}
		return &expr.Call{Fn: n.Fn, Args: args}
	case *expr.Table2D:
		return &expr.Table2D{Name: n.Name, Data: n.Data, Row: o.rewrite(n.Row, strict, useDepth), Col: o.rewrite(n.Col, strict, useDepth), Default: n.Default}
	default:
		return e
	}
}

// makeTemp synthesizes a temp for subtree e (canonical key k) at depth t
// (its natural depth, or the use depth when hoisting past a check would
// be unprofitable) and returns the shared reference that replaces every
// occurrence. Children are rewritten first, so nested shared or invariant
// subtrees become their own temps, defined before this one.
func (o *optimizer) makeTemp(k string, e expr.Expr, t int) expr.Expr {
	name := fmt.Sprintf("$t%d", o.nextTemp)
	o.nextTemp++
	slot := o.prog.Scope.Declare(name)
	o.depthBySlot[slot] = t
	o.tempSlots[slot] = true
	def := o.rewriteChildren(e, true, t)
	ref := &expr.Ref{Name: name, Slot: slot}
	o.temps[k] = ref
	o.place(t, Step{Kind: AssignStep, Name: name, Slot: slot, Expr: def, StatsID: -1, Temp: true, Depth: t})
	o.prog.Temps = append(o.prog.Temps, TempDef{Name: name, Slot: slot, Depth: t, Expr: def})
	return ref
}

// place buffers a temp step for insertion at depth. A temp created while
// rewriting a step at the same depth is inserted immediately before that
// step (its first use); one created from a deeper step lands after all
// original steps of its level, which is safe because every value it reads
// is bound by then and every deeper use runs later.
func (o *optimizer) place(depth int, st Step) {
	if depth == o.curDepth {
		m := o.inserts[depth]
		if m == nil {
			m = make(map[int][]Step)
			o.inserts[depth] = m
		}
		m[o.curIdx] = append(m[o.curIdx], st)
		return
	}
	o.appends[depth] = append(o.appends[depth], st)
}

// flush rebuilds the prelude and loop bodies with the buffered temps.
func (o *optimizer) flush() {
	rebuild := func(depth int, steps []Step) []Step {
		ins := o.inserts[depth]
		app := o.appends[depth]
		if len(ins) == 0 && len(app) == 0 {
			return steps
		}
		out := make([]Step, 0, len(steps)+len(app))
		for i, st := range steps {
			out = append(out, ins[i]...)
			out = append(out, st)
		}
		// Temps hoisted from deeper steps run at the level tail; the
		// trailing inserts from bound-expression rewrites (past-the-end
		// index) come last, since the next loop's entry is later still
		// and those temps may read the deeper-hoisted ones.
		out = append(out, app...)
		return append(out, ins[len(steps)]...)
	}
	o.prog.Prelude = rebuild(-1, o.prog.Prelude)
	for d, lp := range o.prog.Loops {
		lp.Steps = rebuild(d, lp.Steps)
	}
}

// countTempRefs counts references to temp slots in e, accumulating
// per-slot totals in uses.
func (o *optimizer) countTempRefs(e expr.Expr, uses map[int]int) int {
	n := 0
	switch x := e.(type) {
	case *expr.Lit:
	case *expr.Ref:
		if o.tempSlots[x.Slot] {
			uses[x.Slot]++
			n++
		}
	case *expr.Unary:
		n += o.countTempRefs(x.X, uses)
	case *expr.Binary:
		n += o.countTempRefs(x.L, uses) + o.countTempRefs(x.R, uses)
	case *expr.Ternary:
		n += o.countTempRefs(x.Cond, uses) + o.countTempRefs(x.Then, uses) + o.countTempRefs(x.Else, uses)
	case *expr.Call:
		for _, a := range x.Args {
			n += o.countTempRefs(a, uses)
		}
	case *expr.Table2D:
		n += o.countTempRefs(x.Row, uses) + o.countTempRefs(x.Col, uses)
	}
	return n
}
