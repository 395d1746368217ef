// Package space implements the BEAST search-space model: parameter iterators
// (expression, deferred, and closure forms — §V of the paper), pruning
// constraints in the paper's three classes (hard, soft, correctness — §IX.E),
// derived variables (Figure 12), and the iterator algebra (§VIII) for
// structured composition of iteration spaces.
//
// A Space is a pure description. Enumeration order, constraint hoisting, and
// execution strategy are decided later by internal/plan and internal/engine,
// which is the paper's separation between the declarative notation and the
// generated evaluation code.
package space

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// DomainExpr describes the set of values an expression iterator ranges over.
// Bounds are expressions over previously bound iterators, derived variables,
// and settings, so a DomainExpr is re-evaluated each time an enclosing loop
// advances (range(dim_m, MAX+1, dim_m) in Figure 4 yields a different value
// sequence for every dim_m).
type DomainExpr interface {
	// CollectDeps accumulates free variable names of all bound expressions.
	CollectDeps(deps map[string]struct{})
	// Fold specializes the domain under a partial constant assignment.
	Fold(consts map[string]expr.Value) DomainExpr
	// Bind resolves variable references against sc, returning a new tree.
	Bind(sc *expr.Scope) (DomainExpr, error)
	// Iterate evaluates the bounds in env and yields each value in order,
	// stopping early if yield returns false. It reports whether iteration
	// ran to completion.
	Iterate(env *expr.Env, yield func(int64) bool) bool
	String() string
}

// RangeDomain is the overloaded range(start, stop, step) of the paper's
// notation: the half-open arithmetic sequence start, start+step, ... < stop
// (or > stop for negative step, as in Figure 5's range(x, 0, -1)).
type RangeDomain struct {
	Start, Stop, Step expr.Expr
}

// NewRange returns the domain range(start, stop) with step 1.
func NewRange(start, stop expr.Expr) *RangeDomain {
	return &RangeDomain{Start: start, Stop: stop, Step: expr.IntLit(1)}
}

// NewRangeStep returns the domain range(start, stop, step).
func NewRangeStep(start, stop, step expr.Expr) *RangeDomain {
	return &RangeDomain{Start: start, Stop: stop, Step: step}
}

// Span evaluates the range bounds in env. A zero step is treated as an
// empty range (rather than an error) to keep enumeration total; the space
// validator warns about statically zero steps.
func (r *RangeDomain) Span(env *expr.Env) (start, stop, step int64, ok bool) {
	s, ok1 := r.Start.Eval(env).AsInt()
	e, ok2 := r.Stop.Eval(env).AsInt()
	st, ok3 := r.Step.Eval(env).AsInt()
	if !ok1 || !ok2 || !ok3 || st == 0 {
		return 0, 0, 0, false
	}
	return s, e, st, true
}

func (r *RangeDomain) Iterate(env *expr.Env, yield func(int64) bool) bool {
	start, stop, step, ok := r.Span(env)
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

func (r *RangeDomain) CollectDeps(deps map[string]struct{}) {
	r.Start.CollectDeps(deps)
	r.Stop.CollectDeps(deps)
	r.Step.CollectDeps(deps)
}

func (r *RangeDomain) Fold(consts map[string]expr.Value) DomainExpr {
	return &RangeDomain{Start: r.Start.Fold(consts), Stop: r.Stop.Fold(consts), Step: r.Step.Fold(consts)}
}

func (r *RangeDomain) Bind(sc *expr.Scope) (DomainExpr, error) {
	start, err := expr.Bind(r.Start, sc)
	if err != nil {
		return nil, err
	}
	stop, err := expr.Bind(r.Stop, sc)
	if err != nil {
		return nil, err
	}
	step, err := expr.Bind(r.Step, sc)
	if err != nil {
		return nil, err
	}
	return &RangeDomain{Start: start, Stop: stop, Step: step}, nil
}

func (r *RangeDomain) String() string {
	if lit, ok := r.Step.(*expr.Lit); ok && lit.V.Equal(expr.IntVal(1)) {
		return fmt.Sprintf("range(%s, %s)", r.Start, r.Stop)
	}
	return fmt.Sprintf("range(%s, %s, %s)", r.Start, r.Stop, r.Step)
}

// ListDomain is an explicit value sequence, the Iterator([1,1,2,3,5,8,13])
// form of Figure 1. Elements are expressions, so lists may depend on outer
// iterators. A scalar iterator body (`return 1` in Figure 11's dim_vec) is a
// one-element ListDomain.
type ListDomain struct {
	Elems []expr.Expr
}

// NewList returns the domain enumerating elems in order.
func NewList(elems ...expr.Expr) *ListDomain { return &ListDomain{Elems: elems} }

// NewIntList returns the domain enumerating the given constants in order.
func NewIntList(vals ...int64) *ListDomain {
	elems := make([]expr.Expr, len(vals))
	for i, v := range vals {
		elems[i] = expr.IntLit(v)
	}
	return &ListDomain{Elems: elems}
}

func (l *ListDomain) Iterate(env *expr.Env, yield func(int64) bool) bool {
	for _, e := range l.Elems {
		v, ok := e.Eval(env).AsInt()
		if !ok {
			panic(&expr.TypeError{Op: "list element", A: e.Eval(env), Unary: true})
		}
		if !yield(v) {
			return false
		}
	}
	return true
}

func (l *ListDomain) CollectDeps(deps map[string]struct{}) {
	for _, e := range l.Elems {
		e.CollectDeps(deps)
	}
}

func (l *ListDomain) Fold(consts map[string]expr.Value) DomainExpr {
	out := &ListDomain{Elems: make([]expr.Expr, len(l.Elems))}
	for i, e := range l.Elems {
		out.Elems[i] = e.Fold(consts)
	}
	return out
}

func (l *ListDomain) Bind(sc *expr.Scope) (DomainExpr, error) {
	out := &ListDomain{Elems: make([]expr.Expr, len(l.Elems))}
	for i, e := range l.Elems {
		b, err := expr.Bind(e, sc)
		if err != nil {
			return nil, err
		}
		out.Elems[i] = b
	}
	return out, nil
}

func (l *ListDomain) String() string {
	parts := make([]string, len(l.Elems))
	for i, e := range l.Elems {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// CondDomain selects one of two domains based on a condition over outer
// iterators or settings. It is how if/elif/else deferred-iterator bodies
// (Figures 2, 5, 11) lower into the expression-iterator core, which keeps
// them analyzable by the DAG and translatable by the code generators.
type CondDomain struct {
	Cond       expr.Expr
	Then, Else DomainExpr
}

// NewCond returns the domain `then if cond else els`.
func NewCond(cond expr.Expr, then, els DomainExpr) *CondDomain {
	return &CondDomain{Cond: cond, Then: then, Else: els}
}

func (c *CondDomain) Iterate(env *expr.Env, yield func(int64) bool) bool {
	if c.Cond.Eval(env).Truthy() {
		return c.Then.Iterate(env, yield)
	}
	return c.Else.Iterate(env, yield)
}

func (c *CondDomain) CollectDeps(deps map[string]struct{}) {
	c.Cond.CollectDeps(deps)
	c.Then.CollectDeps(deps)
	c.Else.CollectDeps(deps)
}

func (c *CondDomain) Fold(consts map[string]expr.Value) DomainExpr {
	cond := c.Cond.Fold(consts)
	if lit, ok := cond.(*expr.Lit); ok {
		if lit.V.Truthy() {
			return c.Then.Fold(consts)
		}
		return c.Else.Fold(consts)
	}
	return &CondDomain{Cond: cond, Then: c.Then.Fold(consts), Else: c.Else.Fold(consts)}
}

func (c *CondDomain) Bind(sc *expr.Scope) (DomainExpr, error) {
	cond, err := expr.Bind(c.Cond, sc)
	if err != nil {
		return nil, err
	}
	then, err := c.Then.Bind(sc)
	if err != nil {
		return nil, err
	}
	els, err := c.Else.Bind(sc)
	if err != nil {
		return nil, err
	}
	return &CondDomain{Cond: cond, Then: then, Else: els}, nil
}

func (c *CondDomain) String() string {
	return fmt.Sprintf("(%s if %s else %s)", c.Then, c.Cond, c.Else)
}

// SetOp enumerates the iterator-algebra combinators of §VIII: set-style
// union, intersection, and difference, plus order-preserving concatenation.
type SetOp uint8

// Iterator-algebra operators.
const (
	OpUnion SetOp = iota
	OpIntersect
	OpDifference
	OpConcat
)

func (o SetOp) String() string {
	switch o {
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpDifference:
		return "difference"
	case OpConcat:
		return "concat"
	default:
		return fmt.Sprintf("SetOp(%d)", uint8(o))
	}
}

// AlgebraDomain combines two domains with a set-algebra operator. Union,
// intersection, and difference yield ascending deduplicated sequences (set
// semantics); concat preserves both operands' orders and multiplicities.
type AlgebraDomain struct {
	Op   SetOp
	L, R DomainExpr
}

// Union returns the set union of l and r (ascending, deduplicated).
func Union(l, r DomainExpr) *AlgebraDomain { return &AlgebraDomain{Op: OpUnion, L: l, R: r} }

// Intersect returns the set intersection of l and r (ascending).
func Intersect(l, r DomainExpr) *AlgebraDomain { return &AlgebraDomain{Op: OpIntersect, L: l, R: r} }

// Difference returns the set difference l minus r (ascending).
func Difference(l, r DomainExpr) *AlgebraDomain { return &AlgebraDomain{Op: OpDifference, L: l, R: r} }

// Concat returns l's values followed by r's.
func Concat(l, r DomainExpr) *AlgebraDomain { return &AlgebraDomain{Op: OpConcat, L: l, R: r} }

// Materialize collects the values of any domain into a slice, in iteration
// order. It is used by the set-algebra operators, by the parallel driver to
// split the outermost loop, and by the code generators to freeze closed
// closure iterators.
func Materialize(d DomainExpr, env *expr.Env) []int64 {
	var out []int64
	d.Iterate(env, func(v int64) bool {
		out = append(out, v)
		return true
	})
	return out
}

func (a *AlgebraDomain) values(env *expr.Env) []int64 {
	return combine(a.Op, Materialize(a.L, env), Materialize(a.R, env))
}

// combine applies op to the value sequences of an algebra domain's
// operands.
func combine(op SetOp, l, r []int64) []int64 {
	if op == OpConcat {
		return append(l, r...)
	}
	inR := make(map[int64]struct{}, len(r))
	for _, v := range r {
		inR[v] = struct{}{}
	}
	set := make(map[int64]struct{}, len(l))
	switch op {
	case OpUnion:
		for _, v := range l {
			set[v] = struct{}{}
		}
		for _, v := range r {
			set[v] = struct{}{}
		}
	case OpIntersect:
		for _, v := range l {
			if _, ok := inR[v]; ok {
				set[v] = struct{}{}
			}
		}
	case OpDifference:
		for _, v := range l {
			if _, ok := inR[v]; !ok {
				set[v] = struct{}{}
			}
		}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (a *AlgebraDomain) Iterate(env *expr.Env, yield func(int64) bool) bool {
	for _, v := range a.values(env) {
		if !yield(v) {
			return false
		}
	}
	return true
}

func (a *AlgebraDomain) CollectDeps(deps map[string]struct{}) {
	a.L.CollectDeps(deps)
	a.R.CollectDeps(deps)
}

func (a *AlgebraDomain) Fold(consts map[string]expr.Value) DomainExpr {
	return &AlgebraDomain{Op: a.Op, L: a.L.Fold(consts), R: a.R.Fold(consts)}
}

func (a *AlgebraDomain) Bind(sc *expr.Scope) (DomainExpr, error) {
	l, err := a.L.Bind(sc)
	if err != nil {
		return nil, err
	}
	r, err := a.R.Bind(sc)
	if err != nil {
		return nil, err
	}
	return &AlgebraDomain{Op: a.Op, L: l, R: r}, nil
}

func (a *AlgebraDomain) String() string {
	return fmt.Sprintf("%s(%s, %s)", a.Op, a.L, a.R)
}

// DomainDeps returns the sorted free-variable names of d.
func DomainDeps(d DomainExpr) []string {
	set := make(map[string]struct{})
	d.CollectDeps(set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IntDomain is a DomainExpr compiled by CompileDomain to native closures
// over an int64 register file (see expr.CompileInt). It yields the values
// the source domain's Iterate yields whenever every slot it reads holds an
// integer or a boolean. Iterate reports whether iteration ran to
// completion.
type IntDomain interface {
	Iterate(r []int64, yield func(int64) bool) bool
}

// IntRange is a compiled RangeDomain. A literal start, stop or step is
// kept as a constant, with a nil closure, and Span reads it in place.
type IntRange struct {
	start, stop, step    expr.IntFn
	startK, stopK, stepK int64
}

// Span evaluates the bounds. Unlike RangeDomain.Span it passes a zero step
// through; Iterate yields nothing for one.
func (d *IntRange) Span(r []int64) (start, stop, step int64) {
	start, stop, step = d.startK, d.stopK, d.stepK
	if d.start != nil {
		start = d.start(r)
	}
	if d.stop != nil {
		stop = d.stop(r)
	}
	if d.step != nil {
		step = d.step(r)
	}
	return start, stop, step
}

func (d *IntRange) Iterate(r []int64, yield func(int64) bool) bool {
	start, stop, step := d.Span(r)
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

type intList struct{ elems []expr.IntFn }

func (d *intList) Iterate(r []int64, yield func(int64) bool) bool {
	for _, e := range d.elems {
		if !yield(e(r)) {
			return false
		}
	}
	return true
}

type intCond struct {
	cond      expr.IntFn
	then, els IntDomain
}

func (d *intCond) Iterate(r []int64, yield func(int64) bool) bool {
	if d.cond(r) != 0 {
		return d.then.Iterate(r, yield)
	}
	return d.els.Iterate(r, yield)
}

type intAlgebra struct {
	op   SetOp
	l, r IntDomain
}

func (d *intAlgebra) Iterate(r []int64, yield func(int64) bool) bool {
	collect := func(cd IntDomain) []int64 {
		var out []int64
		cd.Iterate(r, func(v int64) bool { out = append(out, v); return true })
		return out
	}
	for _, v := range combine(d.op, collect(d.l), collect(d.r)) {
		if !yield(v) {
			return false
		}
	}
	return true
}

// CompileDomain lowers a bound domain to an IntDomain with
// expr.CompileInt.
func CompileDomain(d DomainExpr) (IntDomain, error) {
	switch n := d.(type) {
	case *RangeDomain:
		var out IntRange
		var err error
		if out.start, out.startK, err = compileRangeBound(n.Start); err != nil {
			return nil, err
		}
		if out.stop, out.stopK, err = compileRangeBound(n.Stop); err != nil {
			return nil, err
		}
		if out.step, out.stepK, err = compileRangeBound(n.Step); err != nil {
			return nil, err
		}
		return &out, nil
	case *ListDomain:
		elems := make([]expr.IntFn, len(n.Elems))
		for i, e := range n.Elems {
			fn, err := expr.CompileInt(e)
			if err != nil {
				return nil, err
			}
			elems[i] = fn
		}
		return &intList{elems: elems}, nil
	case *CondDomain:
		cond, err := expr.CompileInt(n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := CompileDomain(n.Then)
		if err != nil {
			return nil, err
		}
		els, err := CompileDomain(n.Else)
		if err != nil {
			return nil, err
		}
		return &intCond{cond: cond, then: then, els: els}, nil
	case *AlgebraDomain:
		l, err := CompileDomain(n.L)
		if err != nil {
			return nil, err
		}
		r, err := CompileDomain(n.R)
		if err != nil {
			return nil, err
		}
		return &intAlgebra{op: n.Op, l: l, r: r}, nil
	}
	return nil, fmt.Errorf("unsupported domain type %T", d)
}

// compileRangeBound compiles one bound of a range: an integer or boolean
// literal to its constant and a nil closure, anything else to a closure.
func compileRangeBound(e expr.Expr) (expr.IntFn, int64, error) {
	if lit, ok := e.(*expr.Lit); ok && lit.V.K != expr.Str {
		return nil, lit.V.I, nil
	}
	fn, err := expr.CompileInt(e)
	return fn, 0, err
}
