// Read-only interval façade over a compiled Program, plus a three-valued
// prover on top of it. This is the bounds-compilation machinery of
// bounds.go (PR 3) surfaced for the static analyzer: internal/analyze
// proves constraint predicates contradictory (always reject) or dead
// (never reject) over the full iteration domains, without re-deriving the
// interval arithmetic.
//
// Soundness inherits from boundsCtx: saturating int64 arithmetic over
// value ranges of string-free planned expressions. Prove answers TriTrue/TriFalse only when the interval
// analysis decides the predicate for *every* environment the loop nest
// can produce; everything else is TriUnknown.
package plan

import (
	"math"

	"repro/internal/expr"
	"repro/internal/space"
)

// Tri is a three-valued truth: proven true, proven false, or undecided.
type Tri int8

// The three truth values.
const (
	TriUnknown Tri = iota
	TriFalse
	TriTrue
)

func (t Tri) String() string {
	switch t {
	case TriTrue:
		return "true"
	case TriFalse:
		return "false"
	}
	return "unknown"
}

// Intervals wraps the interval analysis of a compiled Program with every
// slot bound: settings, prelude assigns, loop variables (their domain
// hulls), and loop-body assigns.
type Intervals struct {
	bc *boundsCtx
}

// NewIntervals builds the full interval context for prog.
func NewIntervals(prog *Program) *Intervals {
	bc := newBoundsCtx(prog)
	for _, lp := range prog.Loops {
		bc.bindLoop(lp)
	}
	return &Intervals{bc: bc}
}

// Expr returns a sound value interval for a bound expression;
// math.MinInt64/MaxInt64 act as -inf/+inf.
func (iv *Intervals) Expr(e expr.Expr) (lo, hi int64) {
	r := iv.bc.intervalOf(e)
	return r.lo, r.hi
}

// Domain returns a sound value interval for a bound domain.
func (iv *Intervals) Domain(d space.DomainExpr) (lo, hi int64) {
	r := iv.bc.domainIval(d)
	return r.lo, r.hi
}

// Pin returns a sound interval of the one value a pin admits: lo is the
// least ceiling and hi the greatest floor of Num / Den over the operand
// intervals, so lo > hi when no integer value is possible.
func (iv *Intervals) Pin(p Pin) (lo, hi int64) {
	num, den := iv.bc.intervalOf(p.Num), iv.bc.intervalOf(p.Den)
	if den.lo < 1 {
		return math.MinInt64, math.MaxInt64
	}
	// ceil(a/b) = -floor(-a/b)
	return iNeg(iDivPos(iNeg(num), den)).lo, iDivPos(num, den).hi
}

// Prove decides the truthiness of a bound predicate over all environments
// admitted by the slot intervals.
func (iv *Intervals) Prove(e expr.Expr) Tri { return iv.bc.prove(e) }

// ProvablyEmpty reports whether a bound domain yields no values for every
// environment: a range whose start provably meets its stop, an empty
// list, or algebra/conditional combinations thereof.
func (iv *Intervals) ProvablyEmpty(d space.DomainExpr) bool { return iv.bc.provablyEmpty(d) }

func triNot(t Tri) Tri {
	switch t {
	case TriTrue:
		return TriFalse
	case TriFalse:
		return TriTrue
	}
	return TriUnknown
}

// triAnd and triOr follow the language's short-circuit truthiness:
// `a and b` is truthy iff both operands are, `a or b` iff either is
// (and/or return operand values, not booleans, but truthiness composes
// exactly this way).
func triAnd(a, b Tri) Tri {
	switch {
	case a == TriFalse || b == TriFalse:
		return TriFalse
	case a == TriTrue && b == TriTrue:
		return TriTrue
	}
	return TriUnknown
}

func triOr(a, b Tri) Tri {
	switch {
	case a == TriTrue || b == TriTrue:
		return TriTrue
	case a == TriFalse && b == TriFalse:
		return TriFalse
	}
	return TriUnknown
}

// prove is the three-valued evaluator: comparisons decide on disjoint or
// pinned intervals, logical connectives compose three-valued, and any
// other expression decides by whether its interval excludes or
// pins zero. The Int/Bool kind distinction is unobservable (DESIGN.md),
// so interval reasoning over bool-valued subtrees is sound.
func (bc *boundsCtx) prove(e expr.Expr) Tri {
	switch n := e.(type) {
	case *expr.Unary:
		if n.Op == expr.OpNot {
			return triNot(bc.prove(n.X))
		}
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			return triAnd(bc.prove(n.L), bc.prove(n.R))
		case expr.OpOr:
			return triOr(bc.prove(n.L), bc.prove(n.R))
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return proveCmp(n.Op, bc.intervalOf(n.L), bc.intervalOf(n.R))
		}
	case *expr.Ternary:
		switch bc.prove(n.Cond) {
		case TriTrue:
			return bc.prove(n.Then)
		case TriFalse:
			return bc.prove(n.Else)
		}
		if t, f := bc.prove(n.Then), bc.prove(n.Else); t == f {
			return t
		}
		return TriUnknown
	}
	r := bc.intervalOf(e)
	switch {
	case r.lo > 0 || r.hi < 0:
		return TriTrue
	case r.lo == 0 && r.hi == 0:
		return TriFalse
	}
	return TriUnknown
}

// proveCmp decides a comparison from the operand intervals, when the
// intervals are disjoint (order decided) or both pinned to one value.
func proveCmp(op expr.Op, l, r ival) Tri {
	switch op {
	case expr.OpLt:
		return triLess(l, r, true)
	case expr.OpLe:
		return triLess(l, r, false)
	case expr.OpGt:
		return triLess(r, l, true)
	case expr.OpGe:
		return triLess(r, l, false)
	case expr.OpEq:
		return proveEq(l, r)
	case expr.OpNe:
		return triNot(proveEq(l, r))
	}
	return TriUnknown
}

// triLess decides l < r (strict) or l <= r (!strict).
func triLess(l, r ival, strict bool) Tri {
	if strict {
		switch {
		case l.hi < r.lo:
			return TriTrue
		case l.lo >= r.hi:
			return TriFalse
		}
		return TriUnknown
	}
	switch {
	case l.hi <= r.lo:
		return TriTrue
	case l.lo > r.hi:
		return TriFalse
	}
	return TriUnknown
}

func proveEq(l, r ival) Tri {
	switch {
	case l.hi < r.lo || r.hi < l.lo:
		return TriFalse
	case l.lo == l.hi && r.lo == r.hi && l.lo == r.lo && l.lo != math.MinInt64 && l.lo != math.MaxInt64:
		// Both pinned to the same finite value (the infinity sentinels
		// mean "unknown", never a witnessed value).
		return TriTrue
	}
	return TriUnknown
}

// provablyEmpty reports that a domain yields no values under every
// environment the slot intervals admit. Conservative: false means "could
// not prove", not "non-empty".
func (bc *boundsCtx) provablyEmpty(d space.DomainExpr) bool {
	switch n := d.(type) {
	case *space.RangeDomain:
		start, stop := bc.intervalOf(n.Start), bc.intervalOf(n.Stop)
		step := bc.intervalOf(n.Step)
		switch {
		case step.lo >= 1:
			return start.lo >= stop.hi // every start >= every stop: ascending range empty
		case step.hi <= -1:
			return start.hi <= stop.lo
		}
		return false
	case *space.ListDomain:
		return len(n.Elems) == 0
	case *space.CondDomain:
		switch bc.prove(n.Cond) {
		case TriTrue:
			return bc.provablyEmpty(n.Then)
		case TriFalse:
			return bc.provablyEmpty(n.Else)
		}
		return bc.provablyEmpty(n.Then) && bc.provablyEmpty(n.Else)
	case *space.AlgebraDomain:
		switch n.Op {
		case space.OpIntersect:
			return bc.provablyEmpty(n.L) || bc.provablyEmpty(n.R)
		case space.OpDifference:
			return bc.provablyEmpty(n.L)
		default: // union, concat
			return bc.provablyEmpty(n.L) && bc.provablyEmpty(n.R)
		}
	}
	return false
}
