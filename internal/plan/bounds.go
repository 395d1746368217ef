// Plan-time bounds compilation: interval propagation and monotone range
// narrowing over the placed steps of a Program.
//
// The paper's hoisting (and PR 2's subexpression motion) make rejected
// iterations cheap; this pass makes them free. For each ascending
// expression-iterator loop it tries to absorb the leading constraint
// checks of the loop body into the loop's range itself, in three forms:
//
//   - Symbolic bounds: a rejection predicate that is an exact inequality
//     in the loop variable x (after inlining same-depth derived
//     variables) is solved for x by inverting + - * / around it. Every
//     rewrite step is an exact integer equivalence under the language's
//     floor-division semantics — multiplication and division are only
//     inverted by factors an interval analysis proves >= 1 — so the
//     derived loop-variable-free Lo/Hi expressions admit exactly the
//     values the original check would have passed. They are evaluated
//     once at loop entry.
//
//   - Pins: a `!=` rejection whose solve inverts no floor division admits
//     at most one value, x == Num / Den, which the loop keeps when Den
//     divides Num and the value lies on the narrowed progression: one
//     division at loop entry decides the whole range.
//
//   - Monotone probes: a comparison the solver cannot invert (x on both
//     sides, x under min/max, x in a divisor) but that a direction
//     analysis proves weakly monotone in x is kept whole and resolved at
//     loop entry by binary search over the range: O(log n) probe
//     evaluations replace O(n) rejected body entries.
//
// Absorption is restricted to the maximal prefix of fully-absorbed
// checks (plus at most one trailing partially-absorbed check, whose
// original predicate stays in the body as a residual guard). This keeps
// kill attribution exact: the values a group skips are precisely the
// values its constraint would have rejected among those that survived
// the earlier groups, so engines credit skipped iterations to the
// constraint's Checks/Kills counters and per-constraint kill counts are
// bit-identical with and without narrowing.
//
// The interval analysis is saturating int64 arithmetic over value
// ranges; it is sound as long as runtime expression values do not wrap
// int64, which holds for every space the repo builds (DESIGN.md §7
// records the caveat). Planned expressions hold no strings (place folds
// them away), so every one takes part. Options.DisableNarrowing skips
// the whole pass.
package plan

import (
	"math"

	"repro/internal/expr"
	"repro/internal/space"
)

// LoopBounds is the compiled narrowing recipe of one loop: the constraint
// groups to apply, in body order, at every entry of the loop.
type LoopBounds struct {
	Groups []BoundGroup

	// TempRefs counts static optimizer-temp references across all Lo/Hi
	// bound and pin expressions; engines add it to the per-level
	// cache-hit counter once per narrowing evaluation.
	TempRefs int
}

// pinned reports whether some group pins the loop to at most one value per
// entry; a nil recipe pins nothing.
func (lb *LoopBounds) pinned() bool {
	if lb == nil {
		return false
	}
	for i := range lb.Groups {
		if len(lb.Groups[i].Pins) > 0 {
			return true
		}
	}
	return false
}

// EachExpr calls fn for every expression of the recipe: those each group
// evaluates at loop entry (BoundGroup.eachEntryExpr), then its probe
// predicates. A nil recipe has none.
func (lb *LoopBounds) EachExpr(fn func(expr.Expr)) {
	if lb == nil {
		return
	}
	for i := range lb.Groups {
		g := &lb.Groups[i]
		g.eachEntryExpr(func(pe *expr.Expr) { fn(*pe) })
		for _, p := range g.Probes {
			fn(p.Pred)
		}
	}
}

// eachEntryExpr calls BoundGroup.eachEntryExpr on every group; a nil
// recipe has no expressions.
func (lb *LoopBounds) eachEntryExpr(fn func(pe *expr.Expr)) {
	if lb == nil {
		return
	}
	for i := range lb.Groups {
		lb.Groups[i].eachEntryExpr(fn)
	}
}

// BoundGroup is the absorbed form of one constraint check.
type BoundGroup struct {
	// StatsID and Name identify the source constraint; iterations the
	// group skips are credited to its Checks/Kills counters.
	StatsID int
	Name    string

	// Lo and Hi are loop-variable-free expressions evaluated at loop
	// entry: feasible values v satisfy v >= every Lo and v < every Hi.
	Lo, Hi []expr.Expr

	// Pins are absorbed equalities, applied after Lo/Hi: each admits at
	// most one value per loop entry. The expression optimizer never
	// hoists a temp above a loop with a pin (hoistSafe).
	Pins []Pin

	// Probes are monotone rejection predicates resolved by binary search
	// over the (already Lo/Hi-narrowed and pinned) range.
	Probes []Probe

	// Full reports that the constraint was absorbed completely and its
	// check removed from the loop body. A partial group keeps the
	// original check as a residual guard, so it can only ever end the
	// group list.
	Full bool
}

// eachEntryExpr calls fn with a pointer to every expression the group
// evaluates at loop entry: its Lo and Hi bounds and each pin's Num and
// Den.
func (g *BoundGroup) eachEntryExpr(fn func(pe *expr.Expr)) {
	for i := range g.Lo {
		fn(&g.Lo[i])
	}
	for i := range g.Hi {
		fn(&g.Hi[i])
	}
	for i := range g.Pins {
		fn(&g.Pins[i].Num)
		fn(&g.Pins[i].Den)
	}
}

// Pin is the solved form of an equality l == r whose solve inverts no
// floor division: x == Num / Den exactly, with Num and Den free of the
// loop variable and Den proven >= 1. The loop keeps the value Num / Den
// when Den divides Num and the value lies on the range's progression,
// and no value otherwise.
type Pin struct {
	Num, Den expr.Expr
}

// Probe is one monotone rejection predicate: Pred is a comparison with
// the loop variable free, proved weakly monotone in it, so the rejected
// values form a prefix or a suffix of the range.
type Probe struct {
	Pred expr.Expr

	// SuffixFeasible reports that rejections form a prefix of the range
	// (the feasible values are a suffix); false means feasible values
	// are a prefix and rejections a suffix.
	SuffixFeasible bool
}

// compileBounds runs the pass over every loop of prog. It mutates loops
// in place: narrowed loops get a non-nil Bounds and lose their
// fully-absorbed check steps.
func compileBounds(prog *Program) {
	bc := newBoundsCtx(prog)
	// Outermost to innermost: narrow this loop against the intervals of
	// everything bound outside it, then bind its own interval (and its
	// body assignments') for the deeper levels.
	for d, lp := range prog.Loops {
		bc.tryNarrow(d, lp)
		bc.bindLoop(lp)
	}
}

// newBoundsCtx seeds an interval context with everything known before
// the outermost loop opens: setting values and prelude assignments. Loop
// levels are bound one at a time with bindLoop, outermost first.
func newBoundsCtx(prog *Program) *boundsCtx {
	bc := settingsCtx(prog)
	for i := range prog.Prelude {
		st := &prog.Prelude[i]
		if st.Kind == AssignStep && st.Expr != nil {
			bc.slotIval[st.Slot] = bc.intervalOf(st.Expr)
		}
	}
	return bc
}

// bindLoop binds the interval of one loop's variable (its domain hull)
// and of its body assignments, making them visible to deeper levels.
func (bc *boundsCtx) bindLoop(lp *Loop) {
	if lp.Iter.Kind == space.ExprIter && lp.Domain != nil {
		bc.slotIval[lp.Slot] = bc.domainIval(lp.Domain)
	} else {
		bc.slotIval[lp.Slot] = topIval
	}
	for i := range lp.Steps {
		st := &lp.Steps[i]
		if st.Kind == AssignStep && st.Expr != nil {
			bc.slotIval[st.Slot] = bc.intervalOf(st.Expr)
		}
	}
}

type boundsCtx struct {
	prog *Program

	// slotIval maps every bound slot to a sound value interval.
	slotIval map[int]ival
}

// settingsCtx returns an interval context with each integer setting
// pinned to its value.
func settingsCtx(prog *Program) *boundsCtx {
	bc := &boundsCtx{prog: prog, slotIval: make(map[int]ival)}
	for _, s := range prog.IntSettings() {
		bc.slotIval[s.Slot] = ival{s.V.I, s.V.I}
	}
	return bc
}

// tryNarrow attempts to compile the leading checks of loop d into bounds.
func (bc *boundsCtx) tryNarrow(d int, lp *Loop) {
	if lp.Iter.Kind != space.ExprIter {
		return
	}
	rd, ok := lp.Domain.(*space.RangeDomain)
	if !ok {
		return
	}
	if bc.intervalOf(rd.Step).lo < 1 {
		return // narrowing assumes an ascending range with positive step
	}
	xSlot := lp.Slot
	// Bind x's own domain interval before absorbing, so interval queries
	// on subtrees containing x stay sound.
	bc.slotIval[xSlot] = ival{bc.intervalOf(rd.Start).lo, satAdd(bc.intervalOf(rd.Stop).hi, -1)}

	// subst inlines this body's derived-variable assignments, so a
	// predicate over them becomes a predicate over x and outer slots
	// only; the solved Lo/Hi bounds are then evaluable at loop entry.
	subst := make(map[int]expr.Expr)
	var groups []BoundGroup
	removed := make(map[int]bool)
scan:
	for i := range lp.Steps {
		st := &lp.Steps[i]
		switch st.Kind {
		case AssignStep:
			if st.Expr != nil {
				subst[st.Slot] = bc.substSlots(st.Expr, subst)
			}
		case CheckStep:
			g := bc.absorbCheck(st, subst, xSlot)
			if g == nil {
				break scan // keep check order: nothing absorbs past this
			}
			groups = append(groups, *g)
			if !g.Full {
				break scan // residual guard stays in the body
			}
			removed[i] = true
		}
	}
	if len(groups) == 0 {
		return
	}
	lp.Bounds = &LoopBounds{Groups: groups}
	if len(removed) > 0 {
		out := make([]Step, 0, len(lp.Steps)-len(removed))
		for i := range lp.Steps {
			if !removed[i] {
				out = append(out, lp.Steps[i])
			}
		}
		lp.Steps = out
	}
}

// absorbCheck tries to turn one check step into a bound group. The
// predicate rejects when true; it absorbs when, after inlining same-depth
// assignments, it is a disjunction whose terms each solve
// symbolically or prove monotone. nil means the check must stay as-is.
func (bc *boundsCtx) absorbCheck(st *Step, subst map[int]expr.Expr, xSlot int) *BoundGroup {
	if st.Expr == nil || st.Constraint.Deferred() {
		return nil
	}
	pred := bc.substSlots(st.Expr, subst)
	if !refsSlot(pred, xSlot) {
		return nil
	}
	// Or distributes over rejection: the predicate rejects iff some
	// disjunct is truthy, so each disjunct narrows independently.
	g := &BoundGroup{StatsID: st.StatsID, Name: st.Name, Full: true}
	absorbed := false
	for _, dj := range flattenOr(pred) {
		if lit, ok := dj.(*expr.Lit); ok {
			if lit.V.Truthy() {
				return nil // constant-true rejection: leave the dead check alone
			}
			continue // constant-false disjunct contributes nothing
		}
		if bc.absorbDisjunct(g, dj, xSlot) {
			absorbed = true
		} else {
			g.Full = false
		}
	}
	if !absorbed {
		return nil
	}
	return g
}

// absorbDisjunct absorbs one rejection comparison into g, as symbolic
// bounds when x is isolatable on one side, as a monotone probe otherwise.
func (bc *boundsCtx) absorbDisjunct(g *BoundGroup, e expr.Expr, xSlot int) bool {
	op, l, r, ok := asCmp(e)
	if !ok {
		return false
	}
	lx, rx := refsSlot(l, xSlot), refsSlot(r, xSlot)
	switch {
	case !lx && !rx:
		return false // x-free: hoisting already owns this case
	case lx && rx:
		return bc.tryProbe(g, op, l, r, xSlot)
	case rx:
		l, r = r, l
		op = swapCmp(op)
	}
	// x occurs in l only. e rejects when true, so the feasible region is
	// its negation, rewritten to <=/>= form for the exact solver.
	switch op {
	case expr.OpGt: // feasible: l <= r
		if bc.solveInto(g, l, r, true, xSlot) {
			return true
		}
	case expr.OpGe: // feasible: l < r, i.e. l <= r-1
		if bc.solveInto(g, l, expr.Sub(r, expr.IntLit(1)), true, xSlot) {
			return true
		}
	case expr.OpLt: // feasible: l >= r
		if bc.solveInto(g, l, r, false, xSlot) {
			return true
		}
	case expr.OpLe: // feasible: l > r, i.e. l >= r+1
		if bc.solveInto(g, l, expr.Add(r, expr.IntLit(1)), false, xSlot) {
			return true
		}
	case expr.OpNe: // feasible: l == r
		if num, den, ok := bc.solvePin(l, r, nil, xSlot); ok {
			g.Pins = append(g.Pins, Pin{Num: num, Den: den})
			return true
		}
		// Through a floor division l == r admits a run of values: both
		// directions must solve into a Lo/Hi pair.
		scratch := &BoundGroup{}
		if bc.solveInto(scratch, l, r, true, xSlot) && bc.solveInto(scratch, l, r, false, xSlot) {
			g.Lo = append(g.Lo, scratch.Lo...)
			g.Hi = append(g.Hi, scratch.Hi...)
			return true
		}
		return false
	case expr.OpEq: // feasible: l != r — not an interval, not monotone
		return false
	}
	return bc.tryProbe(g, op, l, r, xSlot)
}

// solveInto solves `a <= t` (le) or `a >= t` for x and records the
// resulting bound on g: x <= b becomes an exclusive Hi of b+1, x >= b a
// Lo of b.
func (bc *boundsCtx) solveInto(g *BoundGroup, a, t expr.Expr, le bool, xSlot int) bool {
	bound, isLe, ok := bc.solveIneq(a, t, le, xSlot)
	if !ok {
		return false
	}
	if isLe {
		g.Hi = append(g.Hi, expr.Add(bound, expr.IntLit(1)))
	} else {
		g.Lo = append(g.Lo, bound)
	}
	return true
}

// solveIneq solves `a <= t` (le) or `a >= t` (!le) for the loop variable
// inside a; t is x-free. It returns an x-free bound b with the final
// sense (x <= b when isLe). Every rewrite is an exact integer
// equivalence — multiplication and floor division are only inverted by
// factors whose interval proves them >= 1 — so the bound admits exactly
// the values the inequality admits.
func (bc *boundsCtx) solveIneq(a, t expr.Expr, le bool, xSlot int) (bound expr.Expr, isLe, ok bool) {
	switch n := a.(type) {
	case *expr.Ref:
		if n.Slot == xSlot {
			return t, le, true
		}
	case *expr.Unary:
		if n.Op == expr.OpNeg {
			return bc.solveIneq(n.X, expr.Neg(t), !le, xSlot)
		}
	case *expr.Binary:
		lx, rx := refsSlot(n.L, xSlot), refsSlot(n.R, xSlot)
		switch n.Op {
		case expr.OpAdd:
			if lx && !rx {
				return bc.solveIneq(n.L, expr.Sub(t, n.R), le, xSlot)
			}
			if rx && !lx {
				return bc.solveIneq(n.R, expr.Sub(t, n.L), le, xSlot)
			}
		case expr.OpSub:
			if lx && !rx {
				return bc.solveIneq(n.L, expr.Add(t, n.R), le, xSlot)
			}
			if rx && !lx {
				// L - R <= t  <=>  R >= L - t (sense flips)
				return bc.solveIneq(n.R, expr.Sub(n.L, t), !le, xSlot)
			}
		case expr.OpMul:
			f, c := n.L, n.R
			if rx && !lx {
				f, c = n.R, n.L
			} else if !lx || rx {
				break
			}
			if bc.intervalOf(c).lo < 1 {
				break // need a provably positive x-free factor
			}
			if le {
				// f*c <= t  <=>  f <= floor(t/c)       (c >= 1)
				return bc.solveIneq(f, expr.Div(t, c), true, xSlot)
			}
			// f*c >= t  <=>  f >= ceil(t/c) = floor(t/c) + (t mod c != 0),
			// which cannot wrap for c >= 1
			ceil := expr.Add(expr.Div(t, c), expr.Ne(expr.Mod(t, c), expr.IntLit(0)))
			return bc.solveIneq(f, ceil, false, xSlot)
		case expr.OpDiv:
			if !lx || rx || bc.intervalOf(n.R).lo < 1 {
				break // x in the divisor is the probe's job
			}
			if le {
				// floor(L/R) <= t  <=>  L <= (t+1)*R - 1   (R >= 1)
				return bc.solveIneq(n.L, expr.Sub(expr.Mul(expr.Add(t, expr.IntLit(1)), n.R), expr.IntLit(1)), true, xSlot)
			}
			// floor(L/R) >= t  <=>  L >= t*R
			return bc.solveIneq(n.L, expr.Mul(t, n.R), false, xSlot)
		}
	}
	return nil, false, false
}

// solvePin solves `a == num / den` for the loop variable inside a, where
// num is x-free and den, nil for 1, is an x-free product of factors
// proven >= 1. Each rewrite keeps the equation exact over the rationals
// (a factor moves into den, a term into num scaled by den), so at the
// loop variable x == num / den holds for an integer x exactly when den
// divides num. It refuses floor division, which admits a run of values,
// and inherits the solver's assumption that num and den do not wrap.
func (bc *boundsCtx) solvePin(a, num, den expr.Expr, xSlot int) (expr.Expr, expr.Expr, bool) {
	scaled := func(e expr.Expr) expr.Expr {
		if den == nil {
			return e
		}
		return expr.Mul(e, den)
	}
	switch n := a.(type) {
	case *expr.Ref:
		if n.Slot == xSlot {
			if den == nil {
				den = expr.IntLit(1)
			}
			return num, den, true
		}
	case *expr.Unary:
		if n.Op == expr.OpNeg {
			return bc.solvePin(n.X, expr.Neg(num), den, xSlot)
		}
	case *expr.Binary:
		lx, rx := refsSlot(n.L, xSlot), refsSlot(n.R, xSlot)
		switch n.Op {
		case expr.OpAdd:
			if lx && !rx {
				return bc.solvePin(n.L, expr.Sub(num, scaled(n.R)), den, xSlot)
			}
			if rx && !lx {
				return bc.solvePin(n.R, expr.Sub(num, scaled(n.L)), den, xSlot)
			}
		case expr.OpSub:
			if lx && !rx {
				return bc.solvePin(n.L, expr.Add(num, scaled(n.R)), den, xSlot)
			}
			if rx && !lx {
				// L - R == num/den  <=>  R == (L*den - num)/den
				return bc.solvePin(n.R, expr.Sub(scaled(n.L), num), den, xSlot)
			}
		case expr.OpMul:
			f, c := n.L, n.R
			if rx && !lx {
				f, c = n.R, n.L
			} else if !lx || rx {
				break
			}
			if bc.intervalOf(c).lo < 1 {
				break // need a provably positive x-free factor
			}
			// f*c == num/den  <=>  f == num/(den*c)
			if den != nil {
				c = expr.Mul(den, c)
			}
			return bc.solvePin(f, num, c, xSlot)
		}
	}
	return nil, nil, false
}

// tryProbe absorbs an order comparison as a binary-search probe when the
// direction analysis proves l-r weakly monotone in x.
func (bc *boundsCtx) tryProbe(g *BoundGroup, op expr.Op, l, r expr.Expr, xSlot int) bool {
	switch op {
	case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
	default:
		return false
	}
	d := dirAdd(bc.direction(l, xSlot), dirFlip(bc.direction(r, xSlot)))
	if d != dirInc && d != dirDec {
		return false
	}
	// l-r increasing and rejection l<r (or l<=r): rejections sit at small
	// x, so the feasible values are a suffix — and the three mirrored
	// combinations likewise.
	g.Probes = append(g.Probes, Probe{
		Pred:           &expr.Binary{Op: op, L: l, R: r},
		SuffixFeasible: (d == dirInc) == (op == expr.OpLt || op == expr.OpLe),
	})
	return true
}

// --- direction (monotonicity) analysis ------------------------------------

type dirKind uint8

const (
	dirNone  dirKind = iota // unknown / not monotone
	dirConst                // x-free
	dirInc                  // weakly increasing in x
	dirDec                  // weakly decreasing in x
)

func dirFlip(d dirKind) dirKind {
	switch d {
	case dirInc:
		return dirDec
	case dirDec:
		return dirInc
	}
	return d
}

// dirAdd combines the directions of two terms of a sum (also the join
// for min/max: const is the identity, equal directions survive, mixtures
// are unknown).
func dirAdd(a, b dirKind) dirKind {
	switch {
	case a == dirNone || b == dirNone:
		return dirNone
	case a == dirConst:
		return b
	case b == dirConst:
		return a
	case a == b:
		return a
	}
	return dirNone
}

// scaleDir is the direction of a monotone term multiplied by an x-free
// factor of known sign.
func scaleDir(c ival, d dirKind) dirKind {
	switch {
	case d == dirConst:
		return dirConst
	case c.lo >= 0:
		return d
	case c.hi <= 0:
		return dirFlip(d)
	}
	return dirNone
}

// direction classifies e as weakly monotone in the loop variable.
// Everything it cannot prove is dirNone; total-semantics hazards (a
// divisor interval containing 0 makes floor division non-monotone, since
// x/0 == 0) fail the interval side conditions and land there too.
func (bc *boundsCtx) direction(e expr.Expr, xSlot int) dirKind {
	switch n := e.(type) {
	case *expr.Lit:
		return dirConst
	case *expr.Ref:
		if n.Slot == xSlot {
			return dirInc
		}
		return dirConst
	case *expr.Unary:
		if n.Op == expr.OpNeg {
			return dirFlip(bc.direction(n.X, xSlot))
		}
	case *expr.Binary:
		dl, dr := bc.direction(n.L, xSlot), bc.direction(n.R, xSlot)
		switch n.Op {
		case expr.OpAdd:
			return dirAdd(dl, dr)
		case expr.OpSub:
			return dirAdd(dl, dirFlip(dr))
		case expr.OpMul:
			switch {
			case dl == dirConst && dr == dirConst:
				return dirConst
			case dl == dirConst:
				return scaleDir(bc.intervalOf(n.L), dr)
			case dr == dirConst:
				return scaleDir(bc.intervalOf(n.R), dl)
			case dl == dr && (dl == dirInc || dl == dirDec) &&
				bc.intervalOf(n.L).lo >= 0 && bc.intervalOf(n.R).lo >= 0:
				return dl // product of nonnegative co-monotone terms
			}
		case expr.OpDiv:
			if dl == dirConst && dr == dirConst {
				return dirConst
			}
			if dr == dirConst {
				ir := bc.intervalOf(n.R)
				if ir.lo >= 1 {
					return dl
				}
				if ir.hi <= -1 {
					return dirFlip(dl)
				}
				return dirNone
			}
			if dl == dirConst && (dr == dirInc || dr == dirDec) && bc.intervalOf(n.R).lo >= 1 {
				// Fixed numerator over a monotone, strictly positive
				// divisor: the quotient moves opposite a nonnegative
				// numerator, with a nonpositive one.
				il := bc.intervalOf(n.L)
				if il.lo >= 0 {
					return dirFlip(dr)
				}
				if il.hi <= 0 {
					return dr
				}
			}
		}
	case *expr.Call:
		switch n.Fn {
		case "min", "max":
			out := dirConst
			for _, a := range n.Args {
				out = dirAdd(out, bc.direction(a, xSlot))
			}
			return out
		case "abs":
			if len(n.Args) == 1 {
				iv := bc.intervalOf(n.Args[0])
				if iv.lo >= 0 {
					return bc.direction(n.Args[0], xSlot)
				}
				if iv.hi <= 0 {
					return dirFlip(bc.direction(n.Args[0], xSlot))
				}
			}
		}
	}
	return dirNone
}

// --- interval analysis -----------------------------------------------------

// ival is a saturating int64 value interval; math.MinInt64/MaxInt64 act
// as -inf/+inf sentinels.
type ival struct{ lo, hi int64 }

var topIval = ival{math.MinInt64, math.MaxInt64}

func hull(a, b ival) ival { return ival{min(a.lo, b.lo), max(a.hi, b.hi)} }

func satAdd(a, b int64) int64 {
	switch {
	case a > 0 && b > math.MaxInt64-a:
		return math.MaxInt64
	case a < 0 && b < math.MinInt64-a:
		return math.MinInt64
	}
	return a + b
}

func satNeg(a int64) int64 {
	if a == math.MinInt64 {
		return math.MaxInt64
	}
	return -a
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return math.MaxInt64
	}
	r := a * b
	if r/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return r
}

func iNeg(a ival) ival { return ival{satNeg(a.hi), satNeg(a.lo)} }

func iAdd(a, b ival) ival { return ival{satAdd(a.lo, b.lo), satAdd(a.hi, b.hi)} }

func iMul(a, b ival) ival {
	c1, c2 := satMul(a.lo, b.lo), satMul(a.lo, b.hi)
	c3, c4 := satMul(a.hi, b.lo), satMul(a.hi, b.hi)
	return ival{min(min(c1, c2), min(c3, c4)), max(max(c1, c2), max(c3, c4))}
}

// iDivPos bounds floor(a/b) for b.lo >= 1. Floor division by a positive
// divisor is monotone in each argument, so the corners bound the result.
func iDivPos(a, b ival) ival {
	c1, c2 := expr.FloorDiv(a.lo, b.lo), expr.FloorDiv(a.lo, b.hi)
	c3, c4 := expr.FloorDiv(a.hi, b.lo), expr.FloorDiv(a.hi, b.hi)
	return ival{min(min(c1, c2), min(c3, c4)), max(max(c1, c2), max(c3, c4))}
}

// intervalOf computes a sound value interval for e against the current
// slot intervals. And/or return one of their operand values, so the hull
// is sound; comparisons and not are 0/1.
func (bc *boundsCtx) intervalOf(e expr.Expr) ival {
	switch n := e.(type) {
	case *expr.Lit:
		return ival{n.V.I, n.V.I}
	case *expr.Ref:
		if iv, ok := bc.slotIval[n.Slot]; ok {
			return iv
		}
		return topIval
	case *expr.Unary:
		if n.Op == expr.OpNeg {
			return iNeg(bc.intervalOf(n.X))
		}
		return ival{0, 1} // not
	case *expr.Binary:
		switch n.Op {
		case expr.OpAdd:
			return iAdd(bc.intervalOf(n.L), bc.intervalOf(n.R))
		case expr.OpSub:
			return iAdd(bc.intervalOf(n.L), iNeg(bc.intervalOf(n.R)))
		case expr.OpMul:
			return iMul(bc.intervalOf(n.L), bc.intervalOf(n.R))
		case expr.OpDiv:
			if b := bc.intervalOf(n.R); b.lo >= 1 {
				return iDivPos(bc.intervalOf(n.L), b)
			}
			return topIval
		case expr.OpMod:
			if b := bc.intervalOf(n.R); b.lo >= 1 {
				return ival{0, satAdd(b.hi, -1)}
			}
			return topIval
		case expr.OpAnd, expr.OpOr:
			return hull(bc.intervalOf(n.L), bc.intervalOf(n.R))
		}
		// A comparison the operand intervals decide is a constant, as in
		// the ceiling t/c + (t mod c != 0) of a constant t.
		switch proveCmp(n.Op, bc.intervalOf(n.L), bc.intervalOf(n.R)) {
		case TriTrue:
			return ival{1, 1}
		case TriFalse:
			return ival{0, 0}
		}
		return ival{0, 1}
	case *expr.Ternary:
		return hull(bc.intervalOf(n.Then), bc.intervalOf(n.Else))
	case *expr.Call:
		switch n.Fn {
		case "min", "max":
			if len(n.Args) == 0 {
				return topIval
			}
			out := bc.intervalOf(n.Args[0])
			for _, a := range n.Args[1:] {
				iv := bc.intervalOf(a)
				if n.Fn == "min" {
					out = ival{min(out.lo, iv.lo), min(out.hi, iv.hi)}
				} else {
					out = ival{max(out.lo, iv.lo), max(out.hi, iv.hi)}
				}
			}
			return out
		case "abs":
			if len(n.Args) == 1 {
				iv := bc.intervalOf(n.Args[0])
				switch {
				case iv.lo >= 0:
					return iv
				case iv.hi <= 0:
					return iNeg(iv)
				}
				return ival{0, max(satNeg(iv.lo), iv.hi)}
			}
		}
		return topIval
	case *expr.Table2D:
		lo, hi := n.Default, n.Default
		for _, row := range n.Data {
			for _, v := range row {
				lo, hi = min(lo, v), max(hi, v)
			}
		}
		return ival{lo, hi}
	}
	return topIval
}

// domainIval bounds the values a bound domain can yield. Algebra domains
// hull both operands for every operator: a sound superset.
func (bc *boundsCtx) domainIval(d space.DomainExpr) ival {
	switch n := d.(type) {
	case *space.RangeDomain:
		start, stop := bc.intervalOf(n.Start), bc.intervalOf(n.Stop)
		step := bc.intervalOf(n.Step)
		up := ival{start.lo, satAdd(stop.hi, -1)}
		down := ival{satAdd(stop.lo, 1), start.hi}
		switch {
		case step.lo >= 1:
			return up
		case step.hi <= -1:
			return down
		}
		return hull(up, down)
	case *space.ListDomain:
		if len(n.Elems) == 0 {
			return topIval
		}
		out := bc.intervalOf(n.Elems[0])
		for _, e := range n.Elems[1:] {
			out = hull(out, bc.intervalOf(e))
		}
		return out
	case *space.CondDomain:
		return hull(bc.domainIval(n.Then), bc.domainIval(n.Else))
	case *space.AlgebraDomain:
		return hull(bc.domainIval(n.L), bc.domainIval(n.R))
	}
	return topIval
}

// --- expression helpers ----------------------------------------------------

// substSlots replaces references to substituted slots with their
// (already substituted) defining expressions.
func (bc *boundsCtx) substSlots(e expr.Expr, subst map[int]expr.Expr) expr.Expr {
	if len(subst) == 0 {
		return e
	}
	switch n := e.(type) {
	case *expr.Lit:
		return e
	case *expr.Ref:
		if def, ok := subst[n.Slot]; ok {
			return def
		}
		return e
	case *expr.Unary:
		return &expr.Unary{Op: n.Op, X: bc.substSlots(n.X, subst)}
	case *expr.Binary:
		return &expr.Binary{Op: n.Op, L: bc.substSlots(n.L, subst), R: bc.substSlots(n.R, subst)}
	case *expr.Ternary:
		return &expr.Ternary{
			Cond: bc.substSlots(n.Cond, subst),
			Then: bc.substSlots(n.Then, subst),
			Else: bc.substSlots(n.Else, subst),
		}
	case *expr.Call:
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = bc.substSlots(a, subst)
		}
		return &expr.Call{Fn: n.Fn, Args: args}
	case *expr.Table2D:
		return &expr.Table2D{Name: n.Name, Data: n.Data, Row: bc.substSlots(n.Row, subst), Col: bc.substSlots(n.Col, subst), Default: n.Default}
	}
	return e
}

// refsSlot reports whether e references slot.
func refsSlot(e expr.Expr, slot int) bool {
	switch n := e.(type) {
	case *expr.Lit:
		return false
	case *expr.Ref:
		return n.Slot == slot
	case *expr.Unary:
		return refsSlot(n.X, slot)
	case *expr.Binary:
		return refsSlot(n.L, slot) || refsSlot(n.R, slot)
	case *expr.Ternary:
		return refsSlot(n.Cond, slot) || refsSlot(n.Then, slot) || refsSlot(n.Else, slot)
	case *expr.Call:
		for _, a := range n.Args {
			if refsSlot(a, slot) {
				return true
			}
		}
		return false
	case *expr.Table2D:
		return refsSlot(n.Row, slot) || refsSlot(n.Col, slot)
	}
	return false
}

// flattenOr splits a disjunction into its terms. Or returns one of its
// operand values, so the whole is truthy iff some term is truthy.
func flattenOr(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpOr {
		return append(flattenOr(b.L), flattenOr(b.R)...)
	}
	return []expr.Expr{e}
}

// asCmp unwraps not-chains and returns e as a comparison.
func asCmp(e expr.Expr) (expr.Op, expr.Expr, expr.Expr, bool) {
	for {
		u, ok := e.(*expr.Unary)
		if !ok || u.Op != expr.OpNot {
			break
		}
		inner, ok := u.X.(*expr.Binary)
		if !ok {
			return 0, nil, nil, false
		}
		inv, ok := invertCmp(inner.Op)
		if !ok {
			return 0, nil, nil, false
		}
		e = &expr.Binary{Op: inv, L: inner.L, R: inner.R}
	}
	b, ok := e.(*expr.Binary)
	if !ok {
		return 0, nil, nil, false
	}
	switch b.Op {
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		return b.Op, b.L, b.R, true
	}
	return 0, nil, nil, false
}

// invertCmp returns the negation of a comparison operator.
func invertCmp(op expr.Op) (expr.Op, bool) {
	switch op {
	case expr.OpEq:
		return expr.OpNe, true
	case expr.OpNe:
		return expr.OpEq, true
	case expr.OpLt:
		return expr.OpGe, true
	case expr.OpLe:
		return expr.OpGt, true
	case expr.OpGt:
		return expr.OpLe, true
	case expr.OpGe:
		return expr.OpLt, true
	}
	return 0, false
}

// swapCmp mirrors a comparison across swapped operands.
func swapCmp(op expr.Op) expr.Op {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	}
	return op // Eq, Ne
}
