// Program.Verify: a cross-backend IR invariant checker. Every engine
// (interpreter, VM, closure compiler), both code generators, and the
// checkpoint fingerprint all consume the one Program structure, so a
// malformed plan corrupts them all identically — and the fuzz grids can
// only catch it indirectly, as survivor drift. Verify checks the
// structural contract directly:
//
//   - slot sanity: every setting, loop variable, temp, and step target
//     occupies the slot the Scope assigned to its name;
//   - def-before-use: walking prelude → loops in execution order, every
//     expression reads only slots already bound (settings, outer loop
//     variables, earlier assigns), including the optimizer's $t temps;
//   - loop-order DAG validity: the nest respects Graph reachability, so
//     reordering never hoisted a loop above one it depends on;
//   - bound-group sanity: Lo/Hi and pin expressions are
//     loop-variable-free (they evaluate at loop entry), and fully-absorbed
//     checks are gone from every body while partial groups keep their
//     residual guard and sit last in the group list;
//   - no dead assignments: every assignment step's slot is read by a later
//     step, a deeper loop's entry or a host function (sweepDead);
//   - chunk layout: LaneOf/LaneSlots form a bijection rooted at the
//     innermost loop variable, and Vec marks appear only innermost;
//   - tabulation: table windows line up with the inner domain (RowWords,
//     value-indexed grids, ByStats ↔ StatsID agreement);
//   - tuple-slot bijection: the declaration-order tuple slots are a
//     permutation of the nest-order iterator slots;
//   - stats IDs: check steps and bound groups cover constraint indices
//     consistently with prog.Constraints.
//
// Tests run Verify unconditionally on every compiled plan; the cmds
// expose it behind a -verify debug flag.
package plan

import (
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/space"
)

// Verify checks the IR invariants of a compiled Program and returns every
// violation found (nil when the plan is well-formed).
func (p *Program) Verify() error {
	v := &verifier{prog: p}
	v.checkScope()
	v.checkWalk()
	v.checkLoopOrder()
	v.checkVector()
	v.checkTabulation()
	v.checkTuples()
	v.checkTemps()
	sweepDead(p, nil, func(depth, i int) {
		steps := p.Prelude
		if depth >= 0 {
			steps = p.Loops[depth].Steps
		}
		v.errf("depth %d step %d (%s): dead assignment, nothing reads slot %d", depth, i, steps[i].Name, steps[i].Slot)
	})
	return errors.Join(v.errs...)
}

type verifier struct {
	prog *Program
	errs []error
}

func (v *verifier) errf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Errorf("plan verify: "+format, args...))
}

func (v *verifier) slotOK(slot int) bool { return slot >= 0 && slot < v.prog.NumSlots() }

// checkScope verifies that named entities sit in the slots the Scope
// assigned to their names.
func (v *verifier) checkScope() {
	for _, s := range v.prog.Settings {
		if got, ok := v.prog.Scope.Slot(s.Name); !ok || got != s.Slot {
			v.errf("setting %s: slot %d does not match scope slot %d", s.Name, s.Slot, got)
		}
	}
	for d, lp := range v.prog.Loops {
		if got, ok := v.prog.Scope.Slot(lp.Iter.Name); !ok || got != lp.Slot {
			v.errf("loop %d (%s): slot %d does not match scope slot %d", d, lp.Iter.Name, lp.Slot, got)
		}
	}
}

// checkWalk simulates execution order and verifies def-before-use, step
// depths, and stats-ID consistency, including bound-group placement.
func (v *verifier) checkWalk() {
	defined := make([]bool, v.prog.NumSlots())
	for _, s := range v.prog.Settings {
		if v.slotOK(s.Slot) {
			defined[s.Slot] = true
		}
	}
	// Stats bookkeeping: where each constraint's check step and bound
	// group live.
	nCons := len(v.prog.Constraints)
	checkDepth := make(map[int]int) // StatsID -> loop depth of its CheckStep
	groupDepth := make(map[int]int) // StatsID -> loop depth of its bound group
	groupFull := make(map[int]bool) // StatsID -> absorbed fully
	seenStats := make(map[int]bool) // CheckStep StatsIDs, at most one each

	checkRefs := func(where string, e expr.Expr, extra int) {
		eachRefSlot(e, func(slot int) {
			if slot == extra {
				return
			}
			if !v.slotOK(slot) {
				v.errf("%s: slot %d out of range [0,%d)", where, slot, v.prog.NumSlots())
				return
			}
			if !defined[slot] {
				v.errf("%s: reads slot %d before it is bound", where, slot)
			}
		})
	}
	checkDomainRefs := func(where string, d space.DomainExpr) {
		eachDomainExpr(d, func(e expr.Expr) { checkRefs(where, e, -1) })
	}
	checkStep := func(depth, idx int, st *Step) {
		where := fmt.Sprintf("depth %d step %d (%s)", depth, idx, st.Name)
		if st.Depth != depth {
			v.errf("%s: Depth field %d does not match location %d", where, st.Depth, depth)
		}
		switch st.Kind {
		case AssignStep:
			if st.StatsID != -1 {
				v.errf("%s: assign step has StatsID %d, want -1", where, st.StatsID)
			}
			if st.Expr == nil {
				v.errf("%s: assign step without expression", where)
				return
			}
			checkRefs(where, st.Expr, -1)
			if !v.slotOK(st.Slot) {
				v.errf("%s: target slot %d out of range", where, st.Slot)
				return
			}
			defined[st.Slot] = true
		case CheckStep:
			if st.StatsID < 0 || st.StatsID >= nCons {
				v.errf("%s: StatsID %d out of range [0,%d)", where, st.StatsID, nCons)
			} else {
				if seenStats[st.StatsID] {
					v.errf("%s: StatsID %d checked twice", where, st.StatsID)
				}
				seenStats[st.StatsID] = true
				checkDepth[st.StatsID] = depth
				if c := v.prog.Constraints[st.StatsID]; c != st.Constraint {
					v.errf("%s: constraint does not match Constraints[%d] (%s)", where, st.StatsID, c.Name)
				}
			}
			if st.Constraint != nil && st.Constraint.Deferred() {
				for _, a := range st.ArgSlots {
					if !v.slotOK(a) {
						v.errf("%s: arg slot %d out of range", where, a)
					} else if !defined[a] {
						v.errf("%s: arg slot %d read before it is bound", where, a)
					}
				}
			} else if st.Expr == nil {
				v.errf("%s: expression check step without predicate", where)
			} else {
				checkRefs(where, st.Expr, -1)
			}
		default:
			v.errf("%s: unknown step kind %d", where, st.Kind)
		}
	}

	for i := range v.prog.Prelude {
		checkStep(-1, i, &v.prog.Prelude[i])
	}
	for d, lp := range v.prog.Loops {
		where := fmt.Sprintf("loop %d (%s)", d, lp.Iter.Name)
		// Domain and deferred/closure args evaluate at loop entry: the
		// loop variable itself is not bound yet.
		if lp.Iter.Kind == space.ExprIter {
			if lp.Domain == nil {
				v.errf("%s: expression iterator without a bound domain", where)
			} else {
				checkDomainRefs(where+" domain", lp.Domain)
			}
		} else {
			for _, a := range lp.ArgSlots {
				if !v.slotOK(a) {
					v.errf("%s: arg slot %d out of range", where, a)
				} else if !defined[a] {
					v.errf("%s: arg slot %d read before it is bound", where, a)
				}
			}
		}
		if lp.Bounds != nil {
			for gi := range lp.Bounds.Groups {
				g := &lp.Bounds.Groups[gi]
				gwhere := fmt.Sprintf("%s bound group %d (%s)", where, gi, g.Name)
				if len(g.Lo)+len(g.Hi)+len(g.Pins)+len(g.Probes) == 0 {
					v.errf("%s: empty group", gwhere)
				}
				if g.StatsID < 0 || g.StatsID >= nCons {
					v.errf("%s: StatsID %d out of range [0,%d)", gwhere, g.StatsID, nCons)
				} else {
					if v.prog.Constraints[g.StatsID].Name != g.Name {
						v.errf("%s: name does not match Constraints[%d] (%s)",
							gwhere, g.StatsID, v.prog.Constraints[g.StatsID].Name)
					}
					if _, dup := groupDepth[g.StatsID]; dup {
						v.errf("%s: constraint absorbed by two loops", gwhere)
					}
					groupDepth[g.StatsID] = d
					groupFull[g.StatsID] = g.Full
				}
				if !g.Full && gi != len(lp.Bounds.Groups)-1 {
					v.errf("%s: partial group is not last", gwhere)
				}
				// Lo/Hi and pins evaluate at loop entry: loop-variable-free,
				// and every other slot already bound.
				g.eachEntryExpr(func(pe *expr.Expr) {
					if refsSlot(*pe, lp.Slot) {
						v.errf("%s: Lo/Hi bound or pin references the loop variable", gwhere)
					}
					checkRefs(gwhere, *pe, -1)
				})
				for pi := range g.Probes {
					pr := &g.Probes[pi]
					if pr.Pred == nil {
						v.errf("%s: probe %d without predicate", gwhere, pi)
						continue
					}
					// A probe usually reads the loop variable it searches
					// over, but the optimizer's simplifier may fold it out
					// of a weakly-monotone predicate (x*0 terms and the
					// like) — so only def-before-use is checked, with the
					// loop variable itself admitted mid-search.
					checkRefs(gwhere, pr.Pred, lp.Slot)
				}
			}
		}
		if !v.slotOK(lp.Slot) {
			v.errf("%s: loop slot %d out of range", where, lp.Slot)
		} else {
			defined[lp.Slot] = true
		}
		for i := range lp.Steps {
			checkStep(d, i, &lp.Steps[i])
		}
	}

	// Check-step / bound-group exclusivity: a fully absorbed constraint
	// has no residual check anywhere; a partial group keeps its residual
	// guard in the same loop body.
	for id, d := range groupDepth {
		cd, hasCheck := checkDepth[id]
		if groupFull[id] && hasCheck {
			v.errf("constraint %s: fully absorbed at loop %d but still checked at depth %d",
				v.prog.Constraints[id].Name, d, cd)
		}
		if !groupFull[id] && (!hasCheck || cd != d) {
			v.errf("constraint %s: partially absorbed at loop %d without a residual guard there",
				v.prog.Constraints[id].Name, d)
		}
	}
	// Every constraint is accounted for: a check step, or a full group.
	for id := range v.prog.Constraints {
		if !seenStats[id] && !groupFull[id] {
			v.errf("constraint %s (StatsID %d): neither checked nor absorbed",
				v.prog.Constraints[id].Name, id)
		}
	}
}

// checkLoopOrder verifies the nest against the dependency DAG: whenever a
// path runs a → b (b depends on a, possibly through derived variables),
// loop a must open first.
func (v *verifier) checkLoopOrder() {
	if v.prog.Graph == nil {
		v.errf("missing dependency graph")
		return
	}
	names := v.prog.IterNames()
	for i, a := range names {
		for _, b := range names[:i] {
			// b opens before a; a must not be one of b's dependencies.
			if v.prog.Graph.Reaches(a, b) {
				v.errf("loop order: %s opens before its dependency %s", b, a)
			}
		}
	}
	if ri := v.prog.Reorder; ri != nil && ri.Applied {
		if len(ri.Chosen) != len(names) {
			v.errf("reorder: chosen order lists %d loops, nest has %d", len(ri.Chosen), len(names))
			return
		}
		for i, n := range names {
			if ri.Chosen[i] != n {
				v.errf("reorder: applied order %v does not match nest %v", ri.Chosen, names)
				return
			}
		}
	}
}

// checkVector verifies the innermost-chunk lane layout: a bijection
// between LaneSlots and the non-negative entries of LaneOf, rooted at the
// innermost loop variable, with Vec marks confined to the innermost body.
func (v *verifier) checkVector() {
	vec := v.prog.Vector
	if vec == nil {
		if len(v.prog.Loops) > 0 {
			v.errf("vector: nil layout on a program with loops")
		}
		return
	}
	inner := len(v.prog.Loops) - 1
	if vec.Depth != inner {
		v.errf("vector: depth %d, innermost loop is %d", vec.Depth, inner)
	}
	if len(vec.LaneOf) != v.prog.NumSlots() {
		v.errf("vector: LaneOf covers %d slots, scope has %d", len(vec.LaneOf), v.prog.NumSlots())
		return
	}
	if len(vec.LaneSlots) == 0 || inner < 0 || vec.LaneSlots[0] != v.prog.Loops[inner].Slot {
		v.errf("vector: lane 0 is not the innermost loop variable")
	}
	for lane, slot := range vec.LaneSlots {
		if !v.slotOK(slot) {
			v.errf("vector: lane %d holds out-of-range slot %d", lane, slot)
			continue
		}
		if vec.LaneOf[slot] != lane {
			v.errf("vector: LaneOf[%d] = %d, want %d", slot, vec.LaneOf[slot], lane)
		}
	}
	lanes := 0
	for slot, lane := range vec.LaneOf {
		if lane < 0 {
			continue
		}
		lanes++
		if lane >= len(vec.LaneSlots) || vec.LaneSlots[lane] != slot {
			v.errf("vector: slot %d maps to lane %d, which does not map back", slot, lane)
		}
	}
	if lanes != len(vec.LaneSlots) {
		v.errf("vector: %d slots are lane-resident but %d lanes exist", lanes, len(vec.LaneSlots))
	}
	for d, lp := range v.prog.Loops {
		for i := range lp.Steps {
			st := &lp.Steps[i]
			if st.Vec && d != inner {
				v.errf("vector: step %s at depth %d marked Vec outside the innermost loop", st.Name, d)
			}
			if st.Vec && st.Kind == CheckStep && st.Constraint != nil && st.Constraint.Deferred() {
				v.errf("vector: deferred constraint %s marked Vec", st.Name)
			}
		}
	}
}

// checkTabulation verifies table-window alignment: tables agree with the
// inner domain geometry and the stats mapping is consistent.
func (v *verifier) checkTabulation() {
	tb := v.prog.Tab
	if tb == nil {
		return
	}
	inner := len(v.prog.Loops) - 1
	if tb.Depth != inner {
		v.errf("tabulation: depth %d, innermost loop is %d", tb.Depth, inner)
		return
	}
	lp := v.prog.Loops[inner]
	if tb.InnerSlot != lp.Slot || tb.InnerName != lp.Iter.Name {
		v.errf("tabulation: inner %s/slot %d does not match loop %s/slot %d",
			tb.InnerName, tb.InnerSlot, lp.Iter.Name, lp.Slot)
	}
	n := tb.N()
	if n == 0 {
		v.errf("tabulation: empty inner domain window")
	}
	if tb.ValueIndexed {
		if tb.Step == 0 {
			v.errf("tabulation: value-indexed window with zero step")
		} else {
			for i, val := range tb.Vals {
				if val != tb.Base+int64(i)*tb.Step {
					v.errf("tabulation: Vals[%d] = %d off the value grid base %d step %d",
						i, val, tb.Base, tb.Step)
					break
				}
			}
		}
	}
	wantWords := (n + 63) / 64
	for ti, t := range tb.Tables {
		where := fmt.Sprintf("tabulation table %d (%s)", ti, t.Name)
		if t.StatsID < 0 || t.StatsID >= len(v.prog.Constraints) {
			v.errf("%s: StatsID %d out of range", where, t.StatsID)
		} else if v.prog.Constraints[t.StatsID].Name != t.Name {
			v.errf("%s: name does not match Constraints[%d] (%s)",
				where, t.StatsID, v.prog.Constraints[t.StatsID].Name)
		}
		if got, ok := tb.ByStats[t.StatsID]; !ok || got != ti {
			v.errf("%s: ByStats[%d] = %d, want %d", where, t.StatsID, got, ti)
		}
		if t.RowWords != wantWords {
			v.errf("%s: RowWords %d, inner domain of %d values needs %d", where, t.RowWords, n, wantWords)
		}
		switch t.Kind {
		case UnaryTable:
			if len(t.Bits) != wantWords {
				v.errf("%s: unary bitset has %d words, want %d", where, len(t.Bits), wantWords)
			}
		case BinaryTable:
			if !v.slotOK(t.OuterSlot) {
				v.errf("%s: outer slot %d out of range", where, t.OuterSlot)
			} else if got, ok := v.prog.Scope.Slot(t.OuterName); !ok || got != t.OuterSlot {
				v.errf("%s: outer %s/slot %d does not match scope slot %d", where, t.OuterName, t.OuterSlot, got)
			}
			if t.Full {
				if t.OuterN <= 0 || t.OuterStep == 0 {
					v.errf("%s: full table with outer n=%d step=%d", where, t.OuterN, t.OuterStep)
				}
			} else if t.MaxRows <= 0 {
				v.errf("%s: lazy table with row-cache capacity %d", where, t.MaxRows)
			}
		default:
			v.errf("%s: unknown table kind %d", where, t.Kind)
		}
	}
	for id, ti := range tb.ByStats {
		if ti < 0 || ti >= len(tb.Tables) {
			v.errf("tabulation: ByStats[%d] = %d out of range", id, ti)
		}
	}
}

// checkTuples verifies that the declaration-order tuple slots are a
// permutation of the nest-order iterator slots.
func (v *verifier) checkTuples() {
	nest := v.prog.IterSlots()
	tuple := v.prog.TupleSlots()
	if len(nest) != len(tuple) {
		v.errf("tuple slots: %d declared vs %d in the nest", len(tuple), len(nest))
		return
	}
	seen := make(map[int]bool, len(nest))
	for _, s := range nest {
		seen[s] = true
	}
	for _, s := range tuple {
		if !seen[s] {
			v.errf("tuple slots: slot %d is not a loop variable", s)
		}
		delete(seen, s)
	}
	for s := range seen {
		v.errf("tuple slots: loop slot %d missing from the tuple", s)
	}
}

// checkTemps verifies the optimizer's temp registry against the placed
// assign steps.
func (v *verifier) checkTemps() {
	assigns := make(map[int]int) // slot -> depth of its Temp assign step
	walk := func(depth int, steps []Step) {
		for i := range steps {
			if steps[i].Kind == AssignStep && steps[i].Temp {
				assigns[steps[i].Slot] = depth
			}
		}
	}
	walk(-1, v.prog.Prelude)
	for d, lp := range v.prog.Loops {
		walk(d, lp.Steps)
	}
	for _, td := range v.prog.Temps {
		if got, ok := v.prog.Scope.Slot(td.Name); !ok || got != td.Slot {
			v.errf("temp %s: slot %d does not match scope slot %d", td.Name, td.Slot, got)
		}
		d, ok := assigns[td.Slot]
		if !ok {
			v.errf("temp %s: no Temp assign step targets slot %d", td.Name, td.Slot)
			continue
		}
		if d != td.Depth {
			v.errf("temp %s: assigned at depth %d, registry says %d", td.Name, d, td.Depth)
		}
	}
}

// eachRefSlot calls fn for every Ref slot in e.
func eachRefSlot(e expr.Expr, fn func(slot int)) {
	switch n := e.(type) {
	case *expr.Lit:
	case *expr.Ref:
		fn(n.Slot)
	case *expr.Unary:
		eachRefSlot(n.X, fn)
	case *expr.Binary:
		eachRefSlot(n.L, fn)
		eachRefSlot(n.R, fn)
	case *expr.Ternary:
		eachRefSlot(n.Cond, fn)
		eachRefSlot(n.Then, fn)
		eachRefSlot(n.Else, fn)
	case *expr.Call:
		for _, a := range n.Args {
			eachRefSlot(a, fn)
		}
	case *expr.Table2D:
		eachRefSlot(n.Row, fn)
		eachRefSlot(n.Col, fn)
	}
}

// eachDomainExpr calls fn for every expression embedded in d.
func eachDomainExpr(d space.DomainExpr, fn func(e expr.Expr)) {
	switch n := d.(type) {
	case *space.RangeDomain:
		fn(n.Start)
		fn(n.Stop)
		fn(n.Step)
	case *space.ListDomain:
		for _, e := range n.Elems {
			fn(e)
		}
	case *space.CondDomain:
		fn(n.Cond)
		eachDomainExpr(n.Then, fn)
		eachDomainExpr(n.Else, fn)
	case *space.AlgebraDomain:
		eachDomainExpr(n.L, fn)
		eachDomainExpr(n.R, fn)
	}
}
