package engine

import (
	"repro/internal/expr"
	"repro/internal/plan"
)

// Runtime side of the plan's bounds-compilation pass (plan/bounds.go): at
// every entry of a narrowed loop the engine evaluates the compiled bound
// groups once against the current environment and shrinks [start, stop)
// before the first body iteration. Groups apply in body order and each
// skipped value is credited to its constraint's Checks/Kills counters, so
// funnel totals are bit-identical to a run without narrowing; the savings
// surface only in LoopVisits and the BoundsNarrowed/IterationsSkipped
// counters.
//
// One routine, narrowRange, runs for every caller. Each loop's bounds are
// lowered once to expr.IntFn closures over a register file: the compiled
// and VM backends compile them (expr.CompileInt), while the interpreter
// wraps its own evaluator in closures built once per worker, which read
// the trial value of a probe from the register file.

// compiledBounds is a LoopBounds lowered to register-file closures.
type compiledBounds struct {
	tempRefs int
	groups   []compiledBoundGroup
}

type compiledBoundGroup struct {
	statsID int
	lo, hi  []expr.IntFn
	probes  []compiledProbe
}

type compiledProbe struct {
	pred   expr.IntFn // nonzero when the trial value in reg[slot] is rejected
	slot   int
	suffix bool
}

// boundLowering turns a bound (probe false) or probe predicate (probe
// true) into an expr.IntFn.
type boundLowering func(e expr.Expr, probe bool) (expr.IntFn, error)

// compileBound is the compiled and VM backends' lowering.
func compileBound(e expr.Expr, _ bool) (expr.IntFn, error) { return expr.CompileInt(e) }

// boxedBounds is the interpreter's lowering: eval evaluates an
// expression against its environment, and bind binds the loop variable
// to a probe's trial value, which narrowRange leaves in reg[slot].
func boxedBounds(eval func(expr.Expr) expr.Value, bind func(int64), slot int) boundLowering {
	return func(e expr.Expr, probe bool) (expr.IntFn, error) {
		if probe {
			return func(r []int64) int64 {
				bind(r[slot])
				return b2i(eval(e).Truthy())
			}, nil
		}
		return func([]int64) int64 { return eval(e).I }, nil
	}
}

// lowerLoopBounds lowers lb for the loop variable in slot.
func lowerLoopBounds(lb *plan.LoopBounds, slot int, lower boundLowering) (*compiledBounds, error) {
	cb := &compiledBounds{tempRefs: lb.TempRefs}
	for _, g := range lb.Groups {
		cg := compiledBoundGroup{statsID: g.StatsID}
		for _, e := range g.Lo {
			fn, err := lower(e, false)
			if err != nil {
				return nil, err
			}
			cg.lo = append(cg.lo, fn)
		}
		for _, e := range g.Hi {
			fn, err := lower(e, false)
			if err != nil {
				return nil, err
			}
			cg.hi = append(cg.hi, fn)
		}
		for _, p := range g.Probes {
			fn, err := lower(p.Pred, true)
			if err != nil {
				return nil, err
			}
			cg.probes = append(cg.probes, compiledProbe{pred: fn, slot: slot, suffix: p.SuffixFeasible})
		}
		cb.groups = append(cb.groups, cg)
	}
	return cb, nil
}

// narrowRange applies cb to the range [start, stop) with the given step,
// returning the tightened bounds. step must be positive. Skipped
// iterations are credited in st at loop depth d. Probes write trial
// values into the loop-variable register; callers reset it afterwards
// (every caller stores the start value before iterating).
func narrowRange(cb *compiledBounds, reg []int64, start, stop, step int64, st *Stats, d int) (int64, int64) {
	lo, hi := start, stop
	if rangeCount(lo, hi, step) == 0 {
		return lo, hi
	}
	if cb.tempRefs > 0 {
		st.TempHits[d] += int64(cb.tempRefs)
	}
	var totalSkipped int64
	for gi := range cb.groups {
		g := &cb.groups[gi]
		before := rangeCount(lo, hi, step)
		if before == 0 {
			break
		}
		for _, fn := range g.lo {
			if b := fn(reg); b > lo {
				lo += ceilDiv(b-lo, step) * step
			}
		}
		for _, fn := range g.hi {
			if b := fn(reg); b < hi {
				hi = b
			}
		}
		for pi := range g.probes {
			p := &g.probes[pi]
			n := rangeCount(lo, hi, step)
			if n == 0 {
				break
			}
			rejects := func(i int64) bool {
				reg[p.slot] = lo + i*step
				return p.pred(reg) != 0
			}
			var k int64
			if p.suffix {
				k = searchK(n, func(i int64) bool { return !rejects(i) })
				lo += k * step
			} else {
				k = searchK(n, rejects)
				hi = lo + k*step
			}
		}
		if skipped := before - rangeCount(lo, hi, step); skipped > 0 {
			st.Checks[g.statsID] += skipped
			st.Kills[g.statsID] += skipped
			totalSkipped += skipped
		}
	}
	if totalSkipped > 0 {
		st.BoundsNarrowed[d]++
		st.IterationsSkipped[d] += totalSkipped
	}
	return lo, hi
}

// rangeCount returns the number of values of the ascending progression
// start, start+step, ... below stop.
func rangeCount(start, stop, step int64) int64 {
	if stop <= start {
		return 0
	}
	return (stop - start + step - 1) / step
}

// ceilDiv returns ceil(a/b) for a >= 0, b >= 1.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// searchK returns the smallest k in [0, n] with f(k) true, assuming f is
// monotone (false for a prefix of ks, true for the rest).
func searchK(n int64, f func(int64) bool) int64 {
	lo, hi := int64(0), n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
