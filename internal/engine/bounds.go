package engine

import (
	"repro/internal/expr"
	"repro/internal/plan"
)

// Runtime side of the plan's bounds-compilation pass (plan/bounds.go): at
// every entry of a narrowed loop the engine evaluates the compiled bound
// groups once against the current environment and shrinks [start, stop)
// before the first body iteration: Lo/Hi bounds, then pins, then probes
// within a group. Groups apply in body order and each
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
	pins    []compiledPin
	probes  []compiledProbe
}

type compiledPin struct{ num, den expr.IntFn }

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
		for _, p := range g.Pins {
			num, err := lower(p.Num, false)
			if err != nil {
				return nil, err
			}
			den, err := lower(p.Den, false)
			if err != nil {
				return nil, err
			}
			cg.pins = append(cg.pins, compiledPin{num: num, den: den})
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
// (every caller stores the start value before iterating). The count n of
// values left is kept as the bounds move, counted in uint64 as
// plan.rangeLen counts, so a range wider than MaxInt64 narrows exactly;
// a bound or probe past the last value empties the range (lo = hi).
func narrowRange(cb *compiledBounds, reg []int64, start, stop, step int64, st *Stats, d int) (int64, int64) {
	lo, hi := start, stop
	n := rangeCount(lo, hi, step)
	if n == 0 {
		return lo, hi
	}
	if cb.tempRefs > 0 {
		st.TempHits[d] += int64(cb.tempRefs)
	}
	var totalSkipped int64
	for gi := range cb.groups {
		g := &cb.groups[gi]
		if n == 0 {
			break
		}
		before := n
		for _, fn := range g.lo {
			if b := fn(reg); b > lo {
				lo, n = dropFirst(lo, hi, step, n, rangeCount(lo, b, step))
			}
		}
		for _, fn := range g.hi {
			if b := fn(reg); b < hi {
				hi = b
				n = rangeCount(lo, hi, step)
			}
		}
		for _, p := range g.pins {
			if n == 0 {
				break
			}
			lo, hi, n = pinRange(p.num(reg), p.den(reg), lo, hi, step)
		}
		for pi := range g.probes {
			p := &g.probes[pi]
			if n == 0 {
				break
			}
			rejects := func(i uint64) bool {
				reg[p.slot] = nth(lo, step, i)
				return p.pred(reg) != 0
			}
			if p.suffix {
				lo, n = dropFirst(lo, hi, step, n, searchK(n, func(i uint64) bool { return !rejects(i) }))
			} else if k := searchK(n, rejects); k < n {
				hi, n = nth(lo, step, k), k
			}
		}
		if skipped := int64(before - n); skipped > 0 {
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

// pinRange narrows the nonempty progression lo, lo+step, ... below hi to
// the value num / den, with one division: to that value when den divides
// num and the value lies on the progression, and to nothing otherwise.
// The plan proves den >= 1; a smaller den, reachable only through a
// wrapped product, leaves nothing instead of dividing by zero.
func pinRange(num, den, lo, hi, step int64) (int64, int64, uint64) {
	if den >= 1 {
		if v, r := num/den, num%den; r == 0 && v >= lo && v < hi && (uint64(v)-uint64(lo))%uint64(step) == 0 {
			return v, v + 1, 1
		}
	}
	return hi, hi, 0
}

// rangeCount returns the number of values of the ascending progression
// start, start+step, ... below stop, in uint64: stop - start may exceed
// MaxInt64.
func rangeCount(start, stop, step int64) uint64 {
	if stop <= start {
		return 0
	}
	return (uint64(stop)-uint64(start)-1)/uint64(step) + 1
}

// nth returns value i of the progression from lo, for i below its count,
// where it cannot wrap.
func nth(lo, step int64, i uint64) int64 { return int64(uint64(lo) + i*uint64(step)) }

// dropFirst drops the first k of the n values of [lo, hi), returning the
// new start and count: hi and 0 when k reaches n.
func dropFirst(lo, hi, step int64, n, k uint64) (int64, uint64) {
	if k >= n {
		return hi, 0
	}
	return nth(lo, step, k), n - k
}

// searchK returns the smallest k in [0, n] with f(k) true, assuming f is
// monotone (false for a prefix of ks, true for the rest).
func searchK(n uint64, f func(uint64) bool) uint64 {
	lo, hi := uint64(0), n
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
