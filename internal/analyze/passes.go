// The analyzer's pass suite. Each pass appends Diagnostics to the shared
// report; Analyze sorts them afterwards, so passes run in any order.
package analyze

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// passEmptyDomains flags iterators whose domain provably yields no values
// (E002): the whole space is empty before any constraint runs.
func passEmptyDomains(ctx *context) {
	for _, lp := range ctx.base.Loops {
		if lp.Iter.Kind != space.ExprIter || lp.Domain == nil {
			continue
		}
		if ctx.baseIv.ProvablyEmpty(lp.Domain) {
			ctx.add("E002", Error, lp.Iter.Name, lp.Iter.Pos,
				"iterator %s: domain %s is provably empty; the space has zero tuples",
				lp.Iter.Name, lp.Domain)
		}
	}
}

// passPredicates proves each expression constraint's rejection predicate
// over the full iteration domains: provably true means the constraint
// rejects every tuple (E001, the space is empty); provably false means it
// never rejects (W101, every evaluation is wasted).
func passPredicates(ctx *context) {
	eachCheck(ctx.base, func(depth int, st *plan.Step) {
		if st.Expr == nil {
			return // deferred: opaque host predicate
		}
		pos := ctx.constraintPos(st.Name)
		switch ctx.baseIv.Prove(st.Expr) {
		case plan.TriTrue:
			ctx.flagUnsat(st.Name, pos,
				"constraint %s always rejects: the constraint set is unsatisfiable and the space is provably empty",
				st.Name)
		case plan.TriFalse:
			ctx.add("W101", Warning, st.Name, pos,
				"constraint %s never rejects over the full domains (dead constraint); ~%s evaluations per sweep are wasted",
				st.Name, cardString(satProd(ctx.cards[:depth+1])))
		}
	})
}

// passBoundsContradiction looks for constraint *sets* that interval
// propagation proves unsatisfiable: after bounds compilation, a loop
// whose absorbed lower bounds provably meet its upper bounds (or leave
// its domain) admits no value for any assignment of the outer loops —
// the paper's pruning machinery, run to the empty-space fixpoint at plan
// time (E001).
func passBoundsContradiction(ctx *context) {
	type bound struct {
		name   string
		lo, hi int64
	}
	for _, lp := range ctx.narrow.Loops {
		if lp.Bounds == nil {
			continue
		}
		dlo, dhi := ctx.narIv.Domain(lp.Domain)
		var los, his []bound
		for _, g := range lp.Bounds.Groups {
			for _, e := range g.Lo {
				lo, hi := ctx.narIv.Expr(e)
				los = append(los, bound{g.Name, lo, hi})
			}
			for _, e := range g.Hi {
				lo, hi := ctx.narIv.Expr(e)
				his = append(his, bound{g.Name, lo, hi})
			}
			for _, p := range g.Pins {
				// A pin admits one value v: a Lo of v and a Hi of v+1.
				lo, hi := ctx.narIv.Pin(p)
				los = append(los, bound{g.Name, lo, hi})
				his = append(his, bound{g.Name, satInc(lo), satInc(hi)})
			}
		}
		for _, b := range los {
			// Feasible values satisfy v >= Lo; if every possible Lo
			// exceeds every domain value, the loop is empty.
			if b.lo != math.MinInt64 && b.lo > dhi {
				ctx.flagUnsat(b.name, ctx.constraintPos(b.name),
					"constraint %s forces %s >= %d, above its domain (max %d): the space is provably empty",
					b.name, lp.Iter.Name, b.lo, dhi)
			}
		}
		for _, b := range his {
			// Feasible values satisfy v < Hi (exclusive).
			if b.hi != math.MaxInt64 && b.hi <= dlo {
				ctx.flagUnsat(b.name, ctx.constraintPos(b.name),
					"constraint %s forces %s < %d, below its domain (min %d): the space is provably empty",
					b.name, lp.Iter.Name, b.hi, dlo)
			}
		}
		for _, l := range los {
			for _, h := range his {
				// Every Lo value >= every Hi value: no v satisfies
				// Lo <= v < Hi under any outer assignment.
				if l.lo == math.MinInt64 || l.lo < h.hi {
					continue
				}
				names := l.name
				if h.name != l.name {
					names = l.name + " and " + h.name
				}
				ctx.flagUnsat(l.name, ctx.constraintPos(h.name),
					"constraints %s leave loop %s with a provably empty range (lower bound >= upper bound for every outer assignment): the space is empty",
					names, lp.Iter.Name)
			}
		}
	}
}

// flagUnsat reports E001 at most once per constraint: the per-predicate
// and constraint-set detectors can prove the same contradiction.
func (ctx *context) flagUnsat(name string, pos space.Pos, format string, args ...any) {
	if ctx.unsat == nil {
		ctx.unsat = make(map[string]bool)
	}
	if ctx.unsat[name] {
		return
	}
	ctx.unsat[name] = true
	ctx.add("E001", Error, name, pos, format, args...)
}

// passRedundancy hashes each rejection predicate's disjunct set with the
// CSE canonicalizer: equal sets are duplicates (W102), a strict subset
// rejects only tuples its superset already rejects (W103).
func passRedundancy(ctx *context) {
	type entry struct {
		name string
		keys map[string]bool
		sig  string
	}
	var entries []entry
	eachCheck(ctx.base, func(_ int, st *plan.Step) {
		if st.Expr == nil {
			return
		}
		keys := make(map[string]bool)
		for _, dj := range disjuncts(st.Expr) {
			keys[ctx.canon.Key(dj)] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		entries = append(entries, entry{st.Name, keys, strings.Join(sorted, "|")})
	})
	firstBySig := make(map[string]string)
	for _, e := range entries {
		if prev, ok := firstBySig[e.sig]; ok {
			ctx.add("W102", Warning, e.name, ctx.constraintPos(e.name),
				"constraint %s duplicates %s: identical rejection predicate after normalization",
				e.name, prev)
			continue
		}
		firstBySig[e.sig] = e.name
	}
	subset := func(a, b map[string]bool) bool {
		if len(a) >= len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	for _, a := range entries {
		if firstBySig[a.sig] != a.name {
			continue // already reported as a duplicate
		}
		for _, b := range entries {
			if a.name == b.name || !subset(a.keys, b.keys) {
				continue
			}
			ctx.add("W103", Warning, a.name, ctx.constraintPos(a.name),
				"constraint %s is subsumed by %s: every tuple it rejects is already rejected there",
				a.name, b.name)
			break
		}
	}
}

// passUnusedIterators flags iterators no constraint, derived variable, or
// domain ever reads (W104): they multiply the space without enabling any
// pruning.
func passUnusedIterators(ctx *context) {
	// Derived definitions count as uses only once the derived value itself
	// is used: the closure starts from constraints and domains and expands
	// through the derived variables it reaches.
	derived := make(map[string]*space.Derived, len(ctx.space.DerivedVars()))
	for _, d := range ctx.space.DerivedVars() {
		derived[d.Name] = d
	}
	used := make(map[string]bool)
	var queue []string
	for _, c := range ctx.space.Constraints() {
		queue = append(queue, c.Deps()...)
	}
	for _, it := range ctx.space.Iterators() {
		queue = append(queue, it.Deps()...)
	}
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if used[name] {
			continue
		}
		used[name] = true
		if d, ok := derived[name]; ok {
			queue = append(queue, d.Deps()...)
		}
	}
	cardOf := make(map[string]int64)
	for i, name := range ctx.base.IterNames() {
		cardOf[name] = ctx.cards[i]
	}
	for _, it := range ctx.space.Iterators() {
		if used[it.Name] {
			continue
		}
		ctx.add("W104", Warning, it.Name, it.Pos,
			"iterator %s is never read by any constraint, derived variable, or domain; it multiplies the space by ~%d without enabling pruning",
			it.Name, cardOf[it.Name])
	}
}

// passScale emits the scale warnings: estimated-cardinality overflow
// (W201), tabulation candidates priced out by the byte budget (W202, read
// from the narrowed plan's tabulation record), and innermost deferred
// constraints that forfeit every pruning optimization (W203).
func passScale(ctx *context) {
	if total := satProd(ctx.cards); total == math.MaxInt64 {
		ctx.add("W201", Warning, "space", space.Pos{},
			"estimated cardinality overflows int64: visit counters, checkpoints, and split-depth estimates saturate")
	}

	budget := ctx.opts.TabulateBudget
	if budget == 0 {
		budget = plan.DefaultTabulateBudget
	}
	if pr := ctx.narrow.TabPricing; pr != nil {
		uncounted := ""
		if pr.RowCached > 0 {
			uncounted = ", not counting the row caches of " + strconv.Itoa(pr.RowCached) + " table(s) whose outer loop is not a static range"
		}
		for _, name := range pr.PricedOut {
			ctx.add("W202", Warning, name, ctx.constraintPos(name),
				"constraint %s qualifies for tabulation but exceeds the %d-byte table budget (full table set needs ~%d bytes%s); raise -tabulate-budget",
				name, budget, pr.NeedBytes, uncounted)
		}
	}

	innermost := len(ctx.base.Loops) - 1
	eachCheck(ctx.base, func(depth int, st *plan.Step) {
		if st.Constraint == nil || !st.Constraint.Deferred() || depth != innermost || innermost < 0 {
			return
		}
		ctx.add("W203", Warning, st.Name, ctx.constraintPos(st.Name),
			"deferred constraint %s runs a host call on every innermost candidate and forfeits narrowing, tabulation, and vectorization",
			st.Name)
	})
}

// --- helpers ---------------------------------------------------------------

// eachCheck visits every check step of prog in execution order, with its
// loop depth (-1 for the prelude).
func eachCheck(prog *plan.Program, fn func(depth int, st *plan.Step)) {
	for i := range prog.Prelude {
		if prog.Prelude[i].Kind == plan.CheckStep {
			fn(-1, &prog.Prelude[i])
		}
	}
	for d, lp := range prog.Loops {
		for i := range lp.Steps {
			if lp.Steps[i].Kind == plan.CheckStep {
				fn(d, &lp.Steps[i])
			}
		}
	}
}

// disjuncts splits a rejection predicate into its or-terms: the predicate
// rejects iff some term is truthy, so the term set is the predicate's
// canonical form for duplicate/subsumption comparison.
func disjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpOr {
		return append(disjuncts(b.L), disjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

// satInc adds one, saturating at MaxInt64.
func satInc(v int64) int64 {
	if v == math.MaxInt64 {
		return v
	}
	return v + 1
}

// satProd multiplies loop-cardinality estimates, saturating at MaxInt64.
func satProd(cards []int64) int64 {
	prod := int64(1)
	for _, c := range cards {
		if c <= 0 {
			return 0
		}
		if prod > math.MaxInt64/c {
			return math.MaxInt64
		}
		prod *= c
	}
	return prod
}

// cardString renders an evaluation-count estimate, with a saturation
// marker once it exceeds int64.
func cardString(n int64) string {
	if n == math.MaxInt64 {
		return ">= 2^63"
	}
	return strconv.FormatInt(n, 10)
}
