// Loop-order optimization: put the most pruning-effective loops outermost.
//
// The pruning funnel is only as good as the loop order — a constraint can
// cut a subtree early only if the variables it mentions are bound early.
// chooseOrder's stable topological order preserves the author's declaration
// order, which is often, but not always, a good nest. This pass estimates
// per-constraint selectivity by sampling the constraint's variable domains,
// scores DAG-valid orders with a join-ordering-style cost model (expected
// surviving prefix cardinality, built on EstimateLoopCards), and feeds the
// winning order back through the Options.Order path so hoisting, CSE,
// bounds narrowing, chunking, and the parallel split all see the improved
// nest. Survivor sets are order-invariant; only visit and kill counts move.
package plan

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/expr"
	"repro/internal/space"
)

// Reorder tuning knobs. They bound plan-time work, not correctness.
const (
	// reorderExactCap is the assignment-product threshold below which a
	// constraint's selectivity is measured by exhaustive enumeration of its
	// support domains; above it, capped Monte Carlo sampling is used.
	reorderExactCap = 2048

	// reorderSamples is the Monte Carlo budget per sampled constraint.
	reorderSamples = 256

	// reorderWalkCap is the most leaves an exact census walks. A dynamic
	// domain can exceed its static estimate, so each support set is sized
	// before its walk, and one with more leaves is sampled instead.
	reorderWalkCap = 4 * reorderExactCap

	// reorderMatCap bounds per-level domain materialization during Monte
	// Carlo sampling.
	reorderMatCap = 4096

	// reorderExhaustiveMax is the free-iterator count at or below which the
	// order search is exhaustive (branch-and-bound over all DAG-valid
	// permutations); beyond it a greedy cheapest-next-loop search runs.
	reorderExhaustiveMax = 8

	// reorderMaxIters bounds the bitmask-based search; spaces with more
	// iterators (or more than 64 sampled constraints) keep their declared
	// order.
	reorderMaxIters = 64

	// reorderMargin is the improvement factor the chosen order's estimated
	// cost must beat the declared order's by before the plan is changed;
	// estimates are noisy, and a well-ordered declaration should stand.
	reorderMargin = 0.95

	// reorderDeferredSel is the selectivity assumed for deferred (host
	// function) constraints. Sampling would call user code at plan time —
	// host functions may be expensive or stateful, and the engine contract
	// bounds their invocation count by hoisting — so they get a fixed
	// moderate estimate instead.
	reorderDeferredSel = 0.5
)

// SelectivityEstimate is the sampled pass rate of one constraint.
type SelectivityEstimate struct {
	// Name is the constraint name.
	Name string

	// Deps lists the iterators the constraint (transitively) depends on,
	// outermost-first in declared order.
	Deps []string

	// Pass is the estimated fraction of sampled assignments the constraint
	// accepts, in [0, 1].
	Pass float64

	// Samples is the number of assignments evaluated.
	Samples int

	// Exact reports that every assignment of the support domains was
	// enumerated (Pass is a census, not an estimate). A support set with
	// more than reorderWalkCap assignments is always sampled.
	Exact bool
}

// ReorderInfo records the loop-order optimizer's decision for a program.
type ReorderInfo struct {
	// Applied reports that the chosen order replaced the declared one.
	Applied bool

	// Declared is the stable topological (declaration) order; Chosen is
	// the order the program was compiled with. They are equal when the
	// optimizer found no sufficiently better nest.
	Declared []string
	Chosen   []string

	// DeclaredVisits and EstimatedVisits are the cost model's expected
	// loop-visit totals under the declared and chosen orders.
	DeclaredVisits  float64
	EstimatedVisits float64

	// Exhaustive reports that every DAG-valid order was scored (small
	// spaces); false means the greedy search ran.
	Exhaustive bool

	// Cards maps each iterator to its estimated domain cardinality
	// (EstimateLoopCards; DefaultLoopCard for dynamic domains).
	Cards map[string]int64

	// Selectivity lists the per-constraint estimates, in plan StatsID
	// order (constraints with no iterator dependencies are omitted — they
	// run in the prelude and cannot influence the order).
	Selectivity []SelectivityEstimate
}

// SelectivityOf returns the sampled estimate for a constraint, if any.
func (ri *ReorderInfo) SelectivityOf(name string) (SelectivityEstimate, bool) {
	for _, s := range ri.Selectivity {
		if s.Name == name {
			return s, true
		}
	}
	return SelectivityEstimate{}, false
}

// String summarizes the decision for CLI surfaces.
func (ri *ReorderInfo) String() string {
	mode := "greedy"
	if ri.Exhaustive {
		mode = "exhaustive"
	}
	if ri.Applied {
		return fmt.Sprintf("reordered (%s search): est. visits %.3g vs %.3g declared",
			mode, ri.EstimatedVisits, ri.DeclaredVisits)
	}
	return fmt.Sprintf("declared order kept (%s search): est. visits %.3g", mode, ri.DeclaredVisits)
}

// chooseReorder scores DAG-valid loop orders for the probe program and
// returns the decision, or nil when the space is out of scope for the
// optimizer (fewer than two loops, or too large for the bitmask search).
// The probe must be placed with hoisting on and no passes run on it, so
// every constraint is present as a step with its bound expression.
func chooseReorder(p *Program) *ReorderInfo {
	n := len(p.Loops)
	if n < 2 || n > reorderMaxIters {
		return nil
	}

	cards := p.EstimateLoopCards()
	declared := p.IterNames()
	info := &ReorderInfo{
		Declared: declared,
		Chosen:   declared,
		Cards:    make(map[string]int64, n),
	}
	iterIdx := make(map[string]int, n)
	for i, name := range declared {
		info.Cards[name] = cards[i]
		iterIdx[name] = i
	}

	// Sample each constraint's selectivity over its iterator support set.
	search := &orderSearch{n: n, cards: make([]float64, n), pred: make([]uint64, n)}
	for i, c := range cards {
		search.cards[i] = float64(maxI64(c, 1))
	}
	for i, a := range declared {
		for j, b := range declared {
			if i != j && p.Graph.Reaches(a, b) {
				search.pred[j] |= uint64(1) << i
			}
		}
	}
	bc, subst := reorderBoundsCtx(p)
	steps := allCheckSteps(p)
	for i, est := range estimateSelectivities(p, steps, info.Cards) {
		if est == nil {
			continue
		}
		st := steps[i]
		info.Selectivity = append(info.Selectivity, *est)
		if len(search.cmask) < 64 {
			var mask uint64
			for _, dep := range est.Deps {
				mask |= uint64(1) << iterIdx[dep]
			}
			search.cmask = append(search.cmask, mask)
			search.csel = append(search.csel, est.Pass)
			search.nmask = append(search.nmask, narrowableMask(p, bc, subst, st, iterIdx))
		}
	}

	declIdx := make([]int, n)
	for i := range declIdx {
		declIdx[i] = i
	}
	info.DeclaredVisits = search.cost(declIdx)

	var order []int
	var cost float64
	if n <= reorderExhaustiveMax {
		info.Exhaustive = true
		order, cost = search.exhaustive()
	} else {
		order, cost = search.greedy()
	}
	info.EstimatedVisits = info.DeclaredVisits
	if order == nil {
		return info
	}
	same := true
	for i, o := range order {
		if o != i {
			same = false
			break
		}
	}
	if same || !(cost < info.DeclaredVisits*reorderMargin) {
		return info
	}
	chosen := make([]string, n)
	for i, o := range order {
		chosen[i] = declared[o]
	}
	info.Applied = true
	info.Chosen = chosen
	info.EstimatedVisits = cost
	return info
}

// allCheckSteps collects the constraint steps of the prelude and every loop.
func allCheckSteps(p *Program) []Step {
	var out []Step
	for _, st := range p.Prelude {
		if st.Kind == CheckStep {
			out = append(out, st)
		}
	}
	for _, lp := range p.Loops {
		for _, st := range lp.Steps {
			if st.Kind == CheckStep {
				out = append(out, st)
			}
		}
	}
	return out
}

// estimateSelectivities samples the pass rate of each constraint step over
// the iterators it transitively depends on, returning one estimate per step.
// The estimate is nil for constraints with no iterator dependencies
// (prelude checks — order-irrelevant) and for steps with no expression.
//
// Censuses and draws run on int64 register files (see intCompiler).
//
// Constraints whose support cardinalities multiply to at most
// reorderExactCap are grouped by support set and each set is walked once,
// every member counting its own passes at the leaves (see census). Monte
// Carlo constraints are sampled one by one, since each draws from an RNG
// seeded by its own name; so is every member of a census that turns out to
// have more than reorderWalkCap leaves.
func estimateSelectivities(p *Program, steps []Step, cards map[string]int64) []*SelectivityEstimate {
	out := make([]*SelectivityEstimate, len(steps))
	env := p.NewEnv()
	runPreludeAssigns(p, env)
	ic := newIntCompiler(env)
	groups := make(map[uint64]*census)
	var order []*census
	for i, st := range steps {
		// Support set: every iterator with a DAG path to the constraint.
		// This closure includes the ancestors needed to evaluate dependent
		// domains and the derived variables the predicate reads.
		anc := ancestorSet(p, st.Name)
		var support []*Loop
		var deps []string
		var mask uint64
		for d, lp := range p.Loops {
			if anc[lp.Iter.Name] {
				support = append(support, lp)
				deps = append(deps, lp.Iter.Name)
				mask |= uint64(1) << d
			}
		}
		if len(support) == 0 {
			continue
		}
		est := &SelectivityEstimate{Name: st.Name, Deps: deps}

		// Plan time never calls user host functions: deferred constraints
		// are opaque (possibly expensive or stateful, and hoisting promises
		// a bounded invocation count), and deferred/closure iterators
		// likewise cannot be enumerated without invoking their generators.
		// Constraints touching either get a fixed moderate estimate instead
		// of a sample — matching EstimateLoopCards, which defaults rather
		// than calling hosts.
		if st.Constraint != nil && st.Constraint.Deferred() {
			est.Pass = reorderDeferredSel
			out[i] = est
			continue
		}
		if st.Expr == nil {
			continue
		}
		out[i] = est
		hostIter := false
		for _, lp := range support {
			if lp.Iter.Kind != space.ExprIter {
				hostIter = true
			}
		}
		if hostIter {
			est.Pass = reorderDeferredSel
			continue
		}
		pred := compileInt(st.Expr)
		levels := ic.levels(support, anc)

		// Expected product of the support cardinalities decides exact vs MC.
		product := int64(1)
		for _, lp := range support {
			c := maxI64(cards[lp.Iter.Name], 1)
			if product > (reorderExactCap+1)/c {
				product = reorderExactCap + 1
				break
			}
			product *= c
		}
		if product > reorderExactCap {
			sampleSelectivity(ic, st.Name, pred, levels, est)
			continue
		}
		g := groups[mask]
		if g == nil {
			g = &census{support: support, feeds: make(map[string]bool)}
			groups[mask] = g
			order = append(order, g)
		}
		for name := range anc {
			g.feeds[name] = true
		}
		g.members = append(g.members, &censusMember{name: st.Name, pred: pred, est: est})
	}
	for _, g := range order {
		g.run(ic)
	}
	return out
}

// ancestorSet returns the names with a nonempty DAG path to name: the x
// for which p.Graph.Reaches(x, name) holds, found in one backward walk.
func ancestorSet(p *Program, name string) map[string]bool {
	seen := make(map[string]bool)
	stack := p.Graph.Predecessors(name)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, p.Graph.Predecessors(n)...)
	}
	return seen
}

// intCompiler compiles a program's loop domains and assignment steps to
// int64 closures (expr.CompileInt), each at most once. Every closure runs
// on a copy of regs, the register image of the settings and the prelude.
// No expression reads a string setting's register: place folds them all.
type intCompiler struct {
	regs    []int64
	doms    map[int]space.IntDomain // by loop slot
	assigns map[int]expr.IntFn      // by target slot
}

// newIntCompiler returns a compiler whose register image is env, the
// settings with the prelude's assignments applied.
func newIntCompiler(env *expr.Env) *intCompiler {
	regs := make([]int64, len(env.Slots))
	for i, v := range env.Slots {
		regs[i] = v.I
	}
	return &intCompiler{
		regs:    regs,
		doms:    make(map[int]space.IntDomain),
		assigns: make(map[int]expr.IntFn),
	}
}

// compileInt compiles a planned expression. place rejects every step and
// domain that does not compile, and the passes after it build expressions
// from compiled ones, so an error here is a planner bug.
func compileInt(e expr.Expr) expr.IntFn {
	fn, err := expr.CompileInt(e)
	if err != nil {
		panic(fmt.Sprintf("plan: planned expression %s does not compile: %v", e, err))
	}
	return fn
}

// intAssign is a compiled assignment step.
type intAssign struct {
	slot int
	fn   expr.IntFn
}

// runIntAssigns evaluates compiled assignments into r, in order.
func runIntAssigns(assigns []intAssign, r []int64) {
	for _, a := range assigns {
		r[a.slot] = a.fn(r)
	}
}

// assign compiles one assignment step.
func (ic *intCompiler) assign(st *Step) intAssign {
	fn, seen := ic.assigns[st.Slot]
	if !seen {
		fn = compileInt(st.Expr)
		ic.assigns[st.Slot] = fn
	}
	return intAssign{slot: st.Slot, fn: fn}
}

// compileAssigns compiles assignment steps.
func (ic *intCompiler) compileAssigns(steps []Step) []intAssign {
	var out []intAssign
	for i := range steps {
		out = append(out, ic.assign(&steps[i]))
	}
	return out
}

// intLevel is one compiled support level of a census walk or a Monte
// Carlo draw: the loop's register, its domain and the feeding assignments
// that run after each binding.
type intLevel struct {
	slot    int
	dom     space.IntDomain
	assigns []intAssign
}

// levels compiles support's domains and, per level, the assignment steps
// named in feeds, in body order.
func (ic *intCompiler) levels(support []*Loop, feeds map[string]bool) []intLevel {
	out := make([]intLevel, len(support))
	for i, lp := range support {
		dom, seen := ic.doms[lp.Slot]
		if !seen {
			var err error
			if dom, err = space.CompileDomain(lp.Domain); err != nil {
				panic(fmt.Sprintf("plan: planned domain %s does not compile: %v", lp.Domain, err))
			}
			ic.doms[lp.Slot] = dom
		}
		lv := intLevel{slot: lp.Slot, dom: dom}
		for j := range lp.Steps {
			if st := &lp.Steps[j]; st.Kind == AssignStep && feeds[st.Name] {
				lv.assigns = append(lv.assigns, ic.assign(st))
			}
		}
		out[i] = lv
	}
	return out
}

// setPass turns pass/total counts into the estimate's pass rate.
func setPass(est *SelectivityEstimate, pass, total int) {
	est.Samples = total
	switch {
	case total == 0:
		est.Pass = 1 // no information: assume the constraint never fires
	case pass == 0:
		est.Pass = 0.5 / float64(total) // never saw a pass; keep it nonzero
	default:
		est.Pass = float64(pass) / float64(total)
	}
}

// census is one exact enumeration of a support set shared by several
// constraints. Every member's feeding assignments run at each level, so
// the walk reaches the same leaves with the same slot values a
// per-constraint walk would: anything a support domain or a member's
// predicate reads is an ancestor of that member and so is assigned anyway.
type census struct {
	support []*Loop
	feeds   map[string]bool // union of the members' ancestor sets
	members []*censusMember
}

type censusMember struct {
	name string
	pred expr.IntFn // the compiled kill predicate
	est  *SelectivityEstimate
	pass int
}

// run walks the support set once and fills in every member's estimate.
// A set with more than reorderWalkCap leaves is not walked: each member is
// sampled by sampleSelectivity instead.
func (c *census) run(ic *intCompiler) {
	levels := ic.levels(c.support, c.feeds)
	if c.leaves(ic, levels) > reorderWalkCap {
		for _, m := range c.members {
			sampleSelectivity(ic, m.name, m.pred, levels, m.est)
		}
		return
	}
	r := slices.Clone(ic.regs)
	total := 0
	walkSupport(levels, r, func() bool {
		total++
		for _, m := range c.members {
			if m.pred(r) == 0 {
				m.pass++
			}
		}
		return true
	})
	for _, m := range c.members {
		m.est.Exact = true
		setPass(m.est, m.pass, total)
	}
}

// leaves counts the leaves run's walk would reach, stopping as soon as
// the count passes reorderWalkCap. It walks only the levels above the
// innermost and sizes the innermost with domainLen.
func (c *census) leaves(ic *intCompiler, levels []intLevel) uint64 {
	r := slices.Clone(ic.regs)
	last := len(levels) - 1
	var total uint64
	walkSupport(levels[:last], r, func() bool {
		total += domainLen(levels[last].dom, r, reorderWalkCap+1-total)
		return total <= reorderWalkCap
	})
	return total
}

// walkSupport binds levels to every combination of their values, in nest
// order, running each level's feeding assignments, and calls visit at
// each combination until visit returns false.
func walkSupport(levels []intLevel, r []int64, visit func() bool) {
	w := &supportWalk{levels: levels, r: r, visit: visit, yields: make([]func(int64) bool, len(levels))}
	for i := range levels {
		w.yields[i] = func(v int64) bool {
			lv := &w.levels[i]
			w.r[lv.slot] = v
			runIntAssigns(lv.assigns, w.r)
			w.level(i + 1)
			return !w.stopped
		}
	}
	w.level(0)
}

// supportWalk is the state of one census walk. Each level's yield
// function is built once per walk, not once per visit of the level.
type supportWalk struct {
	levels  []intLevel
	r       []int64
	visit   func() bool
	yields  []func(int64) bool
	stopped bool
}

func (w *supportWalk) level(lvl int) {
	if lvl == len(w.levels) {
		w.stopped = !w.visit()
		return
	}
	w.levels[lvl].dom.Iterate(w.r, w.yields[lvl])
}

// sampleSelectivity estimates one constraint's pass rate from
// reorderSamples Monte Carlo draws over its support levels, outermost
// first, each level's domain evaluated under the values drawn above it.
// The RNG is seeded by the constraint's name.
func sampleSelectivity(ic *intCompiler, name string, pred expr.IntFn, levels []intLevel, est *SelectivityEstimate) {
	r := slices.Clone(ic.regs)
	pk := &picker{rng: newReorderRNG(name)}
	var pass, total int
	for i := 0; i < reorderSamples; i++ {
		ok := true
		for lvl := range levels {
			lv := &levels[lvl]
			v, found := pk.pick(lv.dom, r)
			if !found {
				ok = false
				break
			}
			r[lv.slot] = v
			runIntAssigns(lv.assigns, r)
		}
		if !ok {
			continue
		}
		total++
		if pred(r) == 0 {
			pass++
		}
	}
	setPass(est, pass, total)
}

// picker draws one value per call from a domain: the value at index
// rng.next() mod n among the domain's first n = min(len, reorderMatCap)
// values, with no draw when the domain is empty.
type picker struct {
	rng  *reorderRNG
	vals []int64          // materialization buffer, reused across draws
	add  func(int64) bool // appends to vals, built on first use
}

// pick computes a range domain's value arithmetically from its Span and
// materializes every other domain (pickMaterialized); both yield the same
// value and the same RNG draws.
func (pk *picker) pick(d space.IntDomain, r []int64) (int64, bool) {
	rd, ok := d.(*space.IntRange)
	if !ok {
		return pk.pickMaterialized(d, r)
	}
	start, stop, step := rd.Span(r)
	if step == 0 {
		return 0, false
	}
	n, wraps := rangeLen(start, stop, step, reorderMatCap)
	if wraps {
		return pk.pickMaterialized(d, r)
	}
	if n == 0 {
		return 0, false
	}
	i := pk.rng.next() % n
	return int64(uint64(start) + i*uint64(step)), true
}

// pickMaterialized walks the domain into the buffer, stopping at
// reorderMatCap values, and picks one.
func (pk *picker) pickMaterialized(d space.IntDomain, r []int64) (int64, bool) {
	if pk.add == nil {
		pk.add = func(v int64) bool {
			pk.vals = append(pk.vals, v)
			return len(pk.vals) < reorderMatCap
		}
	}
	pk.vals = pk.vals[:0]
	d.Iterate(r, pk.add)
	if len(pk.vals) == 0 {
		return 0, false
	}
	return pk.vals[pk.rng.next()%uint64(len(pk.vals))], true
}

// rangeLen returns how many values RangeDomain.Iterate yields for
// range(start, stop, step) (step nonzero) before a walk capped at limit
// stops. wraps reports that the walk would not stop there: the step past
// the last in-range value overflows int64 and lands back inside the range,
// so only the materializing walk reproduces what follows.
func rangeLen(start, stop, step int64, limit uint64) (n uint64, wraps bool) {
	var span, stride uint64
	if step > 0 {
		if start >= stop {
			return 0, false
		}
		span, stride = uint64(stop)-uint64(start), uint64(step)
	} else {
		if start <= stop {
			return 0, false
		}
		span, stride = uint64(start)-uint64(stop), -uint64(step)
	}
	n = span / stride
	if span%stride != 0 {
		n++
	}
	if n >= limit {
		return limit, false // the capped walk stops before stepping past the last value
	}
	last := int64(uint64(start) + (n-1)*uint64(step))
	if step > 0 {
		return n, last > math.MaxInt64-step
	}
	return n, last < math.MinInt64-step
}

// domainLen returns how many values d yields over r before a walk capped
// at limit stops: by arithmetic for a range whose walk does not wrap
// int64, by walking otherwise.
func domainLen(d space.IntDomain, r []int64, limit uint64) uint64 {
	if rd, ok := d.(*space.IntRange); ok {
		start, stop, step := rd.Span(r)
		if step == 0 {
			return 0
		}
		if n, wraps := rangeLen(start, stop, step, limit); !wraps {
			return n
		}
	}
	return walkLen(d, r, limit)
}

// walkLen is domainLen by walking. It is a function of its own because the
// count its closure captures is heap-allocated on every call.
func walkLen(d space.IntDomain, r []int64, limit uint64) (n uint64) {
	d.Iterate(r, func(int64) bool {
		n++
		return n < limit
	})
	return n
}

// reorderBoundsCtx builds an interval context and a full inlining
// substitution (every derived variable rewritten down to settings and
// iterator slots) for narrowability analysis. Unlike compileBounds' per-depth
// subst, full inlining is order-independent: the same predicate form is
// tested no matter where a candidate order places the constraint.
func reorderBoundsCtx(p *Program) (*boundsCtx, map[int]expr.Expr) {
	bc := settingsCtx(p)
	subst := make(map[int]expr.Expr)
	add := func(steps []Step) {
		for i := range steps {
			st := &steps[i]
			if st.Kind != AssignStep || st.Expr == nil {
				continue
			}
			e := bc.substSlots(st.Expr, subst)
			subst[st.Slot] = e
			bc.slotIval[st.Slot] = bc.intervalOf(e)
		}
	}
	add(p.Prelude)
	for _, lp := range p.Loops {
		if lp.Iter.Kind == space.ExprIter && lp.Domain != nil {
			bc.slotIval[lp.Slot] = bc.domainIval(lp.Domain)
		} else {
			bc.slotIval[lp.Slot] = topIval
		}
		add(lp.Steps)
	}
	return bc, subst
}

// narrowableMask reports, as an iterator bitmask, the loops that could
// absorb this constraint into their compiled bounds (compileBounds'
// symbolic-solve/monotone-probe narrowing). The real absorb machinery runs
// against each candidate loop variable, so the answer matches what bounds
// compilation would do when the constraint lands on that loop. The cost
// model applies a narrowable constraint's selectivity to the binding
// loop's own visit count — skipped iterations are never entered — instead
// of to the surviving prefix after it.
func narrowableMask(p *Program, bc *boundsCtx, subst map[int]expr.Expr, st Step, iterIdx map[string]int) uint64 {
	if st.Expr == nil || st.Constraint.Deferred() {
		return 0
	}
	var mask uint64
	for _, lp := range p.Loops {
		if lp.Iter.Kind != space.ExprIter {
			continue
		}
		rd, ok := lp.Domain.(*space.RangeDomain)
		if !ok || bc.intervalOf(rd.Step).lo < 1 {
			continue // narrowing requires an ascending range
		}
		if !p.Graph.Reaches(lp.Iter.Name, st.Name) {
			continue
		}
		if g := bc.absorbCheck(&st, subst, lp.Slot); g != nil {
			mask |= uint64(1) << iterIdx[lp.Iter.Name]
		}
	}
	return mask
}

// estimateCompiledVisits scores a fully compiled program with the sampled
// selectivities. It is the cost model's final arbiter: narrowed
// constraints (the program's BoundGroups) shrink their own loop's range,
// residual body checks filter the surviving prefix after the visit. Scoring
// real compiled programs — declared and chosen — captures how much bounds
// narrowing each order actually gets, which the search-time model can only
// approximate.
func estimateCompiledVisits(p *Program, sel map[string]float64) float64 {
	cards := p.EstimateLoopCards()
	s, cost := 1.0, 0.0
	for d, lp := range p.Loops {
		v := s * float64(maxI64(cards[d], 1))
		partial := map[string]bool{}
		if lp.Bounds != nil {
			for _, g := range lp.Bounds.Groups {
				if f, ok := sel[g.Name]; ok {
					v *= f
				}
				if !g.Full {
					partial[g.Name] = true
				}
			}
		}
		cost += v
		s = v
		for _, st := range lp.Steps {
			if st.Kind != CheckStep || partial[st.Name] {
				continue // a partial group's residual is already counted
			}
			if f, ok := sel[st.Name]; ok {
				s *= f
			}
		}
	}
	return cost
}

// runPreludeAssigns evaluates the prelude's assignment steps.
func runPreludeAssigns(p *Program, env *expr.Env) {
	for i := range p.Prelude {
		if st := &p.Prelude[i]; st.Kind == AssignStep {
			env.Slots[st.Slot] = st.Expr.Eval(env)
		}
	}
}

// orderSearch is the cost model and search state: iterator cardinalities,
// DAG precedence masks, and per-constraint (dependency mask, selectivity)
// pairs. The cost of an order is the expected total loop-visit count: the
// running product of cardinalities, discounted by each constraint's
// selectivity at the first depth where all of its dependencies are bound —
// the classic join-ordering objective.
type orderSearch struct {
	n     int
	cards []float64
	pred  []uint64 // pred[i]: iterators that must be placed before i
	cmask []uint64 // per-constraint iterator-dependency mask
	nmask []uint64 // per-constraint narrowable-loop mask (see narrowableMask)
	csel  []float64
}

// place advances the cost-model state by one loop. A constraint that
// becomes fully bound at loop i applies its selectivity to the loop's own
// visit count v when bounds compilation can absorb it there (nmask bit i
// set: skipped iterations are never entered), and to the surviving prefix
// s after the visit otherwise.
func (o *orderSearch) place(i int, placed, applied uint64, s float64) (v, ns float64, na uint64) {
	bit := uint64(1) << i
	np := placed | bit
	v = s * o.cards[i]
	for ci := range o.cmask {
		cb := uint64(1) << ci
		if applied&cb == 0 && o.cmask[ci]&^np == 0 && o.nmask[ci]&bit != 0 {
			v *= o.csel[ci]
		}
	}
	ns, na = v, applied
	for ci := range o.cmask {
		cb := uint64(1) << ci
		if na&cb == 0 && o.cmask[ci]&^np == 0 {
			if o.nmask[ci]&bit == 0 {
				ns *= o.csel[ci]
			}
			na |= cb
		}
	}
	return v, ns, na
}

// cost scores one complete order.
func (o *orderSearch) cost(order []int) float64 {
	s, cost := 1.0, 0.0
	var placed, applied uint64
	for _, i := range order {
		v, ns, na := o.place(i, placed, applied, s)
		cost += v
		placed |= uint64(1) << i
		s, applied = ns, na
	}
	return cost
}

// exhaustive runs branch-and-bound DFS over every DAG-valid order. Partial
// cost only grows, so a prefix at or above the best known total is cut.
func (o *orderSearch) exhaustive() ([]int, float64) {
	bestCost := math.Inf(1)
	var bestOrder []int
	cur := make([]int, 0, o.n)
	var dfs func(placed, applied uint64, s, cost float64)
	dfs = func(placed, applied uint64, s, cost float64) {
		if len(cur) == o.n {
			if cost < bestCost {
				bestCost = cost
				bestOrder = append(bestOrder[:0], cur...)
			}
			return
		}
		for i := 0; i < o.n; i++ {
			bit := uint64(1) << i
			if placed&bit != 0 || o.pred[i]&^placed != 0 {
				continue
			}
			v, ns, na := o.place(i, placed, applied, s)
			nc := cost + v
			if nc >= bestCost {
				continue
			}
			cur = append(cur, i)
			dfs(placed|bit, na, ns, nc)
			cur = cur[:len(cur)-1]
		}
	}
	dfs(0, 0, 1, 0)
	if bestOrder == nil {
		return nil, math.Inf(1)
	}
	return bestOrder, bestCost
}

// greedy picks, at each depth, the DAG-eligible iterator minimizing the
// surviving prefix cardinality after newly-bound constraints apply; ties
// break toward the smaller visit contribution, then declared position.
func (o *orderSearch) greedy() ([]int, float64) {
	order := make([]int, 0, o.n)
	var placed, applied uint64
	s, cost := 1.0, 0.0
	for len(order) < o.n {
		best := -1
		var bestS, bestV float64
		var bestApplied uint64
		for i := 0; i < o.n; i++ {
			bit := uint64(1) << i
			if placed&bit != 0 || o.pred[i]&^placed != 0 {
				continue
			}
			v, ns, na := o.place(i, placed, applied, s)
			if best < 0 || ns < bestS || (ns == bestS && v < bestV) {
				best, bestS, bestV, bestApplied = i, ns, v, na
			}
		}
		if best < 0 {
			return nil, math.Inf(1) // cycle: unreachable for a validated DAG
		}
		cost += bestV
		s = bestS
		placed |= uint64(1) << best
		applied = bestApplied
		order = append(order, best)
	}
	return order, cost
}

// reorderRNG is a splitmix64 stream seeded from the constraint name, so
// Monte Carlo estimates — and therefore chosen orders and regenerated
// artifacts — are reproducible across runs.
type reorderRNG struct{ state uint64 }

func newReorderRNG(name string) *reorderRNG {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return &reorderRNG{state: h}
}

func (r *reorderRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
