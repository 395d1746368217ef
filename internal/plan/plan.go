// Package plan compiles a declarative space.Space into an executable loop
// nest: the Program. It performs the analyses of §X of the paper —
// dependency-DAG construction, level sets, loop ordering — plus plan-time
// specialization (settings and setting-only derived variables fold to
// constants, as the paper's translator does when it burns precision and
// transposition into the generated C) and constraint hoisting: every
// constraint and derived variable is attached to the outermost loop at which
// all of its dependencies are bound, so failing tuples are cut before inner
// loops open. Hoisting is the mechanism behind the paper's aggressive
// pruning speed; Options.DisableHoisting exists to measure exactly that
// (the ablation benchmark).
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/expr"
	"repro/internal/space"
)

// StepKind discriminates the operations executed inside a loop body.
type StepKind uint8

// Step kinds.
const (
	// AssignStep computes a derived variable into its slot.
	AssignStep StepKind = iota
	// CheckStep evaluates a constraint; if it rejects, the current loop
	// iteration advances (the tuple is pruned).
	CheckStep
)

// Step is one operation in a loop body.
type Step struct {
	Kind StepKind

	// Name is the derived variable or constraint name.
	Name string

	// Slot is the target slot of an AssignStep.
	Slot int

	// Expr is the bound, folded expression (AssignStep value or CheckStep
	// rejection predicate for expression constraints).
	Expr expr.Expr

	// Constraint is the source constraint of a CheckStep.
	Constraint *space.Constraint

	// ArgSlots holds the environment slots of a deferred constraint's
	// declared dependencies.
	ArgSlots []int

	// StatsID indexes the per-constraint counters of engine statistics;
	// -1 for AssignStep.
	StatsID int

	// Temp marks an AssignStep synthesized by the expression optimizer
	// (a common-subexpression temp, never a user-declared name).
	Temp bool

	// Depth is the loop depth the step is attached to (-1 for the
	// prelude). Engines use it to index the per-level optimizer counters.
	Depth int

	// TempRefs counts the static references to optimizer temps in this
	// step's expression; engines add it to the per-level cache-hit counter
	// each time the step executes.
	TempRefs int

	// Vec marks an innermost-loop step whose expression can be evaluated
	// over a whole chunk of loop-variable values at once (see vector.go).
	// Always false for deferred constraints and for steps outside the
	// innermost loop.
	Vec bool
}

// TempDef describes one synthesized common-subexpression temp.
type TempDef struct {
	// Name is the synthetic identifier ("$t0", "$t1", ...). The '$' keeps
	// it out of the speclang identifier space.
	Name string

	// Slot is the environment slot the temp occupies.
	Slot int

	// Depth is the loop depth the temp's assignment was hoisted to
	// (-1 = prelude: the subexpression is constant under the settings).
	Depth int

	// Expr is the temp's defining expression (may reference earlier temps).
	Expr expr.Expr

	// Uses counts static references to the temp across all step
	// expressions (including other temp definitions).
	Uses int
}

// Loop is one level of the generated nest.
type Loop struct {
	// Iter is the source iterator.
	Iter *space.Iterator

	// Domain is the bound, folded domain of an expression iterator; nil
	// for deferred and closure iterators.
	Domain space.DomainExpr

	// ArgSlots holds the environment slots of a deferred or closure
	// iterator's declared dependencies.
	ArgSlots []int

	// Slot is the environment slot the loop variable binds.
	Slot int

	// Steps runs after each binding of the loop variable, before the next
	// inner loop opens. Order is dependency-respecting.
	Steps []Step

	// Bounds is the compiled range-narrowing recipe for this loop (see
	// bounds.go): constraint checks absorbed into loop-entry bound
	// expressions and monotone binary-search probes. nil when nothing
	// absorbed or Options.DisableNarrowing is set.
	Bounds *LoopBounds

	// Level is the DAG level set of the iterator (§X.B). Loops sharing a
	// level may be interchanged without changing the survivor set.
	Level int
}

// SettingInit prefills an environment slot with a setting's value.
type SettingInit struct {
	Name string
	Slot int
	V    expr.Value
}

// Program is an executable loop nest. All engines (interpreter, VM, closure
// compiler) and both code generators consume this one structure.
type Program struct {
	Source *space.Space

	// Scope maps every name that can appear in a bound expression — the
	// settings, iterators, and derived variables — to an environment slot.
	Scope *expr.Scope

	// Settings lists the slots to prefill before enumeration.
	Settings []SettingInit

	// Prelude runs once before the outermost loop: derived variables and
	// constraints that depend only on settings. (A rejecting prelude
	// constraint empties the whole space.)
	Prelude []Step

	// Loops is the ordered nest, outermost first.
	Loops []*Loop

	// Constraints lists all constraints in StatsID order.
	Constraints []*space.Constraint

	// Graph is the dependency DAG over iterators, derived variables, and
	// constraints (settings folded away), as in the paper's Figure 16.
	Graph *dag.Graph

	// Folded maps names that were constant-folded at plan time (settings
	// and setting-only derived variables) to their values.
	Folded map[string]expr.Value

	// Temps lists the synthesized common-subexpression temps in definition
	// order (see optimize.go). Empty when Options.DisableCSE is set.
	Temps []TempDef

	// Vector is the innermost-chunk lane layout (see vector.go); nil when
	// the program has no loops.
	Vector *VectorLayout

	// Reorder records the loop-order optimizer's decision (see reorder.go):
	// estimated cardinalities, sampled constraint selectivities, and the
	// declared vs. chosen order. nil when reordering was disabled, a manual
	// Order was given, or the space is out of the optimizer's scope.
	Reorder *ReorderInfo

	// Tab is the constraint-table set (see tabulate.go): innermost
	// pruning checks precomputed into pass bitsets the evaluators AND
	// into the survivor mask. nil when tabulation is disabled or nothing
	// qualified.
	Tab *Tabulation

	// TabDisabled records Options.DisableTabulation. The tables
	// themselves are derived data (kill counts are bit-identical either
	// way), so only this flag — not the table contents — enters
	// Describe and thus the checkpoint fingerprint.
	TabDisabled bool
}

// Options control plan compilation.
type Options struct {
	// Order, if non-nil, fixes the loop order of the named iterators. It
	// must list every iterator exactly once and respect the dependency
	// DAG; Compile rejects invalid orders. Use it for loop interchange
	// within level sets (§X.B).
	Order []string

	// DisableHoisting pins every constraint to the innermost loop instead
	// of its outermost feasible level. Survivors are unchanged; visit
	// counts explode. Exists for the hoisting ablation.
	DisableHoisting bool

	// DisableFolding skips plan-time constant propagation of settings into
	// expressions. Exists for the folding ablation; deferred and closure
	// host functions still receive setting values through their argument
	// slots either way.
	DisableFolding bool

	// DisableCSE skips the plan-time expression optimizer (optimize.go):
	// no common-subexpression temps, no subexpression-level invariant
	// hoisting, no algebraic simplification. Survivors are unchanged;
	// redundant arithmetic returns. Exists for the CSE ablation.
	DisableCSE bool

	// DisableNarrowing skips the bounds-compilation pass (bounds.go): no
	// checks are absorbed into loop ranges and every iteration is visited
	// as before. Survivors and per-constraint kill counts are unchanged
	// either way. Exists for the narrowing ablation.
	DisableNarrowing bool

	// DisableReorder skips the selectivity-driven loop-order optimizer
	// (reorder.go) and keeps the declared (stable topological) order.
	// Survivor sets are identical either way; visit counts and
	// per-constraint kill counts legitimately shift with the order.
	// Exists for the reorder ablation. A non-nil Order implies it.
	DisableReorder bool

	// DisableTabulation skips the constraint-tabulation pass
	// (tabulate.go): every pruning check keeps evaluating its
	// expression. Survivors and per-constraint kill counts are
	// unchanged either way. Exists for the tabulation ablation.
	DisableTabulation bool

	// TabulateBudget bounds the bytes committed to constraint tables;
	// zero means DefaultTabulateBudget.
	TabulateBudget int64

	// Verify runs the IR invariant checker (Program.Verify) on the
	// finished plan; a violated invariant is a compile error. Debug aid,
	// exposed as the cmd/ tools' -verify flag and on unconditionally in
	// the engine test harnesses.
	Verify bool
}

// Compile builds the Program for s. Unless opts disables it (or fixes an
// explicit Order), a plan-time loop-order optimization runs first: a probe
// placement estimates per-constraint selectivity and per-loop cardinality,
// a cost-model search picks the cheapest DAG-valid order (see reorder.go),
// and the winning order — when it beats the declared one decisively — is
// fed back through the Options.Order path so every later pass (hoisting,
// CSE, narrowing, chunk layout, split-depth choice) sees the better nest.
func Compile(s *space.Space, opts Options) (*Program, error) {
	prog, err := compileReordered(s, opts)
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		if err := prog.Verify(); err != nil {
			return nil, fmt.Errorf("plan verification: %w", err)
		}
	}
	return prog, nil
}

// compileReordered runs the loop-order arbitration. Each nest order is
// placed once: the declared placement serves as the probe, then (with
// bounds added) as the declared arbitration program, and the arbitration
// winner becomes the final plan once the remaining passes run on it.
// Placement runs again only when the caller's options change it:
// DisableHoisting changes where steps land, and DisableNarrowing forbids
// the bounds the arbitration programs carry.
func compileReordered(s *space.Space, opts Options) (*Program, error) {
	if opts.DisableReorder || opts.Order != nil {
		return compile(s, opts)
	}
	// The probe is placed with fixed flags — hoisting on, folding as
	// requested — and no passes, so every constraint is present as a step
	// with its bound expression. Keeping the decision independent of the
	// other ablation flags guarantees every ablation combo of one space
	// sees the same chosen order: the cross-engine fuzz tests rely on
	// identical tuple streams across those combos.
	arb := Options{DisableFolding: opts.DisableFolding}
	prog, err := place(s, arb)
	if err != nil {
		return nil, err
	}
	info := chooseReorder(prog)
	bounded := false
	if info != nil && info.Applied {
		// Arbitrate between the two orders on bounds-compiled programs: the
		// search-time model cannot see how much bounds narrowing each order
		// wins, so re-score both with the compiled bound groups in place
		// (estimateCompiledVisits) and keep the declared nest unless the
		// chosen one still beats it decisively.
		compileBounds(prog)
		bounded = true
		arb.Order = info.Chosen
		apply := false
		chosen, err := place(s, arb)
		if err == nil {
			compileBounds(chosen)
			sel := make(map[string]float64, len(info.Selectivity))
			for _, e := range info.Selectivity {
				sel[e.Name] = e.Pass
			}
			info.EstimatedVisits = estimateCompiledVisits(chosen, sel)
			info.DeclaredVisits = estimateCompiledVisits(prog, sel)
			apply = info.EstimatedVisits < info.DeclaredVisits*reorderMargin
		}
		// A chosen order that fails to place (it should not: it is
		// DAG-valid by construction) falls back to the declared order.
		if apply {
			prog = chosen
		} else {
			info.Applied = false
			info.Chosen = info.Declared
			info.EstimatedVisits = info.DeclaredVisits
		}
	}
	if opts.DisableHoisting || (bounded && opts.DisableNarrowing) {
		o := opts
		if info != nil && info.Applied {
			o.Order = info.Chosen
		}
		if prog, err = compile(s, o); err != nil {
			return nil, err
		}
	} else {
		if !bounded && !opts.DisableNarrowing {
			compileBounds(prog)
		}
		runPasses(prog, opts)
	}
	prog.Reorder = info
	return prog, nil
}

// compile builds the Program for s with the loop order opts dictates.
func compile(s *space.Space, opts Options) (*Program, error) {
	prog, err := place(s, opts)
	if err != nil {
		return nil, err
	}
	// Bounds compilation runs before the expression optimizer: absorbed
	// checks leave the bodies (so they no longer block subexpression
	// hoisting) and the derived bound expressions then participate in
	// CSE and invariant motion like any other step expression.
	if !opts.DisableNarrowing {
		compileBounds(prog)
	}
	runPasses(prog, opts)
	return prog, nil
}

// runPasses runs the passes after bounds compilation: the expression
// optimizer, the chunk layout and constraint tabulation.
func runPasses(prog *Program, opts Options) {
	if !opts.DisableCSE {
		optimize(prog)
	}
	// Chunk layout comes last so the lane set includes optimizer temps
	// and the Vec marks see the final (CSE-rewritten) step expressions.
	computeVector(prog)
	// Constraint tabulation reads the Vec marks, so it runs after the
	// chunk layout.
	prog.TabDisabled = opts.DisableTabulation
	if !opts.DisableTabulation {
		tabulate(prog, opts.TabulateBudget)
	}
}

// place builds the Program for s up to step placement: constant folding,
// the dependency DAG, the loop order opts dictates, slot binding, and the
// placement of every derived variable and constraint at its loop. Only
// opts.DisableFolding, opts.DisableHoisting and opts.Order affect it.
func place(s *space.Space, opts Options) (*Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}

	// Plan-time specialization: start from the settings and repeatedly
	// fold derived variables whose dependencies are all constants.
	folded := make(map[string]expr.Value)
	if !opts.DisableFolding {
		for k, v := range s.ConstMap() {
			folded[k] = v
		}
		for changed := true; changed; {
			changed = false
			for _, d := range s.DerivedVars() {
				if _, done := folded[d.Name]; done {
					continue
				}
				f := d.Expr.Fold(folded)
				if lit, ok := f.(*expr.Lit); ok {
					folded[d.Name] = lit.V
					changed = true
				}
			}
		}
	}

	// Dependency DAG over the non-constant entities.
	g := dag.New()
	isConst := func(name string) bool { _, ok := folded[name]; return ok }
	isSetting := func(name string) bool {
		k, ok := s.Kind(name)
		return ok && k == space.SettingNode
	}
	liveDerived := make([]*space.Derived, 0, len(s.DerivedVars()))
	for _, it := range s.Iterators() {
		g.AddVertex(it.Name, "iterator")
	}
	for _, d := range s.DerivedVars() {
		if isConst(d.Name) {
			continue
		}
		liveDerived = append(liveDerived, d)
		g.AddVertex(d.Name, "derived")
	}
	for _, c := range s.Constraints() {
		g.AddVertex(c.Name, "constraint")
	}
	addDeps := func(name string, deps []string) {
		for _, dep := range deps {
			if isConst(dep) || isSetting(dep) {
				continue
			}
			g.AddEdge(dep, name)
		}
	}
	for _, it := range s.Iterators() {
		// Deferred and closure iterators keep their full declared
		// dependency lists as DAG edges even when a dependency folded to a
		// constant elsewhere: the host function still receives the value.
		if it.Kind == space.ExprIter {
			addDeps(it.Name, space.DomainDeps(it.Domain.Fold(folded)))
		} else {
			addDeps(it.Name, it.Deps())
		}
	}
	for _, d := range liveDerived {
		addDeps(d.Name, expr.Deps(d.Expr.Fold(folded)))
	}
	for _, c := range s.Constraints() {
		if c.Deferred() {
			addDeps(c.Name, c.Deps())
		} else {
			addDeps(c.Name, expr.Deps(c.Pred.Fold(folded)))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}

	iterOrder, err := chooseOrder(s, g, opts)
	if err != nil {
		return nil, err
	}

	// Scope: settings first (prefilled), then iterators in loop order,
	// then derived variables.
	scope := expr.NewScope()
	var inits []SettingInit
	for _, name := range s.Settings() {
		v, _ := s.SettingValue(name)
		inits = append(inits, SettingInit{Name: name, Slot: scope.Declare(name), V: v})
	}
	loopPos := make(map[string]int, len(iterOrder))
	loops := make([]*Loop, len(iterOrder))
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	levelOf := make(map[string]int)
	for l, names := range levels {
		for _, n := range names {
			levelOf[n] = l
		}
	}
	for i, name := range iterOrder {
		it, _ := s.Iterator(name)
		loopPos[name] = i
		loops[i] = &Loop{Iter: it, Slot: scope.Declare(name), Level: levelOf[name]}
	}
	for _, d := range liveDerived {
		scope.Declare(d.Name)
	}

	// depthOf: the outermost loop index at which a name's value is
	// available. Settings and folded constants are available at depth -1
	// (the prelude).
	depthMemo := make(map[string]int)
	var depthOf func(name string) (int, error)
	depthOf = func(name string) (int, error) {
		if d, ok := depthMemo[name]; ok {
			return d, nil
		}
		if isConst(name) || isSetting(name) {
			depthMemo[name] = -1
			return -1, nil
		}
		if p, ok := loopPos[name]; ok {
			depthMemo[name] = p
			return p, nil
		}
		// Derived variable: max over dependencies.
		for _, d := range liveDerived {
			if d.Name != name {
				continue
			}
			depth := -1
			for _, dep := range expr.Deps(d.Expr.Fold(folded)) {
				dd, err := depthOf(dep)
				if err != nil {
					return 0, err
				}
				if dd > depth {
					depth = dd
				}
			}
			depthMemo[name] = depth
			return depth, nil
		}
		return 0, fmt.Errorf("plan: unknown name %q in dependency chain", name)
	}

	prog := &Program{
		Source: s,
		Scope:  scope,
		Graph:  g,
		Folded: folded,
	}
	prog.Settings = inits
	prog.Loops = loops

	// Bind loop domains and argument slots.
	argSlotsFor := func(deps []string) ([]int, error) {
		slots := make([]int, len(deps))
		for i, dep := range deps {
			slot, ok := scope.Slot(dep)
			if !ok {
				return nil, fmt.Errorf("plan: dependency %q has no slot", dep)
			}
			slots[i] = slot
		}
		return slots, nil
	}
	for _, lp := range loops {
		it := lp.Iter
		switch it.Kind {
		case space.ExprIter:
			bound, err := it.Domain.Fold(folded).Bind(scope)
			if err != nil {
				return nil, fmt.Errorf("plan: iterator %s: %w", it.Name, err)
			}
			lp.Domain = bound
		default:
			slots, err := argSlotsFor(it.DeclaredDeps)
			if err != nil {
				return nil, fmt.Errorf("plan: iterator %s: %w", it.Name, err)
			}
			lp.ArgSlots = slots
		}
	}

	// Place derived variables and constraints. Process in topological
	// order so that, within one loop body, a derived variable is assigned
	// before anything that reads it.
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	derivedByName := make(map[string]*space.Derived)
	for _, d := range liveDerived {
		derivedByName[d.Name] = d
	}
	constraintByName := make(map[string]*space.Constraint)
	for _, c := range s.Constraints() {
		constraintByName[c.Name] = c
	}
	attach := func(depth int, st Step) {
		st.Depth = depth
		if depth < 0 {
			prog.Prelude = append(prog.Prelude, st)
		} else {
			loops[depth].Steps = append(loops[depth].Steps, st)
		}
	}
	innermost := len(loops) - 1
	for _, name := range topo {
		if d, ok := derivedByName[name]; ok {
			depth, err := depthOf(name)
			if err != nil {
				return nil, err
			}
			slot, _ := scope.Slot(name)
			bound, err := expr.Bind(d.Expr.Fold(folded), scope)
			if err != nil {
				return nil, fmt.Errorf("plan: derived %s: %w", name, err)
			}
			attach(depth, Step{Kind: AssignStep, Name: name, Slot: slot, Expr: bound, StatsID: -1})
			continue
		}
		c, ok := constraintByName[name]
		if !ok {
			continue // iterator
		}
		// Placement depth comes from the folded dependency set: a
		// predicate whose setting-dependent branch folds away can hoist
		// past the dependencies that vanished with it.
		cdeps := c.Deps()
		if !c.Deferred() {
			cdeps = expr.Deps(c.Pred.Fold(folded))
		}
		depth := -1
		for _, dep := range cdeps {
			dd, err := depthOf(dep)
			if err != nil {
				return nil, err
			}
			if dd > depth {
				depth = dd
			}
		}
		if opts.DisableHoisting && innermost >= 0 {
			depth = innermost
		}
		st := Step{Kind: CheckStep, Name: name, Constraint: c, StatsID: len(prog.Constraints)}
		prog.Constraints = append(prog.Constraints, c)
		if c.Deferred() {
			slots, err := argSlotsFor(c.DeclaredDeps)
			if err != nil {
				return nil, fmt.Errorf("plan: constraint %s: %w", name, err)
			}
			st.ArgSlots = slots
		} else {
			bound, err := expr.Bind(c.Pred.Fold(folded), scope)
			if err != nil {
				return nil, fmt.Errorf("plan: constraint %s: %w", name, err)
			}
			st.Expr = bound
		}
		attach(depth, st)
	}
	return prog, nil
}

// chooseOrder returns the loop order: a stable topological order of the
// iterators, or the validated user-specified order.
func chooseOrder(s *space.Space, g *dag.Graph, opts Options) ([]string, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	var iters []string
	for _, name := range topo {
		if k, _ := s.Kind(name); k == space.IterNode {
			iters = append(iters, name)
		}
	}
	if opts.Order == nil {
		return iters, nil
	}
	if len(opts.Order) != len(iters) {
		return nil, fmt.Errorf("plan: Order lists %d iterators, space has %d", len(opts.Order), len(iters))
	}
	seen := make(map[string]bool, len(opts.Order))
	for _, name := range opts.Order {
		if k, ok := s.Kind(name); !ok || k != space.IterNode {
			return nil, fmt.Errorf("plan: Order entry %q is not an iterator", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("plan: Order lists %q twice", name)
		}
		seen[name] = true
	}
	// Validate against the DAG: if a path runs a -> b (b depends on a,
	// possibly through derived variables), a must come first.
	pos := make(map[string]int, len(opts.Order))
	for i, name := range opts.Order {
		pos[name] = i
	}
	for _, a := range opts.Order {
		for _, b := range opts.Order {
			if a != b && g.Reaches(a, b) && pos[a] > pos[b] {
				return nil, fmt.Errorf("plan: Order places %q before its dependency %q", b, a)
			}
		}
	}
	return append([]string(nil), opts.Order...), nil
}

// NumSlots returns the environment size the program needs.
func (p *Program) NumSlots() int { return p.Scope.Len() }

// DefaultLoopCard is the cardinality estimate used for loops whose domain
// cannot be sized statically: deferred and closure iterators, and
// expression domains that depend on outer loop variables or loop-level
// derived values.
const DefaultLoopCard = 8

// EstimateLoopCards estimates the domain cardinality of every loop, in
// nest order. Domains that depend only on settings and prelude-derived
// values are sized against the prelude environment, exactly up to 1<<22
// values; everything else gets DefaultLoopCard. The parallel scheduler
// uses these estimates to pick its prefix split depth (§X.B: the level
// sets make the nest embarrassingly parallel at L0; the estimates say how
// many levels are worth tiling).
func (p *Program) EstimateLoopCards() []int64 {
	env := p.NewEnv()
	// Prelude assignments depend only on settings; a type error here (an
	// unfolded string program) just leaves the affected estimates at the
	// default.
	runPreludeAssigns(p, env)
	dynamic := dynamicNames(p)
	cards := make([]int64, len(p.Loops))
	for i, lp := range p.Loops {
		cards[i] = DefaultLoopCard
		if lp.Iter.Kind != space.ExprIter {
			continue
		}
		static := true
		for _, dep := range space.DomainDeps(lp.Domain) {
			if dynamic[dep] {
				static = false
				break
			}
		}
		if !static {
			continue
		}
		// Counting stops at 1<<22; beyond this any estimate saturates.
		if n, ok := domainLen(lp.Domain, env, 1<<22); ok {
			cards[i] = int64(n)
		}
	}
	return cards
}

// ChooseSplitDepth picks the prefix depth K for the parallel scheduler:
// the smallest K in [1, len(Loops)] whose estimated prefix-tile count
// (the product of the first K loop cardinalities) reaches target. With no
// loops it returns 0. An estimated-empty level stops the search early —
// tiling will discover the truth at run time either way.
func ChooseSplitDepth(p *Program, target int) int {
	n := len(p.Loops)
	if n == 0 {
		return 0
	}
	if target < 1 {
		target = 1
	}
	cards := p.EstimateLoopCards()
	prod := int64(1)
	for k := 0; k < n; k++ {
		c := cards[k]
		if c <= 0 {
			return k + 1
		}
		if prod > int64(target)/c {
			return k + 1 // prod*c >= target without overflow risk
		}
		prod *= c
		if prod >= int64(target) {
			return k + 1
		}
	}
	return n
}

// IterNames returns the loop variables in nest order, outermost first.
func (p *Program) IterNames() []string {
	out := make([]string, len(p.Loops))
	for i, lp := range p.Loops {
		out[i] = lp.Iter.Name
	}
	return out
}

// IterSlots returns the environment slots of the loop variables in nest
// order.
func (p *Program) IterSlots() []int {
	out := make([]int, len(p.Loops))
	for i, lp := range p.Loops {
		out[i] = lp.Slot
	}
	return out
}

// TupleNames returns the loop variables in source declaration order — the
// order OnTuple callbacks and generated code emit tuple values, which is
// deliberately independent of the nest order the planner chose. Decoders
// (kernelsim.FromTuple and friends) stay valid under loop reordering.
func (p *Program) TupleNames() []string {
	out := make([]string, 0, len(p.Loops))
	for _, it := range p.Source.Iterators() {
		out = append(out, it.Name)
	}
	return out
}

// TupleSlots returns the environment slots of the loop variables in source
// declaration order (TupleNames order).
func (p *Program) TupleSlots() []int {
	out := make([]int, 0, len(p.Loops))
	for _, it := range p.Source.Iterators() {
		slot, _ := p.Scope.Slot(it.Name)
		out = append(out, slot)
	}
	return out
}

// NewEnv returns a fresh environment with settings prefilled.
func (p *Program) NewEnv() *expr.Env {
	env := expr.NewEnv(p.NumSlots())
	for _, s := range p.Settings {
		env.Slots[s.Slot] = s.V
	}
	return env
}

// SettingBySlot returns the prefilled setting values keyed by slot; engines
// that run on raw int64 environments use it to recover string-valued setting
// arguments for deferred host functions.
func (p *Program) SettingBySlot() map[int]expr.Value {
	out := make(map[int]expr.Value, len(p.Settings))
	for _, s := range p.Settings {
		out[s.Slot] = s.V
	}
	return out
}

// Describe renders a human-readable picture of the compiled nest: loop
// order, level sets, and where each step was hoisted. The paper's
// space-construction trace, in text.
func (p *Program) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: %d loops, %d constraints, %d folded constants\n",
		len(p.Loops), len(p.Constraints), len(p.Folded))
	selNote := func(string) string { return "" }
	cardNote := func(string) string { return "" }
	if ri := p.Reorder; ri != nil {
		if ri.Applied {
			fmt.Fprintf(&b, "order: %s  # reordered from %s\n",
				strings.Join(ri.Chosen, ", "), strings.Join(ri.Declared, ", "))
		}
		fmt.Fprintf(&b, "reorder: %s\n", ri)
		selNote = func(name string) string {
			if est, ok := ri.SelectivityOf(name); ok {
				return fmt.Sprintf(", sel~%.3f", est.Pass)
			}
			return ""
		}
		cardNote = func(name string) string {
			if c, ok := ri.Cards[name]; ok {
				return fmt.Sprintf(", ~%d vals", c)
			}
			return ""
		}
	}
	if p.TabDisabled {
		// The tables are derived data; only the ablation flag changes
		// the plan identity (and thus checkpoint fingerprints).
		b.WriteString("tabulation: off\n")
	}
	if len(p.Prelude) > 0 {
		b.WriteString("prelude:\n")
		for _, st := range p.Prelude {
			writeStep(&b, "  ", st, selNote)
		}
	}
	for i, lp := range p.Loops {
		indent := strings.Repeat("  ", i)
		switch lp.Iter.Kind {
		case space.ExprIter:
			fmt.Fprintf(&b, "%sfor %s in %s:  # L%d%s\n", indent, lp.Iter.Name, lp.Domain,
				lp.Level, cardNote(lp.Iter.Name))
		default:
			fmt.Fprintf(&b, "%sfor %s in @%s(%s):  # L%d%s\n", indent, lp.Iter.Name,
				lp.Iter.Kind, strings.Join(lp.Iter.DeclaredDeps, ", "), lp.Level,
				cardNote(lp.Iter.Name))
		}
		if lp.Bounds != nil {
			for _, g := range lp.Bounds.Groups {
				var parts []string
				for _, lo := range g.Lo {
					parts = append(parts, fmt.Sprintf("%s >= %s", lp.Iter.Name, lo))
				}
				for _, hi := range g.Hi {
					parts = append(parts, fmt.Sprintf("%s < %s", lp.Iter.Name, hi))
				}
				for _, p := range g.Probes {
					parts = append(parts, fmt.Sprintf("probe not (%s)", p.Pred))
				}
				mode := "residual"
				if g.Full {
					mode = "absorbed"
				}
				fmt.Fprintf(&b, "%s  narrow %s: %s  # %s\n", indent, g.Name, strings.Join(parts, " and "), mode)
			}
		}
		for _, st := range lp.Steps {
			writeStep(&b, indent+"  ", st, selNote)
		}
	}
	return b.String()
}

func writeStep(b *strings.Builder, indent string, st Step, selNote func(string) string) {
	switch st.Kind {
	case AssignStep:
		fmt.Fprintf(b, "%s%s = %s\n", indent, st.Name, st.Expr)
	case CheckStep:
		if st.Constraint.Deferred() {
			fmt.Fprintf(b, "%sif %s(...): continue  # %s, deferred%s\n", indent, st.Name,
				st.Constraint.Class, selNote(st.Name))
		} else {
			fmt.Fprintf(b, "%sif %s: continue  # %s, %s%s\n", indent, st.Expr, st.Name,
				st.Constraint.Class, selNote(st.Name))
		}
	}
}

// FoldedNames returns the names folded to constants at plan time, sorted.
func (p *Program) FoldedNames() []string {
	out := make([]string, 0, len(p.Folded))
	for n := range p.Folded {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
