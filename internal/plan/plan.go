// Package plan compiles a declarative space.Space into an executable loop
// nest: the Program. It performs the analyses of §X of the paper —
// dependency-DAG construction, level sets, loop ordering — plus plan-time
// specialization (settings and setting-only derived variables fold to
// constants, as the paper's translator does when it burns precision and
// transposition into the generated C; strings always fold, so every
// Program is int64-only) and constraint hoisting: every constraint and
// derived variable is attached to the outermost loop at which all of its
// dependencies are bound, so failing tuples are cut before inner loops
// open. Hoisting is the mechanism behind the paper's aggressive pruning
// speed; Options.DisableHoisting exists to measure exactly that (the
// ablation benchmark).
package plan

import (
	"fmt"
	"slices"
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
	// prelude). It indexes the per-level optimizer counters.
	Depth int

	// TempRefs counts the static references to optimizer temps in this
	// step's expression; the engine's derived cache-hit counter credits it
	// once per run of the step.
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

	// Settings lists the slots to prefill before enumeration: the
	// settings, then the folded derived variables a host function reads.
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

	// TabPricing records what the tabulation budget priced out (see
	// tabulate.go), for the analyzer's budget warning. nil when
	// tabulation is disabled or no check qualified.
	TabPricing *TabPricing

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

	// DisableFolding skips plan-time constant propagation of integer
	// settings, and of derived variables with integer values, into
	// expressions. Exists for the folding ablation. Strings fold either
	// way: no string reaches a Program. Deferred and closure host
	// functions still receive setting values through their argument slots
	// either way.
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
	progs, err := CompileEach(s, opts)
	if err != nil {
		return nil, err
	}
	return progs[0], nil
}

// CompileEach builds the Program Compile builds for s under each option
// set, in order, and plans s once for all of them: it builds one front per
// folding mode and places each distinct hoisting mode and loop order once.
// An option set gets its own copy of a placement that a later option set
// also uses, so the passes of one never reach another's program. It
// returns the first error an option set meets.
func CompileEach(s *space.Space, opts ...Options) ([]*Program, error) {
	p := &planner{s: s, placed: make(map[string]*Program)}
	progs := make([]*Program, len(opts))
	for i, o := range opts {
		p.last = i == len(opts)-1
		prog, err := p.compile(o)
		if err != nil {
			return nil, err
		}
		if o.Verify {
			if err := prog.Verify(); err != nil {
				return nil, fmt.Errorf("plan verification: %w", err)
			}
		}
		progs[i] = prog
	}
	return progs, nil
}

// planner plans the option sets of one space. It keeps each front, and
// each placement a later option set may use, as built.
type planner struct {
	s      *space.Space
	fronts [2]*front // by Options.DisableFolding
	placed map[string]*Program

	// last is set while the last option set compiles: no later one needs
	// a placement, so the planner hands out the one it kept (once) and
	// keeps none.
	last bool
}

// place returns the placement opts dictate — by their folding mode,
// hoisting mode and loop order, the only options placement reads — for
// the caller to run passes on, building the front and the placement on
// first use. It is a copy unless no later option set needs the placement.
func (p *planner) place(opts Options) (*Program, error) {
	fi := 0
	if opts.DisableFolding {
		fi = 1
	}
	f := p.fronts[fi]
	if f == nil {
		var err error
		if f, err = newFront(p.s, opts.DisableFolding); err != nil {
			return nil, err
		}
		p.fronts[fi] = f
	}
	order, err := f.order(opts.Order)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%d %t %s", fi, opts.DisableHoisting, strings.Join(order, "\x00"))
	prog, ok := p.placed[key]
	if !ok {
		if prog, err = f.place(order, opts.DisableHoisting); err != nil {
			return nil, err
		}
	}
	if p.last {
		delete(p.placed, key)
		return prog, nil
	}
	p.placed[key] = prog
	return prog.clone(), nil
}

// compile runs the loop-order arbitration for one option set. The
// declared placement serves as the probe, then (with bounds added) as the
// declared arbitration program, and the arbitration winner becomes the
// final plan once the remaining passes run on it. The final plan is placed
// again, from the same front, only when the caller's options change it:
// DisableHoisting changes where steps land, and DisableNarrowing forbids
// the bounds the arbitration programs carry.
func (p *planner) compile(opts Options) (*Program, error) {
	if opts.DisableReorder || opts.Order != nil {
		prog, err := p.place(opts)
		if err != nil {
			return nil, err
		}
		runPasses(prog, opts, false)
		return prog, nil
	}
	// The probe is placed with fixed flags — hoisting on, folding as
	// requested — and no passes, so every constraint is present as a step
	// with its bound expression. Keeping the decision independent of the
	// other ablation flags guarantees every ablation combo of one space
	// sees the same chosen order: the cross-engine fuzz tests rely on
	// identical tuple streams across those combos.
	arb := Options{DisableFolding: opts.DisableFolding}
	prog, err := p.place(arb)
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
		chosen, err := p.place(arb)
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
		if prog, err = p.place(o); err != nil {
			return nil, err
		}
		bounded = false
	}
	runPasses(prog, opts, bounded)
	prog.Reorder = info
	return prog, nil
}

// runPasses runs the passes after placement: bounds compilation, unless
// opts disables it or bounded says it ran, dead-assignment removal, the
// expression optimizer, the chunk layout and constraint tabulation. Bounds
// compilation runs before the expression optimizer, so the derived bound
// expressions participate in CSE and invariant motion like any other step
// expression. Absorbed checks leave the bodies, but an absorbed equality
// that pins its loop to one value still blocks subexpression hoisting
// above that loop (hoistSafe). The optimizer removes dead assignments
// itself, after its identities and before it shares any subexpression, so
// it never shares one with a step that no longer runs.
func runPasses(prog *Program, opts Options, bounded bool) {
	if !bounded && !opts.DisableNarrowing {
		compileBounds(prog)
	}
	if opts.DisableCSE {
		dropDeadAssigns(prog)
	} else {
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

// clone returns a copy of a placed program that the passes can rewrite
// without touching p: its own scope, prelude, loops and step slices. The
// copy shares p's expression trees, domains, graph, settings and folded
// constants: no pass changes a node in place (they build new nodes and
// replace step, bound and temp expressions), and only placement writes the
// rest.
func (p *Program) clone() *Program {
	c := *p
	c.Scope = p.Scope.Clone()
	c.Prelude = slices.Clone(p.Prelude)
	c.Loops = make([]*Loop, len(p.Loops))
	for i, lp := range p.Loops {
		l := *lp
		l.Steps = slices.Clone(lp.Steps)
		c.Loops[i] = &l
	}
	return &c
}

// front is the order-independent half of planning s under one folding
// mode: validation, constant folding, every live entity in folded form,
// and the dependency DAG with its level sets and topological order.
// Placement (front.place) only reads it, so every loop order and hoisting
// mode of the space is placed from one front.
//
// Strings end in planning. Every string-valued setting and derived
// variable folds, and every bound step, loop domain and range bound must
// compile to int64 closures (expr.CompileInt, space.CompileDomain), so
// every Program placement returns is int64-only by construction. A string
// that survives folding, or an operator that folding applies to constants
// of the wrong kind, is a *TypeError naming the entity.
type front struct {
	s      *space.Space
	folded map[string]expr.Value

	// doms and exprs hold the folded, unbound domains of the expression
	// iterators and expressions of the live derived variables and
	// expression constraints; live lists the derived variables that did
	// not fold, in declaration order.
	doms  map[string]space.DomainExpr
	exprs map[string]expr.Expr
	live  []*space.Derived

	g       *dag.Graph
	levelOf map[string]int
	topo    []string
	iters   []string // the iterators in topological order: the declared nest

	// cons indexes the constraints by name; hostReads names what a
	// deferred or closure host function reads.
	cons      map[string]*space.Constraint
	hostReads map[string]bool
}

// newFront validates and folds s, under DisableFolding when
// disableFolding is set, and builds its dependency DAG.
func newFront(s *space.Space, disableFolding bool) (*front, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	folded, err := foldConstants(s, disableFolding)
	if err != nil {
		return nil, err
	}
	f := &front{
		s:         s,
		folded:    folded,
		doms:      make(map[string]space.DomainExpr),
		exprs:     make(map[string]expr.Expr),
		live:      make([]*space.Derived, 0, len(s.DerivedVars())),
		cons:      make(map[string]*space.Constraint, len(s.Constraints())),
		hostReads: make(map[string]bool),
	}

	// Fold every live entity once; the DAG and every placement read these
	// forms.
	for _, it := range s.Iterators() {
		if it.Kind == space.ExprIter {
			if f.doms[it.Name], err = foldEntity(it.Domain.Fold, folded); err != nil {
				return nil, &TypeError{Entity: "iterator", Name: it.Name, Pos: it.Pos, Err: err}
			}
		}
	}
	for _, d := range s.DerivedVars() {
		if f.isConst(d.Name) {
			continue
		}
		f.live = append(f.live, d)
		if f.exprs[d.Name], err = foldEntity(d.Expr.Fold, folded); err != nil {
			return nil, &TypeError{Entity: "derived variable", Name: d.Name, Pos: d.Pos, Err: err}
		}
	}
	for _, c := range s.Constraints() {
		if !c.Deferred() {
			if f.exprs[c.Name], err = foldEntity(c.Pred.Fold, folded); err != nil {
				return nil, &TypeError{Entity: "constraint", Name: c.Name, Pos: c.Pos, Err: err}
			}
		}
	}

	// Dependency DAG over the non-constant entities.
	g := dag.New()
	for _, it := range s.Iterators() {
		g.AddVertex(it.Name, "iterator")
	}
	for _, d := range f.live {
		g.AddVertex(d.Name, "derived")
	}
	for _, c := range s.Constraints() {
		g.AddVertex(c.Name, "constraint")
	}
	addDeps := func(name string, deps []string) {
		for _, dep := range deps {
			if f.isConst(dep) || f.isSetting(dep) {
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
			addDeps(it.Name, space.DomainDeps(f.doms[it.Name]))
		} else {
			addDeps(it.Name, it.Deps())
		}
	}
	for _, d := range f.live {
		addDeps(d.Name, expr.Deps(f.exprs[d.Name]))
	}
	for _, c := range s.Constraints() {
		if c.Deferred() {
			addDeps(c.Name, c.Deps())
		} else {
			addDeps(c.Name, expr.Deps(f.exprs[c.Name]))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f.g = g
	if f.topo, err = g.TopoOrder(); err != nil {
		return nil, err
	}
	for _, name := range f.topo {
		if k, _ := s.Kind(name); k == space.IterNode {
			f.iters = append(f.iters, name)
		}
	}
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	f.levelOf = make(map[string]int, len(f.topo))
	for l, names := range levels {
		for _, n := range names {
			f.levelOf[n] = l
		}
	}
	for _, it := range s.Iterators() {
		for _, dep := range it.DeclaredDeps {
			f.hostReads[dep] = true
		}
	}
	for _, c := range s.Constraints() {
		f.cons[c.Name] = c
		for _, dep := range c.DeclaredDeps {
			f.hostReads[dep] = true
		}
	}
	return f, nil
}

func (f *front) isConst(name string) bool { _, ok := f.folded[name]; return ok }

func (f *front) isSetting(name string) bool {
	k, ok := f.s.Kind(name)
	return ok && k == space.SettingNode
}

// order returns the loop order: the declared nest (a stable topological
// order of the iterators) when order is nil, otherwise order itself once
// it is validated against the DAG.
func (f *front) order(order []string) ([]string, error) {
	if order == nil {
		return f.iters, nil
	}
	if len(order) != len(f.iters) {
		return nil, fmt.Errorf("plan: Order lists %d iterators, space has %d", len(order), len(f.iters))
	}
	seen := make(map[string]bool, len(order))
	for _, name := range order {
		if k, ok := f.s.Kind(name); !ok || k != space.IterNode {
			return nil, fmt.Errorf("plan: Order entry %q is not an iterator", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("plan: Order lists %q twice", name)
		}
		seen[name] = true
	}
	// Validate against the DAG: if a path runs a -> b (b depends on a,
	// possibly through derived variables), a must come first.
	pos := make(map[string]int, len(order))
	for i, name := range order {
		pos[name] = i
	}
	for _, a := range order {
		for _, b := range order {
			if a != b && f.g.Reaches(a, b) && pos[a] > pos[b] {
				return nil, fmt.Errorf("plan: Order places %q before its dependency %q", b, a)
			}
		}
	}
	return append([]string(nil), order...), nil
}

// place builds the Program for the loop order iterOrder (validated by
// order) up to step placement: slot binding and the placement of every
// derived variable and constraint at its loop — the outermost loop at
// which its dependencies are bound, or the innermost when
// disableHoisting is set.
func (f *front) place(iterOrder []string, disableHoisting bool) (*Program, error) {
	s := f.s

	// Scope: settings first (prefilled), then iterators in loop order,
	// then derived variables. A folded derived variable has no step, so
	// one a host function reads gets a prefilled slot, as a setting has.
	scope := expr.NewScope()
	var inits []SettingInit
	for _, name := range s.Settings() {
		v, _ := s.SettingValue(name)
		inits = append(inits, SettingInit{Name: name, Slot: scope.Declare(name), V: v})
	}
	for _, d := range s.DerivedVars() {
		if v, ok := f.folded[d.Name]; ok && f.hostReads[d.Name] {
			inits = append(inits, SettingInit{Name: d.Name, Slot: scope.Declare(d.Name), V: v})
		}
	}
	loopPos := make(map[string]int, len(iterOrder))
	loops := make([]*Loop, len(iterOrder))
	for i, name := range iterOrder {
		it, _ := s.Iterator(name)
		loopPos[name] = i
		loops[i] = &Loop{Iter: it, Slot: scope.Declare(name), Level: f.levelOf[name]}
	}
	for _, d := range f.live {
		scope.Declare(d.Name)
	}

	// Bind every folded form, in declaration order so that the first
	// entity a TypeError names does not depend on the loop order, and
	// check that it compiles to int64 closures.
	doms := make(map[string]space.DomainExpr, len(f.doms))
	for _, it := range s.Iterators() {
		if it.Kind != space.ExprIter {
			continue
		}
		bound, err := f.doms[it.Name].Bind(scope)
		if err != nil {
			return nil, fmt.Errorf("plan: iterator %s: %w", it.Name, err)
		}
		if _, err := space.CompileDomain(bound); err != nil {
			return nil, &TypeError{Entity: "iterator", Name: it.Name, Pos: it.Pos, Err: err}
		}
		doms[it.Name] = bound
	}
	exprs := make(map[string]expr.Expr, len(f.exprs))
	bindExpr := func(entity, name string, pos space.Pos) error {
		bound, err := expr.Bind(f.exprs[name], scope)
		if err != nil {
			return fmt.Errorf("plan: %s %s: %w", entity, name, err)
		}
		if _, err := expr.CompileInt(bound); err != nil {
			return &TypeError{Entity: entity, Name: name, Pos: pos, Err: err}
		}
		exprs[name] = bound
		return nil
	}
	for _, d := range f.live {
		if err := bindExpr("derived variable", d.Name, d.Pos); err != nil {
			return nil, err
		}
	}
	for _, c := range s.Constraints() {
		if !c.Deferred() {
			if err := bindExpr("constraint", c.Name, c.Pos); err != nil {
				return nil, err
			}
		}
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
		if f.isConst(name) || f.isSetting(name) {
			depthMemo[name] = -1
			return -1, nil
		}
		if p, ok := loopPos[name]; ok {
			depthMemo[name] = p
			return p, nil
		}
		// Derived variable: max over dependencies.
		e, ok := exprs[name]
		if !ok {
			return 0, fmt.Errorf("plan: unknown name %q in dependency chain", name)
		}
		depth := -1
		for _, dep := range expr.Deps(e) {
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

	prog := &Program{
		Source: s,
		Scope:  scope,
		Graph:  f.g,
		Folded: f.folded,
	}
	prog.Settings = inits
	prog.Loops = loops

	// Loop domains and argument slots.
	argSlotsFor := func(deps []string) ([]int, error) {
		slots := make([]int, len(deps))
		for i, dep := range deps {
			slot, ok := scope.Slot(dep)
			if !ok {
				return nil, fmt.Errorf("dependency %q has no slot", dep)
			}
			slots[i] = slot
		}
		return slots, nil
	}
	for _, lp := range loops {
		it := lp.Iter
		if it.Kind == space.ExprIter {
			lp.Domain = doms[it.Name]
			continue
		}
		slots, err := argSlotsFor(it.DeclaredDeps)
		if err != nil {
			return nil, fmt.Errorf("plan: iterator %s: %w", it.Name, err)
		}
		lp.ArgSlots = slots
	}

	// Place derived variables and constraints. Process in topological
	// order so that, within one loop body, a derived variable is assigned
	// before anything that reads it.
	attach := func(depth int, st Step) {
		st.Depth = depth
		if depth < 0 {
			prog.Prelude = append(prog.Prelude, st)
		} else {
			loops[depth].Steps = append(loops[depth].Steps, st)
		}
	}
	innermost := len(loops) - 1
	for _, name := range f.topo {
		if k, _ := s.Kind(name); k == space.DerivedNode {
			depth, err := depthOf(name)
			if err != nil {
				return nil, err
			}
			slot, _ := scope.Slot(name)
			attach(depth, Step{Kind: AssignStep, Name: name, Slot: slot, Expr: exprs[name], StatsID: -1})
			continue
		}
		c, ok := f.cons[name]
		if !ok {
			continue // iterator
		}
		// Placement depth comes from the folded dependency set: a
		// predicate whose setting-dependent branch folds away can hoist
		// past the dependencies that vanished with it. Binding keeps the
		// names, so the bound form reads the same set.
		var cdeps []string
		if c.Deferred() {
			cdeps = c.Deps()
		} else {
			cdeps = expr.Deps(exprs[name])
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
		if disableHoisting && innermost >= 0 {
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
			st.Expr = exprs[name]
		}
		attach(depth, st)
	}
	return prog, nil
}

// foldConstants is plan-time specialization: starting from the settings,
// it repeatedly folds derived variables whose dependencies are all
// constants, as the paper's translator burns precision and transposition
// into its C. String values never outlive this: with disable set it keeps
// only the string-valued constants, so DisableFolding governs integer
// constants alone.
func foldConstants(s *space.Space, disable bool) (map[string]expr.Value, error) {
	folded := s.ConstMap()
	for changed := true; changed; {
		changed = false
		for _, d := range s.DerivedVars() {
			if _, done := folded[d.Name]; done {
				continue
			}
			f, err := foldEntity(d.Expr.Fold, folded)
			if err != nil {
				return nil, &TypeError{Entity: "derived variable", Name: d.Name, Pos: d.Pos, Err: err}
			}
			if lit, ok := f.(*expr.Lit); ok {
				folded[d.Name] = lit.V
				changed = true
			}
		}
	}
	if disable {
		for name, v := range folded {
			if v.K != expr.Str {
				delete(folded, name)
			}
		}
	}
	return folded, nil
}

// foldEntity runs fold over consts, returning an operator applied to
// constants of the wrong kind (`mode + 1` with a string mode) as the
// *expr.TypeError instead of the panic Eval raises.
func foldEntity[T any](fold func(map[string]expr.Value) T, consts map[string]expr.Value) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			te, ok := r.(*expr.TypeError)
			if !ok {
				panic(r)
			}
			err = te
		}
	}()
	return fold(consts), nil
}

// TypeError is the error Compile returns for a spec whose strings do not
// end at plan time: folding applied an operator to constants of the wrong
// kind, or a step, a loop domain or a range bound still holds a string
// after folding (a list of strings, a string setting compared with an
// iterator). Err is the *expr.TypeError or the int64 compiler's error.
type TypeError struct {
	Entity string // "iterator", "derived variable" or "constraint"
	Name   string
	Pos    space.Pos
	Err    error
}

func (e *TypeError) Error() string {
	at := ""
	if e.Pos.Known() {
		at = " at " + e.Pos.String()
	}
	return fmt.Sprintf("plan: %s %s%s: %v", e.Entity, e.Name, at, e.Err)
}

func (e *TypeError) Unwrap() error { return e.Err }

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
// reads them only as a floor on the work under one tile (§X.B: the level
// sets make the nest embarrassingly parallel at L0; the realized tile
// counts say how many levels are worth tiling).
func (p *Program) EstimateLoopCards() []int64 {
	env := p.NewEnv()
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
		cards[i] = int64(envDomainLen(lp.Domain, env, 1<<22))
	}
	return cards
}

// envDomainLen returns how many values d yields in env before a walk
// capped at limit stops: by arithmetic for a range whose walk does not
// wrap int64 (rangeLen), by walking otherwise. Static domains are sized
// this way, against the prelude environment.
func envDomainLen(d space.DomainExpr, env *expr.Env, limit uint64) uint64 {
	if rd, isRange := d.(*space.RangeDomain); isRange {
		if start, stop, step, valid := rd.Span(env); valid {
			if n, wraps := rangeLen(start, stop, step, limit); !wraps {
				return n
			}
		}
	}
	return envWalkLen(d, env, limit)
}

// envWalkLen is envDomainLen by walking, a function of its own for the
// reason walkLen is.
func envWalkLen(d space.DomainExpr, env *expr.Env, limit uint64) (n uint64) {
	d.Iterate(env, func(int64) bool {
		n++
		return n < limit
	})
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
// that run on raw int64 environments pass them to host functions as set,
// strings included.
func (p *Program) SettingBySlot() map[int]expr.Value {
	out := make(map[int]expr.Value, len(p.Settings))
	for _, s := range p.Settings {
		out[s.Slot] = s.V
	}
	return out
}

// IntSettings returns the settings an int64 register file holds: all but
// the strings, which no planned expression reads (place folds them all).
func (p *Program) IntSettings() []SettingInit {
	out := make([]SettingInit, 0, len(p.Settings))
	for _, s := range p.Settings {
		if s.V.K != expr.Str {
			out = append(out, s)
		}
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
				for _, p := range g.Pins {
					parts = append(parts, p.describe(lp.Iter.Name))
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

// describe renders a pin as the equation it solves for loop variable x:
// x * Den == Num, or x == Num when Den is 1.
func (p Pin) describe(x string) string {
	if l, ok := p.Den.(*expr.Lit); ok && l.V.I == 1 {
		return fmt.Sprintf("%s == %s", x, p.Num)
	}
	return fmt.Sprintf("%s * %s == %s", x, p.Den, p.Num)
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
