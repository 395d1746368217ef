package space

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/expr"
)

// NodeKind classifies the named entities of a Space.
type NodeKind uint8

// Node kinds.
const (
	// SettingNode is a fixed scalar: a device parameter from the query or
	// capability tables (Figures 8–9) or a tuning setting such as precision
	// and transposition (Figure 10). Settings are constants of one tuning
	// session and are folded into all expressions at plan time.
	SettingNode NodeKind = iota
	IterNode
	DerivedNode
	ConstraintNode
)

func (k NodeKind) String() string {
	switch k {
	case SettingNode:
		return "setting"
	case IterNode:
		return "iterator"
	case DerivedNode:
		return "derived"
	case ConstraintNode:
		return "constraint"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Space is the declarative description of an autotuning search space: the
// paper's notation, reified. Build one with New and the declaration methods,
// then pass it to internal/plan to compile an executable loop nest.
//
// A Space accumulates declaration errors instead of returning them from
// every method (fluent construction); Validate reports them all.
type Space struct {
	settings   map[string]expr.Value
	settingPos map[string]Pos
	order      []string // declaration order of all names
	kinds      map[string]NodeKind

	iters       []*Iterator
	deriveds    []*Derived
	constraints []*Constraint

	errs []error
}

// New returns an empty space.
func New() *Space {
	return &Space{
		settings:   make(map[string]expr.Value),
		settingPos: make(map[string]Pos),
		kinds:      make(map[string]NodeKind),
	}
}

func (s *Space) declare(name string, kind NodeKind) bool {
	if name == "" {
		s.errs = append(s.errs, errors.New("space: empty name"))
		return false
	}
	if prev, ok := s.kinds[name]; ok {
		s.errs = append(s.errs, fmt.Errorf("space: %q redeclared (was %s, now %s)", name, prev, kind))
		return false
	}
	s.kinds[name] = kind
	s.order = append(s.order, name)
	return true
}

// Setting declares a fixed scalar parameter.
func (s *Space) Setting(name string, v expr.Value) *Space {
	if s.declare(name, SettingNode) {
		s.settings[name] = v
	}
	return s
}

// IntSetting declares a fixed integer parameter.
func (s *Space) IntSetting(name string, v int64) *Space { return s.Setting(name, expr.IntVal(v)) }

// StrSetting declares a fixed string parameter.
func (s *Space) StrSetting(name, v string) *Space { return s.Setting(name, expr.StrVal(v)) }

// SetSettingPos records the source position of a setting declaration; the
// speclang parser calls it so diagnostics can point at the declaration.
func (s *Space) SetSettingPos(name string, pos Pos) *Space {
	s.settingPos[name] = pos
	return s
}

// SettingPos returns the recorded source position of a setting (the zero
// Pos when none was recorded).
func (s *Space) SettingPos(name string) Pos { return s.settingPos[name] }

// AddIterator declares an iterator built elsewhere.
func (s *Space) AddIterator(it *Iterator) *Space {
	if s.declare(it.Name, IterNode) {
		s.iters = append(s.iters, it)
	}
	return s
}

// DomainIter declares an expression iterator over an arbitrary domain.
func (s *Space) DomainIter(name string, d DomainExpr) *Iterator {
	it := &Iterator{Name: name, Kind: ExprIter, Domain: d}
	s.AddIterator(it)
	return it
}

// Range declares the expression iterator `name = range(start, stop)`.
func (s *Space) Range(name string, start, stop expr.Expr) *Iterator {
	return s.DomainIter(name, NewRange(start, stop))
}

// RangeStep declares the expression iterator `name = range(start, stop, step)`.
func (s *Space) RangeStep(name string, start, stop, step expr.Expr) *Iterator {
	return s.DomainIter(name, NewRangeStep(start, stop, step))
}

// List declares an expression iterator over an explicit element list.
func (s *Space) List(name string, elems ...expr.Expr) *Iterator {
	return s.DomainIter(name, NewList(elems...))
}

// IntList declares an expression iterator over explicit integer values.
func (s *Space) IntList(name string, vals ...int64) *Iterator {
	return s.DomainIter(name, NewIntList(vals...))
}

// Flag declares the two-valued iterator range(0, 2), the paper's idiom for
// boolean tuning switches such as tex_a and shmem_l1 (Figure 11).
func (s *Space) Flag(name string) *Iterator {
	return s.DomainIter(name, NewRange(expr.IntLit(0), expr.IntLit(2)))
}

// DeferredIter declares a deferred iterator: fn receives the current values
// of deps (in order) and returns the domain to iterate, which may be nil for
// an empty domain. This is the @iterator function form of Figures 2 and 5.
func (s *Space) DeferredIter(name string, deps []string, fn DeferredFn) *Iterator {
	it := &Iterator{Name: name, Kind: DeferredIter, DeclaredDeps: deps, Deferred: fn}
	s.AddIterator(it)
	return it
}

// ClosureIter declares a closure (generator) iterator: gen is re-entered on
// every loop activation and yields values, holding state in its locals —
// the @iterator generator form of Figures 3 and 6.
func (s *Space) ClosureIter(name string, deps []string, gen GeneratorFn) *Iterator {
	it := &Iterator{Name: name, Kind: ClosureIter, DeclaredDeps: deps, Generator: gen}
	s.AddIterator(it)
	return it
}

// Derived declares a named intermediate value (Figure 12).
func (s *Space) Derived(name string, e expr.Expr) *Derived {
	d := &Derived{Name: name, Expr: e}
	if s.declare(name, DerivedNode) {
		s.deriveds = append(s.deriveds, d)
	}
	return d
}

// Constrain declares an expression constraint with rejection predicate pred.
func (s *Space) Constrain(name string, class Class, pred expr.Expr) *Constraint {
	c := &Constraint{Name: name, Class: class, Pred: pred}
	if s.declare(name, ConstraintNode) {
		s.constraints = append(s.constraints, c)
	}
	return c
}

// DeferredConstraint declares a deferred constraint: fn receives the values
// of deps and reports rejection (§VI).
func (s *Space) DeferredConstraint(name string, class Class, deps []string, fn func(args []expr.Value) bool) *Constraint {
	c := &Constraint{Name: name, Class: class, DeclaredDeps: deps, Fn: fn}
	if s.declare(name, ConstraintNode) {
		s.constraints = append(s.constraints, c)
	}
	return c
}

// Accessors.

// Settings returns the setting names in declaration order.
func (s *Space) Settings() []string {
	var out []string
	for _, n := range s.order {
		if s.kinds[n] == SettingNode {
			out = append(out, n)
		}
	}
	return out
}

// SettingValue returns the value of a setting.
func (s *Space) SettingValue(name string) (expr.Value, bool) {
	v, ok := s.settings[name]
	return v, ok
}

// Iterators returns the iterators in declaration order.
func (s *Space) Iterators() []*Iterator { return s.iters }

// Iterator returns the iterator named name, if any.
func (s *Space) Iterator(name string) (*Iterator, bool) {
	for _, it := range s.iters {
		if it.Name == name {
			return it, true
		}
	}
	return nil, false
}

// DerivedVars returns the derived variables in declaration order.
func (s *Space) DerivedVars() []*Derived { return s.deriveds }

// Constraints returns the constraints in declaration order.
func (s *Space) Constraints() []*Constraint { return s.constraints }

// Kind returns the node kind of name.
func (s *Space) Kind(name string) (NodeKind, bool) {
	k, ok := s.kinds[name]
	return k, ok
}

// Names returns all declared names in declaration order.
func (s *Space) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Validate checks the declaration-level well-formedness of the space:
// accumulated builder errors, resolvability of every dependency, and the
// rule that constraints are sinks (nothing may depend on a constraint).
// Cycle detection across iterators and derived variables is the planner's
// job, since it owns the dependency DAG.
func (s *Space) Validate() error {
	errs := append([]error(nil), s.errs...)
	check := func(owner string, deps []string) {
		for _, d := range deps {
			k, ok := s.kinds[d]
			if !ok {
				errs = append(errs, fmt.Errorf("space: %s depends on undeclared name %q", owner, d))
				continue
			}
			if k == ConstraintNode {
				errs = append(errs, fmt.Errorf("space: %s depends on constraint %q; constraints cannot be referenced", owner, d))
			}
		}
	}
	for _, it := range s.iters {
		check("iterator "+it.Name, it.Deps())
		if it.Kind == ExprIter {
			if r, ok := it.Domain.(*RangeDomain); ok {
				if lit, ok := r.Step.(*expr.Lit); ok {
					if i, _ := lit.V.AsInt(); i == 0 {
						errs = append(errs, fmt.Errorf("space: iterator %s has zero step", it.Name))
					}
				}
			}
		}
	}
	for _, d := range s.deriveds {
		check("derived "+d.Name, d.Deps())
	}
	for _, c := range s.constraints {
		check("constraint "+c.Name, c.Deps())
	}
	return errors.Join(errs...)
}

// ConstMap returns the settings as a folding map for plan-time
// specialization.
func (s *Space) ConstMap() map[string]expr.Value {
	out := make(map[string]expr.Value, len(s.settings))
	for k, v := range s.settings {
		out[k] = v
	}
	return out
}

// Summary returns a short multi-line description of the space, suitable for
// CLI output.
func (s *Space) Summary() string {
	byClass := map[Class]int{}
	for _, c := range s.constraints {
		byClass[c.Class]++
	}
	return fmt.Sprintf("space: %d settings, %d iterators, %d derived, %d constraints (%d hard, %d soft, %d correctness)",
		len(s.settings), len(s.iters), len(s.deriveds), len(s.constraints),
		byClass[Hard], byClass[Soft], byClass[Correctness])
}

// SortedSettings returns setting names in lexical order (stable reporting).
func (s *Space) SortedSettings() []string {
	out := s.Settings()
	sort.Strings(out)
	return out
}
