// Package naive is the planner-free ground truth of the engine and code
// generator tests: an enumerator that reads a space.Space as declared and
// shares no code with internal/plan.
package naive

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/space"
)

// Survivors enumerates s straight from its declaration and shares no
// code with the planner: the cartesian product of the iterators in
// declaration order; each derived variable evaluated by expr.Eval once
// its inputs are bound, with string settings holding their string values
// and nothing folded; host iterators and host constraints called
// directly; and every constraint checked at the leaf. It returns the
// surviving tuples in declaration order, canonicalized by Canon. An iterator must be declared after everything it reads.
func Survivors(t testing.TB, s *space.Space) []string {
	t.Helper()
	sc := expr.NewScope()
	for _, name := range s.Settings() {
		sc.Declare(name)
	}
	iters, derived := s.Iterators(), s.DerivedVars()
	for _, it := range iters {
		sc.Declare(it.Name)
	}
	for _, d := range derived {
		sc.Declare(d.Name)
	}
	slot := func(name string) int {
		i, ok := sc.Slot(name)
		if !ok {
			t.Fatalf("naive: undeclared name %q", name)
		}
		return i
	}
	bind := func(e expr.Expr) expr.Expr {
		b, err := expr.Bind(e, sc)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		return b
	}
	env := expr.NewEnv(sc.Len())
	bound := make(map[string]bool)
	for _, name := range s.Settings() {
		env.Slots[slot(name)], _ = s.SettingValue(name)
		bound[name] = true
	}
	doms := make([]space.DomainExpr, len(iters))
	for i, it := range iters {
		if it.Kind == space.ExprIter {
			d, err := it.Domain.Bind(sc)
			if err != nil {
				t.Fatalf("naive: iterator %s: %v", it.Name, err)
			}
			doms[i] = d
		}
	}
	values := make([]expr.Expr, len(derived))
	for i, d := range derived {
		values[i] = bind(d.Expr)
	}
	preds := make(map[string]expr.Expr)
	for _, c := range s.Constraints() {
		if !c.Deferred() {
			preds[c.Name] = bind(c.Pred)
		}
	}
	args := func(deps []string) []expr.Value {
		out := make([]expr.Value, len(deps))
		for i, dep := range deps {
			out[i] = env.Slots[slot(dep)]
		}
		return out
	}
	allBound := func(deps []string, bound map[string]bool) bool {
		for _, dep := range deps {
			if !bound[dep] {
				return false
			}
		}
		return true
	}
	rejects := func(c *space.Constraint) bool {
		if c.Deferred() {
			return c.Fn(args(c.DeclaredDeps))
		}
		return preds[c.Name].Eval(env).Truthy()
	}

	var out [][]int64
	tuple := make([]int64, len(iters))
	var level func(k int, bound map[string]bool)
	level = func(k int, bound map[string]bool) {
		for changed := true; changed; {
			changed = false
			for i, d := range derived {
				if !bound[d.Name] && allBound(d.Deps(), bound) {
					env.Slots[slot(d.Name)] = values[i].Eval(env)
					bound[d.Name] = true
					changed = true
				}
			}
		}
		if k == len(iters) {
			for _, c := range s.Constraints() {
				if rejects(c) {
					return
				}
			}
			out = append(out, slices.Clone(tuple))
			return
		}
		it := iters[k]
		if !allBound(it.Deps(), bound) {
			t.Fatalf("naive: iterator %s reads %v before they are bound", it.Name, it.Deps())
		}
		visit := func(v int64) bool {
			env.Slots[slot(it.Name)] = expr.IntVal(v)
			tuple[k] = v
			next := maps.Clone(bound)
			next[it.Name] = true
			level(k+1, next)
			return true
		}
		switch it.Kind {
		case space.ExprIter:
			doms[k].Iterate(env, visit)
		case space.DeferredIter:
			if dom := it.Deferred(args(it.DeclaredDeps)); dom != nil {
				dom.Iterate(&expr.Env{}, visit)
			}
		case space.ClosureIter:
			it.Generator(args(it.DeclaredDeps), visit)
		}
	}
	level(0, bound)
	return Canon(out)
}

// Canon returns tuples in a canonical order, each as its comma-joined
// values, so survivor sets compare across enumeration orders and worker
// schedules.
func Canon(tuples [][]int64) []string {
	out := make([]string, len(tuples))
	for i, tu := range tuples {
		parts := make([]string, len(tu))
		for j, v := range tu {
			parts[j] = fmt.Sprintf("%d", v)
		}
		out[i] = strings.Join(parts, ",")
	}
	sort.Strings(out)
	return out
}

// Case is one named space of a test corpus.
type Case struct {
	Name  string
	Space *space.Space
}

// PinCorpus returns spaces whose constraints bounds compilation solves
// into pins (plan.Pin): `x * c + d != y` and `(x + d) * c != y` for c in
// 1..5 over x = range(-9, 10, step), step in 1..3, with y running over
// negative and positive targets, values c does not divide and values off
// x's progression; the same forms against targets at MinInt64 and
// MaxInt64, where the pin's numerator wraps; and two pinned disjuncts of
// one constraint on one loop.
func PinCorpus() []Case {
	x, y, lit := expr.NewRef("x"), expr.NewRef("y"), expr.IntLit
	forms := []struct {
		name string
		lhs  func(c, d int64) expr.Expr
	}{
		{"x*c+d", func(c, d int64) expr.Expr { return expr.Add(expr.Mul(x, lit(c)), lit(d)) }},
		{"(x+d)*c", func(c, d int64) expr.Expr { return expr.Mul(expr.Add(x, lit(d)), lit(c)) }},
	}
	var out []Case
	for _, f := range forms {
		for c := int64(1); c <= 5; c++ {
			for step := int64(1); step <= 3; step++ {
				d := c - 3
				s := space.New()
				s.Range("y", lit(-25), lit(26))
				s.RangeStep("x", lit(-9), lit(10), lit(step))
				s.Constrain("pin", space.Hard, expr.Ne(f.lhs(c, d), y))
				out = append(out, Case{fmt.Sprintf("%s c=%d d=%d step=%d", f.name, c, d, step), s})
			}
			for _, d := range []int64{-2, 2} {
				s := space.New()
				s.List("y", lit(math.MinInt64), lit(math.MaxInt64), lit(4*c))
				s.Range("x", lit(-9), lit(10))
				s.Constrain("pin", space.Hard, expr.Ne(f.lhs(c, d), y))
				out = append(out, Case{fmt.Sprintf("%s c=%d d=%d extreme targets", f.name, c, d), s})
			}
		}
	}
	s := space.New()
	s.Range("y", lit(-25), lit(26))
	s.Range("x", lit(-9), lit(10))
	s.Constrain("two", space.Hard, expr.Or(
		expr.Ne(expr.Mul(x, lit(2)), y),
		expr.Ne(expr.Add(expr.Mul(x, lit(3)), lit(1)), expr.Add(y, lit(7)))))
	return append(out, Case{"two pinned disjuncts", s})
}

// WrapCorpus returns the two specs over x = range(0, 10) with setting
// big = MaxInt64 whose absorbed bound once wrapped: `x * 2 < big` (a
// ceiling bound) and `x * 2 != big` (a pin). Both reject every x, so
// they have no survivors.
func WrapCorpus() []Case {
	x, lit := expr.NewRef("x"), expr.IntLit
	var out []Case
	for name, pred := range map[string]func(l, r expr.Expr) expr.Expr{"x * 2 < big": expr.Lt, "x * 2 != big": expr.Ne} {
		s := space.New()
		s.IntSetting("big", math.MaxInt64)
		s.Range("x", lit(0), lit(10))
		s.Constrain("c", space.Hard, pred(expr.Mul(x, lit(2)), expr.NewRef("big")))
		out = append(out, Case{name, s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
