package engine

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// naiveSurvivors enumerates s straight from its declaration and shares no
// code with the planner: the cartesian product of the iterators in
// declaration order; each derived variable evaluated by expr.Eval once
// its inputs are bound, with string settings holding their string values
// and nothing folded; host iterators and host constraints called
// directly; and every constraint checked at the leaf. It returns the
// surviving tuples in declaration order, canonicalized as collectCanon
// does. An iterator must be declared after everything it reads.
func naiveSurvivors(t *testing.T, s *space.Space) []string {
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
	return canonTuples(out)
}

// requireNaiveSurvivors runs s on every backend at Workers {1, 4} ×
// ChunkSize {1, 64} × DisableFolding {false, true} and requires each
// survivor set to equal naiveSurvivors'.
func requireNaiveSurvivors(t *testing.T, label string, s *space.Space) {
	t.Helper()
	want := naiveSurvivors(t, s)
	if len(want) == 0 {
		t.Fatalf("%s: no survivors; the comparison is vacuous", label)
	}
	for _, noFold := range []bool{false, true} {
		prog, err := plan.Compile(s, verified(plan.Options{DisableFolding: noFold}))
		if err != nil {
			t.Fatalf("%s no-fold=%v: %v", label, noFold, err)
		}
		for _, e := range allBackends(t, prog) {
			for _, workers := range []int{1, 4} {
				for _, chunk := range []int{1, 64} {
					l := fmt.Sprintf("%s no-fold=%v %s workers=%d chunk=%d", label, noFold, e.Name(), workers, chunk)
					got, _ := collectCanon(t, e, Options{Workers: workers, ChunkSize: chunk}, l)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d survivors, naive enumeration %d", l, len(got), len(want))
					}
				}
			}
		}
	}
}
