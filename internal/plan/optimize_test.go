package plan

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/space"
)

// findStep returns the step named name and the depth it is placed at
// (-1 = prelude), or nil.
func findStep(prog *Program, name string) (*Step, int) {
	for i := range prog.Prelude {
		if prog.Prelude[i].Name == name {
			return &prog.Prelude[i], -1
		}
	}
	for d, lp := range prog.Loops {
		for i := range lp.Steps {
			if lp.Steps[i].Name == name {
				return &lp.Steps[i], d
			}
		}
	}
	return nil, -2
}

func countTempSteps(prog *Program) int {
	n := 0
	for _, st := range prog.Prelude {
		if st.Temp {
			n++
		}
	}
	for _, lp := range prog.Loops {
		for _, st := range lp.Steps {
			if st.Temp {
				n++
			}
		}
	}
	return n
}

// mulAB is the shared subtree the CSE tests duplicate: a*b, used by two
// derived variables.
func cseSpace() *space.Space {
	s := space.New()
	s.IntSetting("n", 8)
	s.Range("a", expr.IntLit(1), expr.IntLit(5))
	s.Range("b", expr.IntLit(1), expr.IntLit(5))
	s.Derived("p", expr.Add(expr.Mul(expr.NewRef("a"), expr.NewRef("b")), expr.IntLit(1)))
	s.Derived("q", expr.Sub(expr.Mul(expr.NewRef("a"), expr.NewRef("b")), expr.IntLit(1)))
	s.Constrain("k", space.Hard, expr.Gt(expr.NewRef("p"), expr.NewRef("q")))
	return s
}

func TestCSECreatesSharedTemp(t *testing.T) {
	prog, err := Compile(cseSpace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Temps) != 1 {
		t.Fatalf("want exactly one temp for the duplicated a*b, got %d: %+v", len(prog.Temps), prog.Temps)
	}
	td := prog.Temps[0]
	if td.Uses != 2 {
		t.Errorf("temp uses = %d, want 2", td.Uses)
	}
	st, depth := findStep(prog, td.Name)
	if st == nil {
		t.Fatalf("temp step %q not placed in program", td.Name)
	}
	if !st.Temp || st.Kind != AssignStep {
		t.Errorf("temp step flags wrong: %+v", st)
	}
	// a*b depends on both loop vars; it must sit at the inner loop depth,
	// and before the first step that reads it.
	if depth != td.Depth {
		t.Errorf("placed depth %d != TempDef depth %d", depth, td.Depth)
	}
	inner := len(prog.Loops) - 1
	if td.Depth != inner {
		t.Errorf("temp depth = %d, want innermost %d", td.Depth, inner)
	}
	steps := prog.Loops[td.Depth].Steps
	tempIdx, useIdx := -1, -1
	for i := range steps {
		if steps[i].Name == td.Name {
			tempIdx = i
		}
		if steps[i].TempRefs > 0 && useIdx == -1 && !steps[i].Temp {
			useIdx = i
		}
	}
	if tempIdx == -1 || useIdx == -1 || tempIdx > useIdx {
		t.Errorf("temp at %d must precede first use at %d", tempIdx, useIdx)
	}
}

func TestHoistToOuterDepth(t *testing.T) {
	s := space.New()
	s.IntSetting("n", 6)
	s.Range("a", expr.IntLit(1), expr.IntLit(4))
	s.Range("b", expr.IntLit(1), expr.NewRef("a")) // depends on a: stays inner
	// a*(a+2) appears once, inside a constraint that is only checkable at
	// b's depth; its free variables bind at a's depth, so it must hoist.
	s.Constrain("k", space.Hard,
		expr.Gt(expr.Add(expr.Mul(expr.NewRef("a"), expr.Add(expr.NewRef("a"), expr.IntLit(2))), expr.NewRef("b")),
			expr.IntLit(30)))
	// Narrowing would absorb k into b's upper bound and leave nothing to
	// hoist; this test pins invariant motion on the body check itself.
	prog, err := Compile(s, Options{DisableNarrowing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Temps) == 0 {
		t.Fatal("expected at least one hoisted temp")
	}
	var depthA = -2
	for d, lp := range prog.Loops {
		if lp.Iter.Name == "a" {
			depthA = d
		}
	}
	hoisted := false
	for _, td := range prog.Temps {
		if td.Depth == depthA {
			hoisted = true
		}
	}
	if !hoisted {
		t.Errorf("no temp hoisted to a's depth %d: %+v", depthA, prog.Temps)
	}
}

func TestDisableCSE(t *testing.T) {
	prog, err := Compile(cseSpace(), Options{DisableCSE: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Temps) != 0 || countTempSteps(prog) != 0 {
		t.Fatalf("DisableCSE must produce no temps, got %d defs / %d steps",
			len(prog.Temps), countTempSteps(prog))
	}
	desc := prog.Describe()
	if strings.Contains(desc, "$t") {
		t.Errorf("DisableCSE program still mentions temps:\n%s", desc)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	s := space.New()
	s.IntSetting("n", 8)
	s.Range("a", expr.IntLit(1), expr.IntLit(5))
	s.Derived("m1", expr.Mul(expr.NewRef("a"), expr.IntLit(1)))   // -> a
	s.Derived("a0", expr.Add(expr.IntLit(0), expr.NewRef("a")))   // -> a
	s.Derived("z", expr.Mul(expr.NewRef("a"), expr.IntLit(0)))    // -> 0
	s.Derived("eqs", expr.Eq(expr.NewRef("a"), expr.NewRef("a"))) // -> true
	s.Derived("nn", expr.Neg(expr.Neg(expr.NewRef("a"))))         // -> a
	s.Derived("m0", expr.Mod(expr.NewRef("a"), expr.IntLit(1)))   // -> 0
	s.Constrain("k", space.Hard, expr.Gt(expr.NewRef("a"), expr.IntLit(100)))
	// One reader keeps every derived variable a live step; an equality
	// is never absorbed into the loop's range.
	var sum expr.Expr = expr.NewRef("m1")
	for _, name := range []string{"a0", "z", "eqs", "nn", "m0"} {
		sum = expr.Add(sum, expr.NewRef(name))
	}
	s.Constrain("use", space.Soft, expr.Eq(sum, expr.IntLit(7)))
	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRef := []string{"m1", "a0", "nn"}
	for _, name := range wantRef {
		st, _ := findStep(prog, name)
		if st == nil {
			t.Fatalf("step %s missing", name)
		}
		ref, ok := st.Expr.(*expr.Ref)
		if !ok || ref.Name != "a" {
			t.Errorf("%s: want Ref(a), got %#v", name, st.Expr)
		}
	}
	wantLit := map[string]int64{"z": 0, "eqs": 1, "m0": 0}
	for name, want := range wantLit {
		st, _ := findStep(prog, name)
		if st == nil {
			t.Fatalf("step %s missing", name)
		}
		lit, ok := st.Expr.(*expr.Lit)
		if !ok {
			t.Errorf("%s: want literal, got %#v", name, st.Expr)
			continue
		}
		if i, _ := lit.V.AsInt(); i != want {
			t.Errorf("%s = %d, want %d", name, i, want)
		}
	}
	if len(prog.Temps) != 0 {
		t.Errorf("simplified leaves should need no temps, got %+v", prog.Temps)
	}
}

// TestStringComparisonsFoldBeforeCSE: a repeated string comparison folds
// before the optimizer runs, with folding on and off, so no temp or step
// reads the string setting: both checks become constant-false prelude
// checks.
func TestStringComparisonsFoldBeforeCSE(t *testing.T) {
	s := space.New()
	s.StrSetting("mode", "fast")
	s.Range("a", expr.IntLit(1), expr.IntLit(4))
	dup := func() expr.Expr { return expr.Eq(expr.NewRef("mode"), expr.StrLit("slow")) }
	s.Constrain("k1", space.Hard, expr.And(dup(), expr.Gt(expr.NewRef("a"), expr.IntLit(2))))
	s.Constrain("k2", space.Hard, expr.And(dup(), expr.Gt(expr.NewRef("a"), expr.IntLit(3))))
	for _, noFold := range []bool{false, true} {
		prog, err := Compile(s, Options{DisableFolding: noFold})
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Temps) != 0 {
			t.Errorf("no-fold=%v: temps %+v, want none", noFold, prog.Temps)
		}
		for _, st := range prog.Prelude {
			if lit, ok := st.Expr.(*expr.Lit); !ok || lit.V.Truthy() {
				t.Errorf("no-fold=%v: prelude step %s = %s, want a constant false check", noFold, st.Name, st.Expr)
			}
		}
		if len(prog.Prelude) != 2 {
			t.Errorf("no-fold=%v: %d prelude steps, want k1 and k2\n%s", noFold, len(prog.Prelude), prog.Describe())
		}
	}
}

func TestConditionalPositionsNotHoisted(t *testing.T) {
	s := space.New()
	s.IntSetting("n", 7)
	s.Range("a", expr.IntLit(1), expr.IntLit(4))
	// a*a occurs twice, but only as the right operand of `or`: a
	// conditional position in both. No temp may be created for it.
	dup := func() expr.Expr { return expr.Gt(expr.Mul(expr.NewRef("a"), expr.NewRef("a")), expr.IntLit(5)) }
	s.Constrain("k1", space.Hard, expr.Or(expr.Gt(expr.NewRef("a"), expr.IntLit(3)), dup()))
	s.Constrain("k2", space.Hard, expr.Or(expr.Gt(expr.NewRef("a"), expr.IntLit(2)), dup()))
	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Temps) != 0 {
		t.Errorf("conditional-only subtree must not be hoisted, got %+v", prog.Temps)
	}
}

func TestTempRefCounts(t *testing.T) {
	prog, err := Compile(cseSpace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, lp := range prog.Loops {
		for _, st := range lp.Steps {
			total += st.TempRefs
		}
	}
	for _, st := range prog.Prelude {
		total += st.TempRefs
	}
	wantUses := 0
	for _, td := range prog.Temps {
		wantUses += td.Uses
	}
	if total != wantUses || total == 0 {
		t.Errorf("sum of step TempRefs = %d, sum of TempDef.Uses = %d; want equal and > 0", total, wantUses)
	}
}

// Temps and loop-bound expressions must only read slots assigned at or
// above the depth they evaluate at. This distilled two real bugs: a temp
// falling back to its use depth while a shallower temp references the
// same subtree, and a narrowing bound expression (evaluated at loop
// entry, i.e. the parent depth) reusing a temp assigned inside the loop
// body it narrows. The soft check cs reads every derived variable and
// narrowing cannot absorb it, so none of them is dead and the shared
// i*i and i*i*j subtrees survive; cu stays absorbable into k's bound.
func TestNoForwardSlotReads(t *testing.T) {
	ii := func() expr.Expr { return expr.Mul(expr.NewRef("i"), expr.NewRef("i")) }
	s := space.New()
	s.IntSetting("n", 8)
	s.Range("i", expr.IntLit(1), expr.IntLit(3))
	s.Range("j", expr.IntLit(1), expr.IntLit(3))
	s.Range("k", expr.IntLit(1), expr.IntLit(3))
	s.Constrain("cj", space.Hard, expr.Ne(expr.NewRef("j"), expr.IntLit(2)))
	s.Derived("x", expr.Add(ii(), expr.NewRef("k")))
	s.Derived("y", expr.Sub(ii(), expr.NewRef("k")))
	s.Derived("u", expr.Add(expr.Mul(ii(), expr.NewRef("j")), expr.NewRef("k")))
	s.Derived("v", expr.Sub(expr.Mul(ii(), expr.NewRef("j")), expr.NewRef("k")))
	s.Constrain("cu", space.Hard, expr.Gt(expr.NewRef("u"), expr.IntLit(5)))
	sum := expr.Add(expr.Add(expr.NewRef("x"), expr.NewRef("y")), expr.Add(expr.NewRef("u"), expr.NewRef("v")))
	s.Constrain("cs", space.Soft, expr.Eq(expr.Mod(sum, expr.IntLit(3)), expr.IntLit(1)))

	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Temps) == 0 {
		t.Fatalf("fixture makes no temps, so nothing below is checked\n%s", prog.Describe())
	}
	// slot -> depth of the step that assigns it (temps included; -1 is
	// the prelude), and slot -> loop depth for iterator variables.
	defDepth := map[int]int{}
	for _, st := range prog.Prelude {
		if st.Kind == AssignStep {
			defDepth[st.Slot] = -1
		}
	}
	loopDepth := map[int]int{}
	for d, lp := range prog.Loops {
		loopDepth[lp.Slot] = d
		for _, st := range lp.Steps {
			if st.Kind == AssignStep {
				defDepth[st.Slot] = d
			}
		}
	}
	var refs func(e expr.Expr, fn func(*expr.Ref))
	refs = func(e expr.Expr, fn func(*expr.Ref)) {
		switch n := e.(type) {
		case *expr.Ref:
			fn(n)
		case *expr.Unary:
			refs(n.X, fn)
		case *expr.Binary:
			refs(n.L, fn)
			refs(n.R, fn)
		case *expr.Ternary:
			refs(n.Cond, fn)
			refs(n.Then, fn)
			refs(n.Else, fn)
		case *expr.Call:
			for _, a := range n.Args {
				refs(a, fn)
			}
		case *expr.Table2D:
			refs(n.Row, fn)
			refs(n.Col, fn)
		}
	}
	for _, td := range prog.Temps {
		refs(td.Expr, func(r *expr.Ref) {
			if dd, ok := defDepth[r.Slot]; ok && dd > td.Depth {
				t.Errorf("temp %s at depth %d reads %s (slot %d) assigned at deeper depth %d",
					td.Name, td.Depth, r.Name, r.Slot, dd)
			}
		})
	}
	// k's bound must read a temp that a step of k's body reads too: the
	// subtree the second bug shared.
	isTemp := map[int]bool{}
	for _, td := range prog.Temps {
		isTemp[td.Slot] = true
	}
	shared := false
	for _, lp := range prog.Loops {
		if lp.Iter.Name != "k" {
			continue
		}
		bodyTemps := map[int]bool{}
		for _, st := range lp.Steps {
			if st.Expr != nil {
				refs(st.Expr, func(r *expr.Ref) { bodyTemps[r.Slot] = isTemp[r.Slot] })
			}
		}
		lp.Bounds.EachExpr(func(e expr.Expr) {
			refs(e, func(r *expr.Ref) { shared = shared || bodyTemps[r.Slot] })
		})
	}
	if !shared {
		t.Errorf("k's bound shares no temp with k's body, so the bound check below tests nothing\n%s", prog.Describe())
	}
	for d, lp := range prog.Loops {
		if lp.Bounds == nil {
			continue
		}
		for _, g := range lp.Bounds.Groups {
			g.eachEntryExpr(func(pe *expr.Expr) {
				refs(*pe, func(r *expr.Ref) {
					if dd, ok := defDepth[r.Slot]; ok && dd >= d {
						t.Errorf("bounds %s on loop %d reads %s (slot %d) assigned at depth %d",
							g.Name, d, r.Name, r.Slot, dd)
					}
					if ld, ok := loopDepth[r.Slot]; ok && ld >= d {
						t.Errorf("bounds %s on loop %d reads loop variable %s of depth %d",
							g.Name, d, r.Name, ld)
					}
				})
			})
		}
	}
}

// TestNoHoistAbovePinnedLoop: an absorbed equality (`a * b != 8` rejects
// every b but 8/a) pins b's loop to at most one value per entry, so the
// single-use invariant a*(a+3) in the check below it stays at b's depth.
// An absorbed inequality leaves b's range one-sided, as the stencil's
// blk_y, and an equality solved through a floor division admits two b per
// entry; the invariant still hoists to a's depth above both.
func TestNoHoistAbovePinnedLoop(t *testing.T) {
	ref, lit := expr.NewRef, expr.IntLit
	cases := []struct {
		name   string
		reject expr.Expr
		pinned bool
	}{
		{"a*b != 8", expr.Ne(expr.Mul(ref("a"), ref("b")), lit(8)), true},
		{"a*b > 8", expr.Gt(expr.Mul(ref("a"), ref("b")), lit(8)), false},
		{"b/2 != a", expr.Ne(expr.Div(ref("b"), lit(2)), ref("a")), false},
	}
	for _, c := range cases {
		s := space.New()
		s.Range("a", lit(1), lit(9))
		s.Range("b", lit(1), lit(9))
		s.Constrain("k1", space.Hard, c.reject)
		s.Constrain("k2", space.Soft,
			expr.Ne(expr.Mod(expr.Mul(ref("a"), expr.Add(ref("a"), lit(3))), ref("b")), lit(0)))
		prog, err := Compile(s, Options{Order: []string{"a", "b"}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lb := prog.Loops[1].Bounds
		if lb == nil || len(lb.Groups) != 1 || !lb.Groups[0].Full {
			t.Fatalf("%s: k1 not fully absorbed into b's range:\n%s", c.name, prog.Describe())
		}
		if pinned := len(lb.Groups[0].Pins) > 0; pinned != c.pinned {
			t.Errorf("%s: pinned = %v, want %v", c.name, pinned, c.pinned)
		}
		// Pinned: a*(a+3) stays inline in k2. Otherwise it is one temp at
		// a's depth.
		want := 1
		if c.pinned {
			want = 0
		}
		if len(prog.Temps) != want || (want == 1 && prog.Temps[0].Depth != 0) {
			t.Errorf("%s: temps %+v, want %d at a's depth:\n%s", c.name, prog.Temps, want, prog.Describe())
		}
	}
}
