package plan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/space"
)

func buildSpace(t *testing.T) *space.Space {
	t.Helper()
	s := space.New()
	s.IntSetting("n", 8)
	s.StrSetting("mode", "on")
	s.Range("a", expr.IntLit(1), expr.Add(expr.NewRef("n"), expr.IntLit(1)))
	s.Range("b", expr.IntLit(1), expr.Add(expr.NewRef("a"), expr.IntLit(1)))
	s.Range("c", expr.IntLit(0), expr.IntLit(3))
	s.Derived("ab", expr.Mul(expr.NewRef("a"), expr.NewRef("b")))
	s.Derived("const_d", expr.Mul(expr.NewRef("n"), expr.IntLit(2)))
	s.Derived("chain", expr.Add(expr.NewRef("ab"), expr.NewRef("const_d")))
	s.Constrain("k_outer", space.Hard, expr.Gt(expr.NewRef("a"), expr.NewRef("n")))
	s.Constrain("k_mid", space.Soft, expr.Gt(expr.NewRef("ab"), expr.IntLit(50)))
	s.Constrain("k_mode", space.Correctness,
		expr.And(expr.Eq(expr.NewRef("mode"), expr.StrLit("off")), expr.Gt(expr.NewRef("c"), expr.IntLit(0))))
	return s
}

func TestCompileBasics(t *testing.T) {
	// DisableReorder pins the declared nest: this test (and the hoisting
	// ones below) asserts placement relative to the declaration order.
	prog, err := Compile(buildSpace(t), Options{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.IterNames(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("loop order = %v", got)
	}
	// Setting-only derived variables fold away.
	if _, ok := prog.Folded["const_d"]; !ok {
		t.Error("const_d not folded")
	}
	// mode == "off" folds to false, so k_mode folds to a constant false
	// predicate placed in the prelude... no: a constant-false constraint
	// has no live deps; its depth is -1 (prelude) and it never kills.
	names := prog.FoldedNames()
	if !contains(names, "mode") || !contains(names, "n") {
		t.Errorf("folded names = %v", names)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// stepDepth returns the loop depth at which the named step runs; -1 for
// the prelude, -2 if absent.
func stepDepth(prog *Program, name string) int {
	for _, st := range prog.Prelude {
		if st.Name == name {
			return -1
		}
	}
	for d, lp := range prog.Loops {
		for _, st := range lp.Steps {
			if st.Name == name {
				return d
			}
		}
	}
	return -2
}

func TestHoistingDepths(t *testing.T) {
	// Narrowing would absorb k_outer/k_mid into loop bounds and delete
	// the very steps this test places; pin the hoisting behavior alone.
	prog, err := Compile(buildSpace(t), Options{DisableNarrowing: true, DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	// k_outer reads only `a` (and folded n): depth 0.
	if d := stepDepth(prog, "k_outer"); d != 0 {
		t.Errorf("k_outer at depth %d, want 0", d)
	}
	// ab reads a and b: depth 1; k_mid reads ab: depth 1.
	if d := stepDepth(prog, "ab"); d != 1 {
		t.Errorf("ab at depth %d, want 1", d)
	}
	if d := stepDepth(prog, "k_mid"); d != 1 {
		t.Errorf("k_mid at depth %d, want 1", d)
	}
	// chain reads ab + folded const: depth 1.
	if d := stepDepth(prog, "chain"); d != 1 {
		t.Errorf("chain at depth %d, want 1", d)
	}
	// k_mode's predicate folds to False (mode == "off" is false): its
	// folded dependency set is empty -> prelude.
	if d := stepDepth(prog, "k_mode"); d != -1 {
		t.Errorf("k_mode at depth %d, want -1 (prelude)", d)
	}
	// Derived assignments precede the constraints that read them.
	lp := prog.Loops[1]
	abIdx, kmidIdx := -1, -1
	for i, st := range lp.Steps {
		switch st.Name {
		case "ab":
			abIdx = i
		case "k_mid":
			kmidIdx = i
		}
	}
	if abIdx < 0 || kmidIdx < 0 || abIdx > kmidIdx {
		t.Errorf("ab (%d) must precede k_mid (%d)", abIdx, kmidIdx)
	}
}

func TestDisableHoisting(t *testing.T) {
	prog, err := Compile(buildSpace(t), Options{DisableHoisting: true, DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"k_outer", "k_mid", "k_mode"} {
		if d := stepDepth(prog, name); d != len(prog.Loops)-1 {
			t.Errorf("%s at depth %d, want innermost %d", name, d, len(prog.Loops)-1)
		}
	}
	// Derived variables keep their hoisted depths (they are assignments,
	// not checks).
	if d := stepDepth(prog, "ab"); d != 1 {
		t.Errorf("ab at depth %d, want 1", d)
	}
}

func TestDisableFolding(t *testing.T) {
	prog, err := Compile(buildSpace(t), Options{DisableFolding: true, DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Folded) != 0 {
		t.Errorf("folded = %v, want none", prog.FoldedNames())
	}
	// const_d becomes a real prelude assignment.
	if d := stepDepth(prog, "const_d"); d != -1 {
		t.Errorf("const_d at depth %d, want prelude", d)
	}
	// k_mode now depends on mode (a setting slot) and c: innermost loop
	// reading c is depth 2.
	if d := stepDepth(prog, "k_mode"); d != 2 {
		t.Errorf("k_mode at depth %d, want 2", d)
	}
}

func TestCycleRejected(t *testing.T) {
	s := space.New()
	s.Derived("x", expr.Add(expr.NewRef("y"), expr.IntLit(1)))
	s.Derived("y", expr.Add(expr.NewRef("x"), expr.IntLit(1)))
	if _, err := Compile(s, Options{}); err == nil {
		t.Error("expected cycle error")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("error %v does not mention cycle", err)
	}
}

func TestValidationErrorsPropagate(t *testing.T) {
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.NewRef("missing"))
	if _, err := Compile(s, Options{}); err == nil {
		t.Error("expected undeclared-name error")
	}
}

func TestDescribeRendersNest(t *testing.T) {
	prog, err := Compile(buildSpace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	desc := prog.Describe()
	for _, want := range []string{"for a in", "for b in", "for c in", "k_outer", "ab ="} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
	// Nesting: "for b" must be indented deeper than "for a".
	ia := strings.Index(desc, "for a in")
	ib := strings.Index(desc, "for b in")
	if ia < 0 || ib < 0 || ib < ia {
		t.Error("loop order wrong in Describe")
	}
}

func TestGraphCategories(t *testing.T) {
	prog, err := Compile(buildSpace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Graph.Category("a"); got != "iterator" {
		t.Errorf("category(a) = %q", got)
	}
	if got := prog.Graph.Category("ab"); got != "derived" {
		t.Errorf("category(ab) = %q", got)
	}
	if got := prog.Graph.Category("k_mid"); got != "constraint" {
		t.Errorf("category(k_mid) = %q", got)
	}
	// Folded derived variables stay out of the DAG.
	if got := prog.Graph.Category("const_d"); got != "" {
		t.Errorf("const_d in DAG with category %q", got)
	}
}

func TestIterSlotsAndEnv(t *testing.T) {
	prog, err := Compile(buildSpace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := prog.NewEnv()
	if got := env.Slots[mustSlot(t, prog, "n")]; got.I != 8 {
		t.Errorf("setting n = %v", got)
	}
	if got := env.Slots[mustSlot(t, prog, "mode")]; got.S != "on" {
		t.Errorf("setting mode = %v", got)
	}
	slots := prog.IterSlots()
	if len(slots) != 3 {
		t.Fatalf("IterSlots = %v", slots)
	}
}

func mustSlot(t *testing.T, prog *Program, name string) int {
	t.Helper()
	s, ok := prog.Scope.Slot(name)
	if !ok {
		t.Fatalf("no slot for %s", name)
	}
	return s
}

func TestChooseOrderValidation(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(3))
	s.Range("b", expr.IntLit(0), expr.Add(expr.NewRef("a"), expr.IntLit(1)))
	s.Range("c", expr.IntLit(0), expr.IntLit(2))

	// A valid interchange: c may move anywhere, b must follow a.
	prog, err := Compile(s, Options{Order: []string{"c", "a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.IterNames(); !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Errorf("order = %v", got)
	}

	cases := []struct {
		order   []string
		wantSub string
	}{
		{[]string{"b", "a", "c"}, "dependency"},
		{[]string{"a", "b"}, "lists 2"},
		{[]string{"a", "b", "b"}, "twice"},
		{[]string{"a", "b", "zzz"}, "not an iterator"},
	}
	for _, tc := range cases {
		_, err := Compile(s, Options{Order: tc.order})
		if err == nil {
			t.Errorf("Order %v accepted", tc.order)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Order %v: error %q missing %q", tc.order, err, tc.wantSub)
		}
	}
}

func TestSettingBySlot(t *testing.T) {
	prog, err := Compile(buildSpace(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bySlot := prog.SettingBySlot()
	if len(bySlot) != 2 {
		t.Fatalf("SettingBySlot = %v", bySlot)
	}
	slot := mustSlot(t, prog, "mode")
	if got := bySlot[slot]; got.S != "on" {
		t.Errorf("mode slot value = %v", got)
	}
}

func TestEstimateLoopCards(t *testing.T) {
	s := space.New()
	s.IntSetting("n", 6)
	s.Range("a", expr.IntLit(0), expr.NewRef("n")) // static: 6
	s.Range("b", expr.IntLit(0), expr.NewRef("a")) // depends on a: default
	s.IntList("c", 1, 2, 4)                        // static: 3
	s.DeferredIter("d", []string{"a"}, func(args []expr.Value) space.DomainExpr {
		return space.NewIntList(args[0].I)
	})
	s.Range("big", expr.IntLit(0), expr.IntLit(1<<40)) // saturates at 1<<22
	// Steps past MaxInt64 back to MinInt64+1 and on: the walk never ends.
	s.RangeStep("wrap", expr.IntLit(math.MaxInt64-10), expr.IntLit(math.MaxInt64), expr.IntLit(4))
	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]int64)
	for i, lp := range prog.Loops {
		byName[lp.Iter.Name] = prog.EstimateLoopCards()[i]
	}
	if byName["a"] != 6 {
		t.Errorf("card(a) = %d, want 6", byName["a"])
	}
	if byName["b"] != DefaultLoopCard {
		t.Errorf("card(b) = %d, want default %d", byName["b"], DefaultLoopCard)
	}
	if byName["c"] != 3 {
		t.Errorf("card(c) = %d, want 3", byName["c"])
	}
	if byName["d"] != DefaultLoopCard {
		t.Errorf("card(d) = %d, want default %d", byName["d"], DefaultLoopCard)
	}
	for _, name := range []string{"big", "wrap"} {
		if byName[name] != 1<<22 {
			t.Errorf("card(%s) = %d, want the cap %d", name, byName[name], 1<<22)
		}
	}
}

func TestChooseSplitDepth(t *testing.T) {
	mk := func(bounds ...int64) *Program {
		s := space.New()
		for i, b := range bounds {
			s.Range(string(rune('a'+i)), expr.IntLit(0), expr.IntLit(b))
		}
		prog, err := Compile(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	cases := []struct {
		bounds []int64
		target int
		want   int
	}{
		{[]int64{10, 10, 10}, 8, 1}, // outer loop alone suffices
		{[]int64{4, 4, 4}, 8, 2},    // needs two levels: 4*4 = 16 >= 8
		{[]int64{2, 2, 2}, 64, 3},   // never reaches target: full depth
		{[]int64{3, 100}, 64, 2},    // second level carries the weight
		{[]int64{5}, 1, 1},          // trivial target
		{[]int64{0, 9}, 8, 1},       // empty level stops the search
	}
	for _, tc := range cases {
		if got := ChooseSplitDepth(mk(tc.bounds...), tc.target); got != tc.want {
			t.Errorf("ChooseSplitDepth(%v, %d) = %d, want %d", tc.bounds, tc.target, got, tc.want)
		}
	}
	// No loops: depth 0.
	s := space.New()
	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ChooseSplitDepth(prog, 8); got != 0 {
		t.Errorf("empty program split depth = %d, want 0", got)
	}
}
