package plan

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/space"
)

// TestReorderMovesSelectiveLoopOut: a highly selective constraint on the
// last-declared iterator should pull that loop outermost, while tuple
// emission order stays the declaration order.
func TestReorderMovesSelectiveLoopOut(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(40))
	s.Range("b", expr.IntLit(0), expr.IntLit(40))
	// Kill unless b is a multiple of 7: pass rate ~1/7, and a modular
	// predicate bounds compilation cannot absorb into the range.
	s.Constrain("b_mod7", space.Hard,
		expr.Ne(expr.Mod(expr.NewRef("b"), expr.IntLit(7)), expr.IntLit(0)))

	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri := prog.Reorder
	if ri == nil || !ri.Applied {
		t.Fatalf("reorder not applied: %+v", ri)
	}
	if got := prog.IterNames(); got[0] != "b" {
		t.Errorf("nest order = %v, want b outermost", got)
	}
	if got := prog.TupleNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("tuple order = %v, want declaration order [a b]", got)
	}
	if !reflect.DeepEqual(ri.Declared, []string{"a", "b"}) {
		t.Errorf("Declared = %v", ri.Declared)
	}
	if !reflect.DeepEqual(ri.Chosen, []string{"b", "a"}) {
		t.Errorf("Chosen = %v", ri.Chosen)
	}
	if !(ri.EstimatedVisits < ri.DeclaredVisits*reorderMargin) {
		t.Errorf("estimates do not justify the swap: %g vs %g declared",
			ri.EstimatedVisits, ri.DeclaredVisits)
	}
	if !ri.Exhaustive {
		t.Error("2-loop space should use the exhaustive search")
	}
	est, ok := ri.SelectivityOf("b_mod7")
	if !ok {
		t.Fatal("no selectivity estimate for b_mod7")
	}
	if !est.Exact {
		t.Errorf("40-value support should be censused exactly: %+v", est)
	}
	if est.Pass < 0.12 || est.Pass > 0.18 {
		t.Errorf("pass rate %.3f, want ~1/7", est.Pass)
	}
	if !reflect.DeepEqual(est.Deps, []string{"b"}) {
		t.Errorf("deps = %v, want [b]", est.Deps)
	}
}

// TestReorderKeepsWellDeclaredOrder: the same space with the selective
// loop already declared first must keep its order.
func TestReorderKeepsWellDeclaredOrder(t *testing.T) {
	s := space.New()
	s.Range("b", expr.IntLit(0), expr.IntLit(40))
	s.Range("a", expr.IntLit(0), expr.IntLit(40))
	s.Constrain("b_mod7", space.Hard,
		expr.Ne(expr.Mod(expr.NewRef("b"), expr.IntLit(7)), expr.IntLit(0)))

	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri := prog.Reorder
	if ri == nil {
		t.Fatal("no reorder info on an in-scope space")
	}
	if ri.Applied {
		t.Fatalf("well-ordered nest was reordered: %v", ri.Chosen)
	}
	if got := prog.IterNames(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Errorf("nest order = %v, want declared [b a]", got)
	}
	if ri.EstimatedVisits != ri.DeclaredVisits {
		t.Errorf("kept order must report declared estimate: %g vs %g",
			ri.EstimatedVisits, ri.DeclaredVisits)
	}
}

// TestReorderMarginKeepsDeclared: a marginally better order (under the 5%
// improvement margin) must not displace the declared one — estimates are
// noisy and author intent wins close calls.
func TestReorderMarginKeepsDeclared(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(25))
	s.Range("b", expr.IntLit(0), expr.IntLit(25))
	// Kills exactly one of 25 values: pass 0.96. Moving b outermost would
	// save ~3.8% of visits — inside the margin.
	s.Constrain("b_not3", space.Hard,
		expr.Eq(expr.NewRef("b"), expr.IntLit(3)))

	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri := prog.Reorder
	if ri == nil {
		t.Fatal("no reorder info")
	}
	if ri.Applied {
		t.Fatalf("marginal improvement applied anyway: est %g vs %g declared",
			ri.EstimatedVisits, ri.DeclaredVisits)
	}
	if got := prog.IterNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("nest order = %v, want declared [a b]", got)
	}
}

// TestReorderRespectsDependencies: an iterator whose domain references an
// outer iterator can never be hoisted above it, however selective its
// constraints are.
func TestReorderRespectsDependencies(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(1), expr.IntLit(30))
	s.Range("b", expr.IntLit(0), expr.NewRef("a")) // b depends on a
	s.Range("c", expr.IntLit(0), expr.IntLit(30))
	s.Constrain("b_mod9", space.Hard,
		expr.Ne(expr.Mod(expr.NewRef("b"), expr.IntLit(9)), expr.IntLit(0)))

	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := prog.IterNames()
	posA, posB := -1, -1
	for i, n := range names {
		switch n {
		case "a":
			posA = i
		case "b":
			posB = i
		}
	}
	if posA < 0 || posB < 0 || posA > posB {
		t.Errorf("order %v violates a-before-b dependency", names)
	}
}

// TestReorderDisabled: the ablation flag and a manual Order both skip the
// optimizer entirely (Reorder stays nil).
func TestReorderDisabled(t *testing.T) {
	build := func() *space.Space {
		s := space.New()
		s.Range("a", expr.IntLit(0), expr.IntLit(40))
		s.Range("b", expr.IntLit(0), expr.IntLit(40))
		s.Constrain("b_mod7", space.Hard,
			expr.Ne(expr.Mod(expr.NewRef("b"), expr.IntLit(7)), expr.IntLit(0)))
		return s
	}
	prog, err := Compile(build(), Options{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Reorder != nil {
		t.Error("DisableReorder still produced reorder info")
	}
	if got := prog.IterNames(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("nest order = %v, want declared", got)
	}

	prog, err = Compile(build(), Options{Order: []string{"b", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Reorder != nil {
		t.Error("manual Order still produced reorder info")
	}
	if got := prog.IterNames(); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Errorf("nest order = %v, want manual [b a]", got)
	}
}

// TestReorderPlanTimePurity: the selectivity sampler must never invoke
// user host functions at plan time — deferred constraints get the fixed
// moderate estimate instead of a sample.
func TestReorderPlanTimePurity(t *testing.T) {
	calls := 0
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(40))
	s.Range("b", expr.IntLit(0), expr.IntLit(40))
	s.DeferredConstraint("host", space.Soft, []string{"b"},
		func(args []expr.Value) bool {
			calls++
			return args[0].I%2 == 0
		})
	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("plan time called the deferred constraint %d times", calls)
	}
	ri := prog.Reorder
	if ri == nil {
		t.Fatal("no reorder info")
	}
	est, ok := ri.SelectivityOf("host")
	if !ok {
		t.Fatal("deferred constraint missing from the selectivity list")
	}
	if est.Pass != reorderDeferredSel || est.Exact || est.Samples != 0 {
		t.Errorf("deferred constraint should carry the fixed estimate, got %+v", est)
	}
}

// TestOrderSearchCostModel pins the join-ordering arithmetic on synthetic
// inputs, including the narrowable-constraint rule: a constraint absorbed
// into its binding loop's bounds discounts that loop's own visit count.
func TestOrderSearchCostModel(t *testing.T) {
	// Two loops of 10; one constraint on loop 1 with pass 0.1.
	o := &orderSearch{
		n:     2,
		cards: []float64{10, 10},
		pred:  make([]uint64, 2),
		cmask: []uint64{1 << 1},
		csel:  []float64{0.1},
		nmask: []uint64{0},
	}
	if got := o.cost([]int{0, 1}); got != 110 {
		t.Errorf("declared cost = %g, want 10 + 100 = 110", got)
	}
	if got := o.cost([]int{1, 0}); got != 20 {
		t.Errorf("swapped cost = %g, want 10 + 0.1*10*10 = 20", got)
	}
	order, cost := o.exhaustive()
	if !reflect.DeepEqual(order, []int{1, 0}) || cost != 20 {
		t.Errorf("exhaustive = %v cost %g, want [1 0] cost 20", order, cost)
	}
	gOrder, gCost := o.greedy()
	if !reflect.DeepEqual(gOrder, order) || gCost != cost {
		t.Errorf("greedy = %v cost %g, want the exhaustive answer on this space", gOrder, gCost)
	}

	// Same shape, but the constraint is narrowable at loop 1: its loop's
	// own visits shrink too (skipped iterations are never entered).
	o.nmask = []uint64{1 << 1}
	if got := o.cost([]int{1, 0}); got != 11 {
		t.Errorf("narrowable swapped cost = %g, want 0.1*10 + 1*10 = 11", got)
	}
	if got := o.cost([]int{0, 1}); got != 20 {
		t.Errorf("narrowable declared cost = %g, want 10 + 10*(0.1*10) = 20", got)
	}

	// A precedence edge 0 -> 1 forbids the swap.
	o.pred[1] = 1 << 0
	order, _ = o.exhaustive()
	if !reflect.DeepEqual(order, []int{0, 1}) {
		t.Errorf("exhaustive ignored precedence: %v", order)
	}
}

// TestEstimateCompiledVisits pins the arbitration scorer on a compiled
// program with a fully absorbed bound group.
func TestEstimateCompiledVisits(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(100))
	s.Range("b", expr.IntLit(0), expr.IntLit(10))
	// a < 10 survives; ascending range, absorbable.
	s.Constrain("a_small", space.Hard,
		expr.Ge(expr.NewRef("a"), expr.IntLit(10)))
	prog, err := Compile(s, Options{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	absorbed := false
	for _, lp := range prog.Loops {
		if lp.Bounds != nil && len(lp.Bounds.Groups) > 0 {
			absorbed = true
		}
	}
	if !absorbed {
		t.Fatal("test premise broken: a_small was not absorbed into bounds")
	}
	got := estimateCompiledVisits(prog, map[string]float64{"a_small": 0.1})
	// Loop a: 100 * 0.1 = 10 visits; loop b: 10 * 10 = 100. Total 110.
	if got != 110 {
		t.Errorf("estimateCompiledVisits = %g, want 110", got)
	}
}

// TestReorderOutOfScopeSingleLoop: fewer than two loops means there is
// nothing to reorder and no info is attached.
func TestReorderOutOfScopeSingleLoop(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(10))
	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Reorder != nil {
		t.Error("single-loop space should be out of the optimizer's scope")
	}
}

// TestPickMatchesMaterialized: the arithmetic range pick must return the
// value the materializing walk picks, after the same RNG draws, for every
// range shape. Ranges whose walk wraps int64 must fall back to the walk;
// every other range must not touch the materialization buffer.
func TestPickMatchesMaterialized(t *testing.T) {
	lit := expr.IntLit
	cases := []struct {
		name              string
		start, stop, step expr.Expr
		fallback          bool
	}{
		{"ascending", lit(0), lit(10), lit(1), false},
		{"ascending, step does not divide span", lit(3), lit(100), lit(7), false},
		{"descending", lit(10), lit(0), lit(-1), false},
		{"descending, step does not divide span", lit(100), lit(-5), lit(-7), false},
		{"single value", lit(5), lit(6), lit(1), false},
		{"empty", lit(5), lit(5), lit(1), false},
		{"empty, reversed bounds", lit(5), lit(0), lit(1), false},
		{"empty descending", lit(0), lit(5), lit(-1), false},
		{"zero step", lit(0), lit(10), lit(0), false},
		{"exactly the cap", lit(0), lit(reorderMatCap), lit(1), false},
		{"longer than the cap", lit(0), lit(1_000_000), lit(1), false},
		{"descending, longer than the cap", lit(0), lit(-1_000_000), lit(-3), false},
		{"ends at MaxInt64, capped before the end", lit(math.MaxInt64 - 100_000), lit(math.MaxInt64), lit(1), false},
		{"wraps past MaxInt64", lit(math.MaxInt64 - 10), lit(math.MaxInt64), lit(4), true},
		{"wraps past MinInt64", lit(math.MinInt64 + 10), lit(math.MinInt64), lit(-4), true},
		{"whole int64 line", lit(math.MinInt64), lit(math.MaxInt64), lit(math.MaxInt64), true},
		{"Span panics on a string operand", expr.Add(expr.StrLit("x"), lit(1)), lit(10), lit(1), false},
		{"string bound", lit(0), expr.StrLit("x"), lit(1), false},
	}
	for _, c := range cases {
		lp := &Loop{
			Iter:   &space.Iterator{Name: "x", Kind: space.ExprIter},
			Domain: &space.RangeDomain{Start: c.start, Stop: c.stop, Step: c.step},
		}
		env := expr.NewEnv(1)
		fast := &picker{rng: newReorderRNG(c.name)}
		walk := &picker{rng: newReorderRNG(c.name)}
		for i := 0; i < 64; i++ {
			got, gotOK := fast.pick(lp, env)
			want, wantOK := walk.pickMaterialized(lp, env)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s, draw %d: pick = (%d, %v), materialized = (%d, %v)",
					c.name, i, got, gotOK, want, wantOK)
			}
			if fast.rng.state != walk.rng.state {
				t.Fatalf("%s, draw %d: RNG draw counts differ", c.name, i)
			}
		}
		if used := cap(fast.vals) > 0; used != c.fallback {
			t.Errorf("%s: materialized = %v, want %v", c.name, used, c.fallback)
		}
	}
}
