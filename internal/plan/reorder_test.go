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

// rangeShape is one range(start, stop, step) domain; wraps marks a range
// whose walk steps past an int64 limit and back inside the range, str one
// with a string operand, which does not compile to int64 closures.
type rangeShape struct {
	name              string
	start, stop, step expr.Expr
	wraps, str        bool
}

// rangeShapes covers the range forms the arithmetic sizers must agree
// with a walk on. The shapes that read v (slot 0, which holds 0) mix
// literal bounds, which CompileDomain keeps as constants, with computed
// ones, which it compiles to closures.
func rangeShapes() []rangeShape {
	lit := expr.IntLit
	v := &expr.Ref{Name: "v", Slot: 0}
	return []rangeShape{
		{"computed start, literal stop and step", v, lit(10), lit(3), false, false},
		{"literal start and step, computed stop", lit(-4), expr.Add(v, lit(9)), lit(2), false, false},
		{"literal start and stop, computed negative step", lit(10), lit(-5), expr.Sub(v, lit(3)), false, false},
		{"computed bounds, literal negative step", expr.Add(v, lit(7)), expr.Sub(v, lit(2)), lit(-2), false, false},
		{"computed bounds, literal zero step", v, expr.Add(v, lit(5)), lit(0), false, false},
		{"literal bounds, computed zero step", lit(0), lit(5), expr.Mul(v, lit(4)), false, false},
		{"computed bounds and step", v, expr.Add(v, lit(20)), expr.Add(v, lit(6)), false, false},
		{"ascending", lit(0), lit(10), lit(1), false, false},
		{"ascending, step does not divide span", lit(3), lit(100), lit(7), false, false},
		{"descending", lit(10), lit(0), lit(-1), false, false},
		{"descending, step does not divide span", lit(100), lit(-5), lit(-7), false, false},
		{"single value", lit(5), lit(6), lit(1), false, false},
		{"empty", lit(5), lit(5), lit(1), false, false},
		{"empty, reversed bounds", lit(5), lit(0), lit(1), false, false},
		{"empty descending", lit(0), lit(5), lit(-1), false, false},
		{"zero step", lit(0), lit(10), lit(0), false, false},
		{"exactly the cap", lit(0), lit(reorderMatCap), lit(1), false, false},
		{"longer than the cap", lit(0), lit(1_000_000), lit(1), false, false},
		{"descending, longer than the cap", lit(0), lit(-1_000_000), lit(-3), false, false},
		{"ends at MaxInt64, capped before the end", lit(math.MaxInt64 - 100_000), lit(math.MaxInt64), lit(1), false, false},
		{"wraps past MaxInt64", lit(math.MaxInt64 - 10), lit(math.MaxInt64), lit(4), true, false},
		{"wraps past MinInt64", lit(math.MinInt64 + 10), lit(math.MinInt64), lit(-4), true, false},
		{"whole int64 line", lit(math.MinInt64), lit(math.MaxInt64), lit(math.MaxInt64), true, false},
		{"Span panics on a string operand", expr.Add(expr.StrLit("x"), lit(1)), lit(10), lit(1), false, true},
		{"string bound", lit(0), expr.StrLit("x"), lit(1), false, true},
	}
}

// TestPickMatchesMaterialized: the arithmetic range pick must return the
// value the materializing walk picks, after the same RNG draws, for every
// range shape. Ranges whose walk wraps int64 must fall back to the walk;
// every other range must not touch the materialization buffer. Shapes
// with a string operand must not compile.
func TestPickMatchesMaterialized(t *testing.T) {
	for _, c := range rangeShapes() {
		d, err := space.CompileDomain(&space.RangeDomain{Start: c.start, Stop: c.stop, Step: c.step})
		if (err != nil) != c.str {
			t.Fatalf("%s: compile error %v", c.name, err)
		}
		if c.str {
			continue
		}
		r := make([]int64, 1)
		fast := &picker{rng: newReorderRNG(c.name)}
		walk := &picker{rng: newReorderRNG(c.name)}
		for i := 0; i < 64; i++ {
			got, gotOK := fast.pick(d, r)
			want, wantOK := walk.pickMaterialized(d, r)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s, draw %d: pick = (%d, %v), materialized = (%d, %v)",
					c.name, i, got, gotOK, want, wantOK)
			}
			if fast.rng.state != walk.rng.state {
				t.Fatalf("%s, draw %d: RNG draw counts differ", c.name, i)
			}
		}
		if used := cap(fast.vals) > 0; used != c.wraps {
			t.Errorf("%s: materialized = %v, want %v", c.name, used, c.wraps)
		}
	}
}

// TestDomainLenMatchesWalk: the sizers must count what a capped walk
// counts, and the compiled domain must yield the values
// RangeDomain.Iterate yields, for every range shape a plan can hold. The
// string shapes never reach them: place rejects a domain that does not
// compile.
func TestDomainLenMatchesWalk(t *testing.T) {
	env := expr.NewEnv(1)
	r := make([]int64, 1)
	for _, c := range rangeShapes() {
		if c.str {
			continue
		}
		d := &space.RangeDomain{Start: c.start, Stop: c.stop, Step: c.step}
		cd, err := space.CompileDomain(d)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var want, got []int64
		d.Iterate(env, func(v int64) bool {
			want = append(want, v)
			return len(want) < 64
		})
		cd.Iterate(r, func(v int64) bool {
			got = append(got, v)
			return len(got) < 64
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled domain yields %v, RangeDomain.Iterate %v", c.name, got, want)
		}
		for _, limit := range []uint64{1, 2, 7, reorderMatCap} {
			var walked uint64
			d.Iterate(env, func(int64) bool {
				walked++
				return walked < limit
			})
			if n := envDomainLen(d, env, limit); n != walked {
				t.Errorf("%s, limit %d: envDomainLen = %d, walk counts %d", c.name, limit, n, walked)
			}
			if got := domainLen(cd, r, limit); got != walked {
				t.Errorf("%s, limit %d: domainLen = %d, walk counts %d", c.name, limit, got, walked)
			}
		}
	}
}

// TestCensusSizedBeforeWalk: a support set is sized before it is walked.
// cc = range(bb, n) gets DefaultLoopCard, so every support below looks
// small enough for a census. One whose walk would reach more than
// reorderWalkCap leaves is sampled by Monte Carlo instead of walked in its
// declaration-order corner; one that fits, up to the cap itself, is
// censused whole.
func TestCensusSizedBeforeWalk(t *testing.T) {
	ref, lit := expr.NewRef, expr.IntLit
	s := space.New()
	s.IntSetting("n", 1024)
	s.Range("aa", lit(1), lit(17))
	s.Range("bb", lit(1), lit(17))
	s.Range("cc", ref("bb"), ref("n"))                      // 16*1024 - 136 leaves under bb
	s.Range("dd", ref("bb"), lit(400))                      // 16*400 - 136 = 6,264 leaves under bb
	s.Range("ee", ref("bb"), expr.Add(ref("bb"), lit(512))) // 16*512 = 8,192 leaves under bb
	s.Constrain("near_b", space.Soft, expr.Eq(expr.Mod(
		expr.Add(ref("cc"), expr.Mul(lit(2), ref("bb"))), lit(29)), lit(3)))
	s.Constrain("near_a", space.Soft, expr.Eq(expr.Mod(
		expr.Add(ref("cc"), expr.Mul(lit(4), ref("aa"))), lit(31)), lit(17)))
	s.Constrain("fits", space.Soft, expr.Eq(expr.Mod(
		expr.Add(ref("dd"), ref("bb")), lit(7)), lit(3)))
	s.Constrain("at_cap", space.Soft, expr.Eq(expr.Mod(
		expr.Add(ref("ee"), ref("bb")), lit(5)), lit(1)))
	prog, err := Compile(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri := prog.Reorder
	if ri == nil {
		t.Fatal("no reorder info")
	}
	for _, name := range []string{"near_b", "near_a"} {
		est, ok := ri.SelectivityOf(name)
		if !ok {
			t.Fatalf("no estimate for %s", name)
		}
		if est.Exact || est.Samples != reorderSamples {
			t.Errorf("%s: over-cap support should be sampled (Exact false, Samples %d), got %+v",
				name, reorderSamples, est)
		}
	}

	// The censused supports report every leaf and the true pass rate.
	for _, c := range []struct {
		name     string
		stop     func(bb int64) int64
		mod, hit int64
	}{
		{"fits", func(int64) int64 { return 400 }, 7, 3},
		{"at_cap", func(bb int64) int64 { return bb + 512 }, 5, 1},
	} {
		pass, total := 0, 0
		for bb := int64(1); bb < 17; bb++ {
			for v := bb; v < c.stop(bb); v++ {
				total++
				if (v+bb)%c.mod != c.hit {
					pass++
				}
			}
		}
		est, ok := ri.SelectivityOf(c.name)
		if !ok {
			t.Fatalf("no estimate for %s", c.name)
		}
		want := float64(pass) / float64(total)
		if !est.Exact || est.Samples != total || est.Pass != want {
			t.Errorf("%s: want an exact census of %d leaves, pass %g; got %+v", c.name, total, want, est)
		}
	}
}
