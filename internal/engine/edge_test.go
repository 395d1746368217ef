package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/families"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/space"
)

func mustCompile(t *testing.T, s *space.Space) *plan.Program {
	t.Helper()
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func allEngines(t *testing.T, prog *plan.Program) []Engine {
	t.Helper()
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{NewInterp(prog), NewVM(prog), comp}
}

// assertAgree runs every engine under every protocol and checks the tuple
// streams are identical.
func assertAgree(t *testing.T, prog *plan.Program, wantSurvivors int64) {
	t.Helper()
	var want [][]int64
	for i, e := range allEngines(t, prog) {
		for _, p := range []Protocol{ProtoDefault, ProtoWhile, ProtoRange, ProtoXRange, ProtoRepeat} {
			var got [][]int64
			_, err := e.Run(Options{Protocol: p, OnTuple: func(tu []int64) bool {
				cp := make([]int64, len(tu))
				copy(cp, tu)
				got = append(got, cp)
				return true
			}})
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name(), p, err)
			}
			if i == 0 && p == ProtoDefault {
				want = got
				if wantSurvivors >= 0 && int64(len(got)) != wantSurvivors {
					t.Fatalf("survivors = %d, want %d", len(got), wantSurvivors)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: %d tuples, want %d (stream differs)", e.Name(), p, len(got), len(want))
			}
		}
	}
}

// Dynamic negative steps whose sign is not statically known: the VM's
// while-protocol literal-step fast path must not be taken.
func TestDynamicStepSign(t *testing.T) {
	s := space.New()
	s.IntList("dir", 1, -1)
	// start/stop/step all depend on dir: ascending 0..4 or descending 4..0.
	s.DomainIter("x", space.NewRangeStep(
		expr.If(expr.Gt(expr.NewRef("dir"), expr.IntLit(0)), expr.IntLit(0), expr.IntLit(4)),
		expr.If(expr.Gt(expr.NewRef("dir"), expr.IntLit(0)), expr.IntLit(5), expr.IntLit(-1)),
		expr.NewRef("dir"),
	))
	assertAgree(t, mustCompile(t, s), 10)
}

// Empty inner domains at various positions must not derail enumeration.
func TestEmptyInnerDomains(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(4))
	// b is empty when a is even: range(0, a%2).
	s.DomainIter("b", space.NewRange(expr.IntLit(0), expr.Mod(expr.NewRef("a"), expr.IntLit(2))))
	s.Range("c", expr.IntLit(0), expr.IntLit(2))
	assertAgree(t, mustCompile(t, s), 4) // a in {1,3} x b=0 x c in {0,1}
}

// A deferred iterator in the middle of the nest exercises the VM's
// host-domain opcode path and the compiled engine's hostDom.
func TestDeferredIteratorMidNest(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(1), expr.IntLit(5))
	s.DeferredIter("d", []string{"a"}, func(args []expr.Value) space.DomainExpr {
		if args[0].I%2 == 0 {
			return nil // empty
		}
		return space.NewIntList(args[0].I, args[0].I*10)
	})
	s.Range("z", expr.IntLit(0), expr.IntLit(2))
	assertAgree(t, mustCompile(t, s), 8) // a in {1,3}: 2 d-values x 2 z
}

// A closure iterator innermost, with early stop via Limit, across engines.
func TestClosureIteratorWithLimit(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(2), expr.IntLit(6))
	s.ClosureIter("div", []string{"a"}, func(args []expr.Value, yield func(int64) bool) {
		for v := int64(1); v <= args[0].I; v++ {
			if args[0].I%v == 0 && !yield(v) {
				return
			}
		}
	})
	prog := mustCompile(t, s)
	for _, e := range allEngines(t, prog) {
		st, err := e.Run(Options{Limit: 5})
		if err != nil {
			t.Fatal(err)
		}
		if st.Survivors != 5 || !st.Stopped {
			t.Errorf("%s: survivors=%d stopped=%v", e.Name(), st.Survivors, st.Stopped)
		}
	}
}

// Deferred constraints mid-nest: the VM's opHostChk and hoisting together.
func TestDeferredConstraintHoisting(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(6))
	s.Range("b", expr.IntLit(0), expr.IntLit(6))
	s.Range("c", expr.IntLit(0), expr.IntLit(6))
	calls := 0
	s.DeferredConstraint("host_mid", space.Soft, []string{"a", "b"},
		func(args []expr.Value) bool {
			calls++
			return (args[0].I+args[1].I)%3 != 0
		})
	prog := mustCompile(t, s)
	// The constraint reads a and b only: it must hoist above c's loop.
	if got := stepDepthOf(prog, "host_mid"); got != 1 {
		t.Fatalf("host_mid at depth %d, want 1", got)
	}
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := comp.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 36 {
		t.Errorf("deferred constraint called %d times, want 36 (6x6, hoisted)", calls)
	}
	if st.Survivors != 12*6 {
		t.Errorf("survivors = %d, want 72", st.Survivors)
	}
	assertAgree(t, prog, -1)
}

func stepDepthOf(prog *plan.Program, name string) int {
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

// Table lookups inside constraints through all engines (the VM's opTable).
func TestTableLookupAcrossEngines(t *testing.T) {
	s := space.New()
	s.Range("r", expr.IntLit(0), expr.IntLit(5)) // includes out-of-range rows
	s.Range("c", expr.IntLit(0), expr.IntLit(4))
	s.Derived("v", &expr.Table2D{
		Name:    "T",
		Data:    [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		Row:     expr.NewRef("r"),
		Col:     expr.NewRef("c"),
		Default: -1,
	})
	s.Constrain("reject_default", space.Correctness, expr.Eq(expr.NewRef("v"), expr.IntLit(-1)))
	s.Constrain("odd_only", space.Soft, expr.Eq(expr.Mod(expr.NewRef("v"), expr.IntLit(2)), expr.IntLit(0)))
	// Rows 0-2 x cols 0-2 valid, keep odd values: 1,3,5,7,9 -> 5 tuples.
	assertAgree(t, mustCompile(t, s), 5)
}

// Short-circuit evaluation counts: `and` must not evaluate its right side
// when the left is false — observable through a deferred-constraint-free
// proxy: a division that would be nonzero-checked. Since the language is
// total, instead verify via Check counts against a nested-if equivalent.
func TestShortCircuitEquivalence(t *testing.T) {
	mk := func(pred expr.Expr) *plan.Program {
		s := space.New()
		s.Range("x", expr.IntLit(0), expr.IntLit(20))
		s.Constrain("k", space.Soft, pred)
		return mustCompile(t, s)
	}
	// (x % 2 == 0) and (x % 3 == 0)  ==  ternary-nested form.
	a := mk(expr.And(
		expr.Eq(expr.Mod(expr.NewRef("x"), expr.IntLit(2)), expr.IntLit(0)),
		expr.Eq(expr.Mod(expr.NewRef("x"), expr.IntLit(3)), expr.IntLit(0))))
	b := mk(expr.If(
		expr.Eq(expr.Mod(expr.NewRef("x"), expr.IntLit(2)), expr.IntLit(0)),
		expr.Eq(expr.Mod(expr.NewRef("x"), expr.IntLit(3)), expr.IntLit(0)),
		expr.BoolLit(false)))
	for _, prog := range []*plan.Program{a, b} {
		for _, e := range allEngines(t, prog) {
			st, err := e.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Survivors != 20-4 { // x in {0,6,12,18} rejected
				t.Errorf("%s: survivors = %d, want 16", e.Name(), st.Survivors)
			}
		}
	}
}

// Very deep nests (8 levels) stress the recursion and bytecode emission.
func TestDeepNest(t *testing.T) {
	s := space.New()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, n := range names {
		s.Range(n, expr.IntLit(0), expr.IntLit(2))
	}
	sum := expr.Expr(expr.IntLit(0))
	for _, n := range names {
		sum = expr.Add(sum, expr.NewRef(n))
	}
	s.Derived("total", sum)
	s.Constrain("k", space.Soft, expr.Ne(expr.NewRef("total"), expr.IntLit(4)))
	// C(8,4) = 70 tuples with exactly four ones.
	assertAgree(t, mustCompile(t, s), 70)
}

// Unknown-engine-state probes: Stats merging and the funnel rendering on a
// parallel run.
func TestParallelFunnel(t *testing.T) {
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(50))
	s.Range("y", expr.IntLit(0), expr.IntLit(50))
	s.Constrain("k", space.Hard, expr.Gt(expr.Mul(expr.NewRef("x"), expr.NewRef("y")), expr.IntLit(100)))
	prog := mustCompile(t, s)
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := comp.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := comp.Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.FunnelReport(prog) != par.FunnelReport(prog) {
		t.Error("funnel reports differ between sequential and parallel")
	}
	if !strings.Contains(seq.FunnelReport(prog), "k") {
		t.Error("funnel missing constraint")
	}
}

// Parallel tiling over host iterators: the tiler materializes deferred and
// closure domains at prefix depths and workers resume below them, so the
// merged statistics must match the sequential run for every worker count
// and every explicit split depth.
func TestParallelHostIterators(t *testing.T) {
	deferred := func() *space.Space {
		s := space.New()
		s.Range("a", expr.IntLit(1), expr.IntLit(7))
		s.DeferredIter("d", []string{"a"}, func(args []expr.Value) space.DomainExpr {
			if args[0].I%2 == 0 {
				return nil // empty
			}
			return space.NewIntList(args[0].I, args[0].I*10, args[0].I*100)
		})
		s.Range("z", expr.IntLit(0), expr.IntLit(4))
		s.Constrain("k", space.Soft,
			expr.Ne(expr.Mod(expr.Add(expr.NewRef("d"), expr.NewRef("z")), expr.IntLit(3)), expr.IntLit(0)))
		return s
	}
	closure := func() *space.Space {
		s := space.New()
		s.Range("a", expr.IntLit(2), expr.IntLit(8))
		s.ClosureIter("div", []string{"a"}, func(args []expr.Value, yield func(int64) bool) {
			for v := int64(1); v <= args[0].I; v++ {
				if args[0].I%v == 0 && !yield(v) {
					return
				}
			}
		})
		s.Range("z", expr.IntLit(0), expr.IntLit(3))
		return s
	}
	for name, build := range map[string]func() *space.Space{"deferred": deferred, "closure": closure} {
		prog := mustCompile(t, build())
		for _, e := range allEngines(t, prog) {
			seq, err := e.Run(Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, e.Name(), err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				st, err := e.Run(Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", name, e.Name(), workers, err)
				}
				requireStatsEqual(t,
					name+"/"+e.Name(), st, seq)
			}
			for depth := 1; depth <= len(prog.Loops); depth++ {
				st, err := e.Run(Options{Workers: 4, SplitDepth: depth})
				if err != nil {
					t.Fatalf("%s/%s depth=%d: %v", name, e.Name(), depth, err)
				}
				requireStatsEqual(t, name+"/"+e.Name(), st, seq)
			}
		}
	}
}

// TestTypeErrorSurfacedAsError: a string that does not fold is a plan
// error, never a panic or a run-time error: ordering a string setting
// against an iterator fails plan.Compile with a *plan.TypeError naming the
// constraint, with folding on and off. A string comparison folds, so every
// backend runs it, in a check or in a conditional domain, at every
// schedule, also when tiling prunes every prefix above the level that
// reads it.
func TestTypeErrorSurfacedAsError(t *testing.T) {
	s := space.New()
	s.StrSetting("mode", "abc")
	s.Range("x", expr.IntLit(0), expr.IntLit(3))
	s.Constrain("bad", space.Soft, expr.Lt(expr.NewRef("mode"), expr.NewRef("x")))
	for _, noFold := range []bool{false, true} {
		_, err := plan.Compile(s, plan.Options{DisableFolding: noFold})
		var te *plan.TypeError
		if !errors.As(err, &te) || te.Entity != "constraint" || te.Name != "bad" {
			t.Errorf("no-fold=%v: want a TypeError naming constraint bad, got %v", noFold, err)
		}
	}

	isABC := expr.Eq(expr.NewRef("mode"), expr.StrLit("abc"))
	spaces := map[string]*space.Space{}
	for _, inCheck := range []bool{true, false} {
		s2 := space.New()
		s2.StrSetting("mode", "abc")
		if inCheck {
			s2.Range("x", expr.IntLit(0), expr.IntLit(3))
			s2.Constrain("str", space.Soft, expr.And(isABC, expr.Gt(expr.NewRef("x"), expr.IntLit(1))))
		} else {
			s2.DomainIter("x", space.NewCond(isABC, space.NewIntList(1, 2), space.NewIntList(3)))
		}
		s2.Range("y", expr.IntLit(0), expr.IntLit(3))
		spaces[fmt.Sprintf("check=%v", inCheck)] = s2
	}
	s3 := space.New()
	s3.StrSetting("mode", "abc")
	s3.Range("x", expr.IntLit(0), expr.IntLit(3))
	s3.Constrain("none", space.Hard, expr.Ge(expr.NewRef("x"), expr.IntLit(0)))
	s3.Range("y", expr.IntLit(0), expr.IntLit(3))
	s3.Constrain("str", space.Soft, expr.And(isABC, expr.Gt(expr.NewRef("y"), expr.IntLit(1))))
	spaces["pruned level"] = s3
	for name, sp := range spaces {
		prog, err := plan.Compile(sp, plan.Options{DisableFolding: true, DisableReorder: true, DisableNarrowing: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := runStats(t, NewInterp(prog), Options{})
		for _, e := range allBackends(t, prog) {
			for _, opts := range []Options{{Workers: 1}, {Workers: 2}, {Workers: 1, Checkpoint: &CheckpointConfig{}}} {
				requireStatsEqual(t, fmt.Sprintf("%s %s workers=%d checkpoint=%v", name, e.Name(), opts.Workers, opts.Checkpoint != nil),
					runStats(t, e, opts), want)
			}
		}
	}
}

// A check step between shared subtrees forces the optimizer to place one
// temp at its use depth while a shallower temp still references the same
// subexpression, and the Ne constraint collapses a loop to a single value
// via narrowing. Survivor tuples must be identical under every
// combination of those passes (this distilled a real planner bug: a bound
// expression reusing a temp assigned deeper than the loop entry it
// evaluates at).
func TestTempAndNarrowAblationParity(t *testing.T) {
	build := func() *space.Space {
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
		return s
	}
	run := func(opts plan.Options) ([][]int64, *Stats) {
		prog, err := plan.Compile(build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := NewCompiled(prog)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := CollectTuples(comp, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}
	base, baseStats := run(plan.Options{})
	for _, c := range []struct {
		label string
		opts  plan.Options
	}{
		{"nocse", plan.Options{DisableCSE: true}},
		{"nonarrow", plan.Options{DisableNarrowing: true}},
		{"nonarrow+nocse", plan.Options{DisableNarrowing: true, DisableCSE: true}},
	} {
		got, st := run(c.opts)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("%s: survivor tuples differ (%d vs %d)", c.label, len(got), len(base))
		}
		if !reflect.DeepEqual(st.Kills, baseStats.Kills) {
			t.Errorf("%s: kills %v, want %v", c.label, st.Kills, baseStats.Kills)
		}
	}
	if baseStats.TotalIterationsSkipped() == 0 {
		t.Error("narrowing did not fire on the Ne-collapsed loop")
	}
}

// TestOptimizerNeverAddsWork: the expression optimizer only removes work.
// On every GEMM variant and on samples of the other families, the default
// plan evaluates no more expression nodes (Stats.ExprOps) than the
// DisableCSE plan, and finds the same survivors with the same visits and
// kills. GEMM's reshape equalities pin loops to one value (see
// plan.BoundGroup.Pinned); a temp hoisted above such a loop runs on every
// iteration of the level it lands on while its use runs at most once.
func TestOptimizerNeverAddsWork(t *testing.T) {
	type entry struct {
		name  string
		build func() (*space.Space, error)
	}
	var corpus []entry
	for _, name := range families.GEMMNames() {
		corpus = append(corpus, entry{"gemm/" + name, func() (*space.Space, error) { return families.GEMM(name, 32) }})
	}
	for _, n := range []int64{1, 7, 64, 257, 512} {
		corpus = append(corpus, entry{fmt.Sprintf("batched/%d", n), func() (*space.Space, error) { return families.Batched(n) }})
	}
	for _, sc := range [][2]int64{{33, 4}, {129, 4}, {257, 8}} {
		corpus = append(corpus, entry{fmt.Sprintf("stencil/%d/%d", sc[0], sc[1]),
			func() (*space.Space, error) { return families.Stencil(sc[0], sc[1]) }})
	}
	corpus = append(corpus, entry{"dense/1024", func() (*space.Space, error) { return families.Dense(1024) }})
	for _, c := range corpus {
		var ops [2]int64
		var tuples [2][][]int64
		var stats [2]*Stats
		for i, opts := range []plan.Options{{}, {DisableCSE: true}} {
			s, err := c.build()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			prog, err := plan.Compile(s, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			comp, err := NewCompiled(prog)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if tuples[i], stats[i], err = CollectTuples(comp, 0); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ops[i] = stats[i].ExprOps(prog)
		}
		if ops[0] > ops[1] {
			t.Errorf("%s: ExprOps %d with the optimizer, %d without (%.2fx)",
				c.name, ops[0], ops[1], float64(ops[0])/float64(ops[1]))
		}
		if !reflect.DeepEqual(tuples[0], tuples[1]) {
			t.Errorf("%s: survivors differ (%d with the optimizer, %d without)", c.name, len(tuples[0]), len(tuples[1]))
		}
		if !reflect.DeepEqual(stats[0].LoopVisits, stats[1].LoopVisits) || !reflect.DeepEqual(stats[0].Kills, stats[1].Kills) {
			t.Errorf("%s: visits %v kills %v with the optimizer, visits %v kills %v without",
				c.name, stats[0].LoopVisits, stats[0].Kills, stats[1].LoopVisits, stats[1].Kills)
		}
	}
}

// TestNarrowWrapSpecs: with big = MaxInt64, `x * 2 < big` absorbs as a
// ceiling bound and `x * 2 != big` as a pin whose numerator big is odd;
// both reject every x of range(0, 10). With and without narrowing, every
// backend at chunk 1 and 64 and with one and two workers delivers
// naive.Survivors' (no) tuples and credits the constraint with all ten
// kills.
func TestNarrowWrapSpecs(t *testing.T) {
	for _, tc := range naive.WrapCorpus() {
		want := naive.Survivors(t, tc.Space)
		for _, noNarrow := range []bool{false, true} {
			prog, err := plan.Compile(tc.Space, verified(plan.Options{DisableNarrowing: noNarrow}))
			if err != nil {
				t.Fatal(err)
			}
			if (prog.Loops[0].Bounds == nil) != noNarrow {
				t.Fatalf("%s no-narrow=%v: bounds %v", tc.Name, noNarrow, prog.Loops[0].Bounds)
			}
			for _, e := range allBackends(t, prog) {
				for _, chunk := range []int{1, 64} {
					for _, workers := range []int{1, 2} {
						l := fmt.Sprintf("%s no-narrow=%v %s chunk=%d workers=%d", tc.Name, noNarrow, e.Name(), chunk, workers)
						got, st := collectCanon(t, e, Options{ChunkSize: chunk, Workers: workers}, l)
						if !reflect.DeepEqual(got, want) || st.Kills[0] != 10 {
							t.Errorf("%s: survivors %v kills %d, naive enumeration %v and 10 kills", l, got, st.Kills[0], want)
						}
					}
				}
			}
		}
	}
}

// wideRangeSpaces are one-loop spaces over x = range(-2^62, 2^62, 2^61),
// whose stop - start exceeds MaxInt64, each with one constraint that
// bounds compilation absorbs in a different form: a Lo bound, a Hi
// bound, a suffix-feasible probe and a prefix-feasible probe. Counting
// or aligning such a range in int64 wraps.
func wideRangeSpaces() map[string]*space.Space {
	x, lit := expr.NewRef("x"), expr.IntLit
	out := make(map[string]*space.Space)
	for name, c := range map[string]expr.Expr{
		"lo":           expr.Lt(x, lit(5)),
		"hi":           expr.Gt(x, lit(-5)),
		"suffix probe": expr.Lt(expr.MinOf(x, lit(7)), lit(5)),
		"prefix probe": expr.Gt(expr.MaxOf(x, lit(-7)), lit(5)),
	} {
		s := space.New()
		s.RangeStep("x", lit(-1<<62), lit(1<<62), lit(1<<61))
		s.Constrain("c", space.Hard, c)
		out[name] = s
	}
	return out
}

// TestNarrowWideRange: on a range wider than MaxInt64 a narrowed loop
// credits its constraint with the kills a run without narrowing counts,
// and delivers the same tuples, on every backend at chunk 1 and 64 and
// with one and two workers.
func TestNarrowWideRange(t *testing.T) {
	for name, s := range wideRangeSpaces() {
		prog := mustCompile(t, s)
		if prog.Loops[0].Bounds == nil {
			t.Fatalf("%s: the constraint was not absorbed into bounds", name)
		}
		ref, err := plan.Compile(s, plan.Options{DisableNarrowing: true})
		if err != nil {
			t.Fatal(err)
		}
		wantTuples, want := collectCanon(t, NewInterp(ref), Options{ChunkSize: 1}, name)
		for _, e := range allEngines(t, prog) {
			for _, chunk := range []int{1, 64} {
				for _, workers := range []int{1, 2} {
					label := fmt.Sprintf("%s: %s chunk=%d workers=%d", name, e.Name(), chunk, workers)
					tuples, st := collectCanon(t, e, Options{ChunkSize: chunk, Workers: workers}, label)
					if !reflect.DeepEqual(st.Kills, want.Kills) {
						t.Errorf("%s: kills %v, without narrowing %v", label, st.Kills, want.Kills)
					}
					if !reflect.DeepEqual(tuples, wantTuples) {
						t.Errorf("%s: tuples %v, without narrowing %v", label, tuples, wantTuples)
					}
				}
			}
		}
	}
}
