package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// testSpace builds a small space exercising every language feature: setting
// folding, dependent ranges, conditional domains, derived variables,
// expression and deferred constraints, deferred and closure iterators, and
// the iterator algebra.
func testSpace(t *testing.T) *space.Space {
	t.Helper()
	s := space.New()
	s.IntSetting("maxv", 12)
	s.StrSetting("mode", "fancy")

	s.Range("a", expr.IntLit(1), expr.Add(expr.NewRef("maxv"), expr.IntLit(1)))
	// b depends on a through a conditional domain selected by a folded
	// string setting.
	s.DomainIter("b", space.NewCond(
		expr.Eq(expr.NewRef("mode"), expr.StrLit("fancy")),
		space.NewRange(expr.NewRef("a"), expr.Add(expr.NewRef("maxv"), expr.IntLit(1))),
		space.NewRange(expr.IntLit(1), expr.IntLit(2)),
	))
	// c: deferred iterator with host logic.
	s.DeferredIter("c", []string{"a", "b"}, func(args []expr.Value) space.DomainExpr {
		a, b := args[0].I, args[1].I
		if (a+b)%2 == 0 {
			return space.NewIntList(1, 2)
		}
		return space.NewRange(expr.IntLit(1), expr.IntLit(4))
	})
	// d: closure iterator yielding divisors of a (stateful generator).
	s.ClosureIter("d", []string{"a"}, func(args []expr.Value, yield func(int64) bool) {
		a := args[0].I
		for v := int64(1); v <= a; v++ {
			if a%v == 0 {
				if !yield(v) {
					return
				}
			}
		}
	})
	// e: iterator algebra — union of a range and an explicit list.
	s.DomainIter("e", space.Union(
		space.NewRange(expr.IntLit(2), expr.IntLit(5)),
		space.NewIntList(4, 7),
	))

	s.Derived("ab", expr.Mul(expr.NewRef("a"), expr.NewRef("b")))
	s.Derived("total", expr.Add(expr.NewRef("ab"), expr.Mul(expr.NewRef("c"), expr.NewRef("d"))))

	s.Constrain("ab_too_big", space.Hard,
		expr.Gt(expr.NewRef("ab"), expr.Mul(expr.NewRef("maxv"), expr.IntLit(8))))
	s.Constrain("b_not_multiple", space.Correctness,
		expr.Ne(expr.Mod(expr.NewRef("b"), expr.NewRef("a")), expr.IntLit(0)))
	s.DeferredConstraint("odd_total", space.Soft, []string{"total", "e"},
		func(args []expr.Value) bool { return (args[0].I+args[1].I)%2 == 1 })
	return s
}

func compileAll(t *testing.T, s *space.Space, opts plan.Options) (*plan.Program, []Engine) {
	t.Helper()
	prog, err := plan.Compile(s, opts)
	if err != nil {
		t.Fatalf("plan.Compile: %v", err)
	}
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatalf("NewCompiled: %v", err)
	}
	return prog, []Engine{NewInterp(prog), NewVM(prog), comp}
}

func runStats(t *testing.T, e Engine, opts Options) *Stats {
	t.Helper()
	st, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s.Run: %v", e.Name(), err)
	}
	return st
}

func TestCrossEngineEquivalence(t *testing.T) {
	s := testSpace(t)
	_, engines := compileAll(t, s, plan.Options{})

	var want [][]int64
	var wantStats *Stats
	for i, e := range engines {
		tuples, st, err := CollectTuples(e, 0)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if i == 0 {
			want, wantStats = tuples, st
			if st.Survivors == 0 {
				t.Fatal("test space has no survivors; test is vacuous")
			}
			continue
		}
		if !reflect.DeepEqual(tuples, want) {
			t.Errorf("%s: tuples differ from interp (got %d, want %d)", e.Name(), len(tuples), len(want))
		}
		if !reflect.DeepEqual(st.LoopVisits, wantStats.LoopVisits) {
			t.Errorf("%s: visits %v, want %v", e.Name(), st.LoopVisits, wantStats.LoopVisits)
		}
		if !reflect.DeepEqual(st.Kills, wantStats.Kills) {
			t.Errorf("%s: kills %v, want %v", e.Name(), st.Kills, wantStats.Kills)
		}
		if !reflect.DeepEqual(st.Checks, wantStats.Checks) {
			t.Errorf("%s: checks %v, want %v", e.Name(), st.Checks, wantStats.Checks)
		}
	}
	t.Logf("survivors=%d visits=%v", wantStats.Survivors, wantStats.LoopVisits)
}

func TestProtocolsAgree(t *testing.T) {
	s := testSpace(t)
	_, engines := compileAll(t, s, plan.Options{})
	base := runStats(t, engines[0], Options{})
	for _, e := range engines {
		for _, p := range []Protocol{ProtoDefault, ProtoWhile, ProtoRange, ProtoXRange, ProtoRepeat} {
			st := runStats(t, e, Options{Protocol: p})
			if st.Survivors != base.Survivors {
				t.Errorf("%s/%s: survivors = %d, want %d", e.Name(), p, st.Survivors, base.Survivors)
			}
			if !reflect.DeepEqual(st.LoopVisits, base.LoopVisits) {
				t.Errorf("%s/%s: visits = %v, want %v", e.Name(), p, st.LoopVisits, base.LoopVisits)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	s := testSpace(t)
	_, engines := compileAll(t, s, plan.Options{})
	base := runStats(t, engines[0], Options{})
	for _, e := range engines {
		for _, workers := range []int{2, 3, 8} {
			st := runStats(t, e, Options{Workers: workers})
			if st.Survivors != base.Survivors {
				t.Errorf("%s workers=%d: survivors = %d, want %d", e.Name(), workers, st.Survivors, base.Survivors)
			}
			if !reflect.DeepEqual(st.LoopVisits, base.LoopVisits) {
				t.Errorf("%s workers=%d: visits = %v, want %v", e.Name(), workers, st.LoopVisits, base.LoopVisits)
			}
			if !reflect.DeepEqual(st.Kills, base.Kills) {
				t.Errorf("%s workers=%d: kills = %v, want %v", e.Name(), workers, st.Kills, base.Kills)
			}
		}
	}
}

func TestHoistingAblationPreservesSurvivors(t *testing.T) {
	s := testSpace(t)
	progH, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	progN, err := plan.Compile(s, plan.Options{DisableHoisting: true})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewCompiled(progH)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := NewCompiled(progN)
	if err != nil {
		t.Fatal(err)
	}
	th, _, err := CollectTuples(ch, 0)
	if err != nil {
		t.Fatal(err)
	}
	tn, stn, err := CollectTuples(cn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(th, tn) {
		t.Errorf("hoisting changed the survivor set: %d vs %d", len(th), len(tn))
	}
	sth, err := ch.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With hoisting, total constraint checks must not exceed the unhoisted
	// count (it should normally be far lower).
	var hChecks, nChecks int64
	for i := range sth.Checks {
		hChecks += sth.Checks[i]
		nChecks += stn.Checks[i]
	}
	if hChecks > nChecks {
		t.Errorf("hoisted checks %d > unhoisted %d", hChecks, nChecks)
	}
	t.Logf("checks hoisted=%d unhoisted=%d (%.1fx reduction)", hChecks, nChecks, float64(nChecks)/float64(hChecks))
}

func TestLimitAndStop(t *testing.T) {
	s := testSpace(t)
	_, engines := compileAll(t, s, plan.Options{})
	for _, e := range engines {
		st := runStats(t, e, Options{Limit: 5})
		if st.Survivors != 5 || !st.Stopped {
			t.Errorf("%s: limit run got survivors=%d stopped=%v", e.Name(), st.Survivors, st.Stopped)
		}
		n := 0
		st = runStats(t, e, Options{OnTuple: func([]int64) bool {
			n++
			return n < 3
		}})
		if st.Survivors != 3 || !st.Stopped {
			t.Errorf("%s: callback-stop got survivors=%d stopped=%v", e.Name(), st.Survivors, st.Stopped)
		}
		// Checkpointed runs commit whole tiles, so they cannot stop at an
		// exact survivor count and must refuse a Limit, resumed or not.
		var last *Snapshot
		ckpt := &CheckpointConfig{OnSnapshot: func(s *Snapshot) error { last = snapshotCopy(s); return nil }}
		runStats(t, e, Options{Checkpoint: ckpt})
		res := &ResumeState{SplitDepth: last.SplitDepth, Tiles: last.Tiles, Done: last.Done, TileStats: last.TileStats}
		for _, opts := range []Options{{Limit: 5, Checkpoint: ckpt}, {Limit: 5, Resume: res}} {
			if st, err := e.Run(opts); err == nil || st != nil {
				t.Errorf("%s: limit with checkpoint=%v resume=%v ran: st=%v err=%v",
					e.Name(), opts.Checkpoint != nil, opts.Resume != nil, st, err)
			}
		}
	}
}

// TestFoldingAblationPreservesSurvivors: testSpace, which reads a string
// setting, must deliver the naive enumeration's survivors on every
// backend with folding on and off. Strings fold either way, so all three
// backends run the unfolded plan too.
func TestFoldingAblationPreservesSurvivors(t *testing.T) {
	requireNaiveSurvivors(t, "testSpace", testSpace(t))
}

// stringSpace compares string settings the way gemm.Space does: in a
// conditional domain, in setting-factor derived variables, in a
// string-valued derived variable that reads an int setting, and in
// constraints; a host iterator and a host constraint read a string
// setting as set.
func stringSpace(precision, arithmetic string, n int64) *space.Space {
	ref, lit, str := expr.NewRef, expr.IntLit, expr.StrLit
	s := space.New()
	s.StrSetting("precision", precision)
	s.StrSetting("arithmetic", arithmetic)
	s.IntSetting("n", n)
	s.Range("a", lit(1), expr.Add(ref("n"), lit(1)))
	s.DomainIter("vec", space.NewCond(expr.Eq(ref("precision"), str("double")),
		space.NewCond(expr.Eq(ref("arithmetic"), str("real")), space.NewRange(lit(1), lit(3)), space.NewIntList(1)),
		space.NewRangeStep(lit(1), lit(5), lit(3))))
	s.RangeStep("b", ref("a"), lit(17), ref("a"))
	s.DeferredIter("h", []string{"arithmetic", "a"}, func(args []expr.Value) space.DomainExpr {
		if args[0].S == "complex" {
			return space.NewIntList(0, args[1].I)
		}
		return space.NewIntList(0)
	})
	s.Derived("regs", expr.Mul(expr.Mul(ref("a"), ref("b")), expr.Mul(
		expr.If(expr.Eq(ref("precision"), str("double")), lit(2), lit(1)),
		expr.If(expr.Eq(ref("arithmetic"), str("complex")), lit(2), lit(1)))))
	s.Derived("tag", expr.Add(ref("precision"), ref("arithmetic")))
	s.Derived("size", expr.If(expr.Gt(ref("n"), lit(4)), str("big"), str("small")))
	s.Constrain("too_many", space.Hard, expr.Gt(ref("regs"), lit(64)))
	s.Constrain("vec_fit", space.Soft, expr.And(expr.Eq(ref("tag"), str("doublecomplex")), expr.Ne(expr.Mod(ref("b"), ref("vec")), lit(0))))
	s.Constrain("order", space.Correctness, expr.And(expr.Lt(ref("arithmetic"), ref("precision")), expr.Eq(ref("a"), ref("b"))))
	s.Constrain("big_h", space.Soft, expr.And(expr.Eq(ref("size"), str("big")), expr.Gt(ref("h"), ref("n"))))
	s.DeferredConstraint("host", space.Soft, []string{"precision", "a"}, func(args []expr.Value) bool {
		return args[0].S == "double" && args[1].I == 3
	})
	return s
}

// TestStringSettingsMatchNaive: spaces that compare string settings in
// domains, derived variables and constraints deliver the naive
// enumeration's survivors on every backend, schedule and folding mode.
func TestStringSettingsMatchNaive(t *testing.T) {
	for _, c := range []struct {
		precision, arithmetic string
		n                     int64
	}{
		{"double", "complex", 6},
		{"double", "real", 3},
		{"single", "complex", 8},
		{"single", "real", 5},
	} {
		requireNaiveSurvivors(t, fmt.Sprintf("%s/%s/n=%d", c.precision, c.arithmetic, c.n),
			stringSpace(c.precision, c.arithmetic, c.n))
	}
}

// TestHostReadsFoldedDerived: a deferred constraint and a host iterator
// may name derived variables that fold to constants, an integer (k = n *
// 2, which DisableFolding keeps live) and a string (tag, which always
// folds). The host functions read them from prefilled slots, and every
// backend, schedule and folding mode delivers the naive enumeration's
// survivors.
func TestHostReadsFoldedDerived(t *testing.T) {
	ref, lit, str := expr.NewRef, expr.IntLit, expr.StrLit
	s := space.New()
	s.IntSetting("n", 4)
	s.StrSetting("mode", "ab")
	s.Derived("k", expr.Mul(ref("n"), lit(2)))
	s.Derived("tag", expr.Add(ref("mode"), str("c")))
	s.Range("x", lit(0), lit(12))
	s.DeferredIter("h", []string{"k", "x"}, func(args []expr.Value) space.DomainExpr {
		return space.NewIntList(0, args[0].I-args[1].I%3)
	})
	s.DeferredConstraint("host", space.Soft, []string{"k", "tag", "x"}, func(args []expr.Value) bool {
		return args[1].S != "abc" || args[2].I >= args[0].I
	})
	requireNaiveSurvivors(t, "folded host deps", s)
}

func TestEmptySpaceAndPreludeRejection(t *testing.T) {
	s := space.New()
	s.IntSetting("n", 4)
	s.Range("x", expr.IntLit(0), expr.NewRef("n"))
	// Constraint on settings only: rejects everything before loops open.
	s.Constrain("reject_all", space.Hard, expr.Gt(expr.NewRef("n"), expr.IntLit(0)))
	prog, err := plan.Compile(s, plan.Options{DisableFolding: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Prelude) != 1 || prog.Prelude[0].Kind != plan.CheckStep {
		t.Fatal("expected one prelude check")
	}
	id := prog.Prelude[0].StatsID
	// Exactly one worker runs the prelude, whatever the schedule.
	for _, opts := range []Options{{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 1, Checkpoint: &CheckpointConfig{}}} {
		for _, e := range allBackends(t, prog) {
			label := fmt.Sprintf("%s workers=%d checkpoint=%v", e.Name(), opts.Workers, opts.Checkpoint != nil)
			st := runStats(t, e, opts)
			if st.Survivors != 0 {
				t.Errorf("%s: survivors = %d, want 0", label, st.Survivors)
			}
			if st.TotalVisits() != 0 {
				t.Errorf("%s: visits = %d, want 0 (prelude should cut)", label, st.TotalVisits())
			}
			if st.Checks[id] != 1 || st.Kills[id] != 1 {
				t.Errorf("%s: prelude check counted %d checks, %d kills; want 1, 1", label, st.Checks[id], st.Kills[id])
			}
		}
	}
}

func TestZeroLoopProgramSurvives(t *testing.T) {
	s := space.New()
	s.IntSetting("n", 4)
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	// A program with no loops is never tiled, at any worker count.
	for _, workers := range []int{1, 4} {
		for _, e := range []Engine{NewInterp(prog), NewVM(prog), comp} {
			st := runStats(t, e, Options{Workers: workers})
			if st.Survivors != 1 {
				t.Errorf("%s workers=%d: survivors = %d, want 1 (the empty tuple)", e.Name(), workers, st.Survivors)
			}
		}
	}
}

// TestListLoopEntryAllocs pins that entering a loop whose domain is not a
// plain range does not allocate: quadrupling the outer loop quadruples
// the entries into the list loop below it, and every backend, scalar and
// chunked, must allocate no more per run.
func TestListLoopEntryAllocs(t *testing.T) {
	backends := func(n int64) []Engine {
		s := space.New()
		s.Range("a", expr.IntLit(0), expr.IntLit(n))
		s.DomainIter("c", space.NewIntList(1, 2, 4, 8))
		s.Range("b", expr.IntLit(0), expr.IntLit(8))
		prog, err := plan.Compile(s, plan.Options{DisableReorder: true})
		if err != nil {
			t.Fatal(err)
		}
		return allBackends(t, prog)
	}
	allocs := func(e Engine, chunk int) float64 {
		runStats(t, e, Options{ChunkSize: chunk}) // warm-up
		return testing.AllocsPerRun(5, func() { runStats(t, e, Options{ChunkSize: chunk}) })
	}
	small, large := backends(100), backends(400)
	for i := range small {
		for _, chunk := range []int{1, 64} {
			a, b := allocs(small[i], chunk), allocs(large[i], chunk)
			t.Logf("%s chunk=%d: %.0f allocs/run at 100 entries, %.0f at 400", small[i].Name(), chunk, a, b)
			if b > a {
				t.Errorf("%s chunk=%d: allocations grow with loop entries: %.0f at 100, %.0f at 400",
					small[i].Name(), chunk, a, b)
			}
		}
	}
}

func TestNegativeStepRange(t *testing.T) {
	// Figure 5 of the paper uses range(x, 0, -1); verify all engines and
	// protocols handle descending ranges.
	s := space.New()
	s.IntSetting("hi", 6)
	s.RangeStep("down", expr.NewRef("hi"), expr.IntLit(0), expr.IntLit(-1))
	s.Constrain("odd", space.Soft, expr.Eq(expr.Mod(expr.NewRef("down"), expr.IntLit(2)), expr.IntLit(1)))
	_, engines := compileAll(t, s, plan.Options{})
	for _, e := range engines {
		for _, p := range []Protocol{ProtoDefault, ProtoWhile, ProtoRange, ProtoXRange, ProtoRepeat} {
			tuples, st, err := CollectTuples2(e, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name(), p, err)
			}
			want := [][]int64{{6}, {4}, {2}}
			if !reflect.DeepEqual(tuples, want) {
				t.Errorf("%s/%s: tuples = %v, want %v", e.Name(), p, tuples, want)
			}
			if st.Survivors != 3 {
				t.Errorf("%s/%s: survivors = %d", e.Name(), p, st.Survivors)
			}
		}
	}
}

// CollectTuples2 is CollectTuples with a protocol.
func CollectTuples2(e Engine, p Protocol) ([][]int64, *Stats, error) {
	var out [][]int64
	st, err := e.Run(Options{
		Protocol: p,
		OnTuple: func(t []int64) bool {
			cp := make([]int64, len(t))
			copy(cp, t)
			out = append(out, cp)
			return true
		},
	})
	return out, st, err
}

func TestFunnelReport(t *testing.T) {
	s := testSpace(t)
	prog, engines := compileAll(t, s, plan.Options{})
	st := runStats(t, engines[2], Options{})
	rep := st.FunnelReport(prog)
	if len(rep) == 0 || st.PruneRate() <= 0 {
		t.Fatalf("empty funnel report or zero prune rate:\n%s", rep)
	}
	for _, c := range prog.Constraints {
		if !contains(rep, c.Name) {
			t.Errorf("funnel report missing constraint %s", c.Name)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestExplicitOrderInterchange(t *testing.T) {
	// Independent iterators may be interchanged; survivors must not change.
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(5))
	s.Range("y", expr.IntLit(0), expr.IntLit(7))
	s.Constrain("diag", space.Soft, expr.Ne(expr.NewRef("x"), expr.NewRef("y")))
	p1, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan.Compile(s, plan.Options{Order: []string{"y", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := NewCompiled(p1)
	c2, _ := NewCompiled(p2)
	n1, err := CountSurvivors(c1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := CountSurvivors(c2)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || n1 != 5 {
		t.Errorf("interchange changed survivors: %d vs %d (want 5)", n1, n2)
	}
	// Invalid order (dependency violation) must be rejected.
	s2 := space.New()
	s2.Range("a", expr.IntLit(1), expr.IntLit(4))
	s2.Range("b", expr.IntLit(1), expr.Add(expr.NewRef("a"), expr.IntLit(1)))
	if _, err := plan.Compile(s2, plan.Options{Order: []string{"b", "a"}}); err == nil {
		t.Error("expected error for dependency-violating order")
	}
}

func BenchmarkEngines(b *testing.B) {
	s := space.New()
	s.IntSetting("n", 60)
	s.Range("i", expr.IntLit(0), expr.NewRef("n"))
	s.Range("j", expr.IntLit(0), expr.NewRef("n"))
	s.Range("k", expr.IntLit(0), expr.NewRef("n"))
	s.Derived("v", expr.Add(expr.Mul(expr.NewRef("i"), expr.NewRef("j")), expr.NewRef("k")))
	s.Constrain("c", space.Soft, expr.Ne(expr.Mod(expr.NewRef("v"), expr.IntLit(7)), expr.IntLit(0)))
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := NewCompiled(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []Engine{NewInterp(prog), NewVM(prog), comp} {
		b.Run(e.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleStats_PruneRate() {
	st := &Stats{Kills: []int64{99}, Survivors: 1, Checks: []int64{100}}
	fmt.Printf("%.2f\n", st.PruneRate())
	// Output: 0.99
}
