package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/space"
)

// tabSpace is a deterministic space where both table kinds apply: u is a
// unary check over the inner iterator, bin a binary check over
// inner x outer. The middle loop m makes the binary table amortize (one
// row build per a value serves every m sweep); DisableReorder pins the
// declared nest so the row-cache behaviour is predictable.
func tabSpace(t *testing.T) *space.Space {
	t.Helper()
	s := space.New()
	s.Range("a", expr.IntLit(1), expr.IntLit(9))
	s.Range("m", expr.IntLit(1), expr.IntLit(5))
	s.Range("b", expr.IntLit(1), expr.IntLit(129))
	s.Constrain("u", space.Hard,
		expr.Eq(expr.Mod(expr.NewRef("b"), expr.IntLit(3)), expr.IntLit(0)))
	s.Constrain("bin", space.Hard,
		expr.Eq(expr.Mod(expr.Add(expr.NewRef("a"), expr.NewRef("b")), expr.IntLit(5)), expr.IntLit(0)))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTabulateStatsAndAblation pins the observable behaviour of the
// deterministic tabulatable space: tables engage by default in all three
// backends (chunked and scalar), the binary row cache records hits, the
// -no-tabulate ablation reports zero tabulated checks, and only the
// disabled state enters the plan description (tables are derived data, so
// the budget must not perturb checkpoint fingerprints).
func TestTabulateStatsAndAblation(t *testing.T) {
	s := tabSpace(t)
	progOn, err := plan.Compile(s, verified(plan.Options{DisableReorder: true}))
	if err != nil {
		t.Fatal(err)
	}
	if progOn.Tab == nil || len(progOn.Tab.Tables) != 2 {
		t.Fatalf("expected 2 tables, got %+v", progOn.Tab)
	}
	progOff, err := plan.Compile(s, verified(plan.Options{DisableReorder: true, DisableTabulation: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progOff.Describe(), "tabulation: off") {
		t.Fatal("disabled plan description should record the ablation")
	}
	if strings.Contains(progOn.Describe(), "tabulation") {
		t.Fatal("enabled plan description must not mention tabulation (tables are derived data)")
	}
	// A different budget must not change the plan description either:
	// checkpoint fingerprints hash it, and resumes across budget changes
	// are legal because kill counts are identical.
	progSmall, err := plan.Compile(s, verified(plan.Options{DisableReorder: true, TabulateBudget: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if progSmall.Describe() != progOn.Describe() {
		t.Fatal("tabulate budget leaked into the plan description")
	}

	engines := func(p *plan.Program) []Engine {
		comp, err := NewCompiled(p)
		if err != nil {
			t.Fatal(err)
		}
		return []Engine{NewInterp(p), NewVM(p), comp}
	}
	for _, chunk := range []int{1, 64} {
		for _, e := range engines(progOn) {
			st, err := e.Run(Options{ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if st.TabulatedChecks == 0 {
				t.Errorf("%s chunk=%d: no tabulated checks", e.Name(), chunk)
			}
			if st.TableBytes == 0 {
				t.Errorf("%s chunk=%d: TableBytes not surfaced", e.Name(), chunk)
			}
			if chunk > 1 && st.RowCacheHits == 0 {
				t.Errorf("%s chunk=%d: binary row cache recorded no hits", e.Name(), chunk)
			}
		}
		for _, e := range engines(progOff) {
			st, err := e.Run(Options{ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if st.TabulatedChecks != 0 || st.RowCacheHits != 0 || st.TableBytes != 0 {
				t.Errorf("%s chunk=%d: -no-tabulate run still reported table stats: %d/%d/%d",
					e.Name(), chunk, st.TabulatedChecks, st.RowCacheHits, st.TableBytes)
			}
		}
	}
}

// TestTabulateSkipsUnamortizedBinary pins the plan-time amortization
// guard: in a two-deep nest whose binary check pairs the top loop with
// the inner loop, each row would be built for exactly one inner sweep —
// as many predicate evaluations as the expression path, plus lookup
// overhead — so only the unary check may tabulate.
func TestTabulateSkipsUnamortizedBinary(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(1), expr.IntLit(9))
	s.Range("b", expr.IntLit(1), expr.IntLit(129))
	s.Constrain("u", space.Hard,
		expr.Eq(expr.Mod(expr.NewRef("b"), expr.IntLit(3)), expr.IntLit(0)))
	s.Constrain("bin", space.Hard,
		expr.Eq(expr.Mod(expr.Add(expr.NewRef("a"), expr.NewRef("b")), expr.IntLit(5)), expr.IntLit(0)))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, err := plan.Compile(s, verified(plan.Options{DisableReorder: true}))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Tab == nil || len(prog.Tab.Tables) != 1 {
		t.Fatalf("expected exactly the unary table, got %+v", prog.Tab)
	}
	if prog.Tab.Tables[0].Kind != plan.UnaryTable {
		t.Fatalf("surviving table should be unary, got kind %v", prog.Tab.Tables[0].Kind)
	}
}

// TestStringChecksFoldAway: with folding off, a check that compares a
// string setting still folds at plan time, so nothing about it stays
// boxed. Both string checks get exact censuses, like the int check
// beside them; same_b and u, the innermost checks, are tabulated; and
// every backend, scalar and chunked, evaluates chunks and matches the
// DisableTabulation run's counters.
func TestStringChecksFoldAway(t *testing.T) {
	ref, lit := expr.NewRef, expr.IntLit
	s := space.New()
	s.StrSetting("mode", "nn")
	s.StrSetting("want", "nn")
	s.Range("a", lit(1), lit(9))
	s.Range("b", lit(1), lit(129))
	s.Constrain("mode_a", space.Soft, expr.And(expr.Eq(ref("mode"), expr.StrLit("nn")), expr.Gt(ref("a"), lit(5))))
	s.Constrain("same_b", space.Soft, expr.And(expr.Eq(ref("mode"), ref("want")), expr.Eq(expr.Mod(ref("b"), lit(3)), lit(0))))
	s.Constrain("u", space.Soft, expr.Eq(expr.Mod(ref("b"), lit(7)), lit(0)))

	prog, err := plan.Compile(s, verified(plan.Options{DisableFolding: true}))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Reorder == nil {
		t.Fatal("no reorder info")
	}
	for name, samples := range map[string]int{"mode_a": 8, "same_b": 128, "u": 128} {
		if est, ok := prog.Reorder.SelectivityOf(name); !ok || !est.Exact || est.Samples != samples {
			t.Errorf("%s: want an exact census of %d values, got %+v (found %v)", name, samples, est, ok)
		}
	}

	opts := verified(plan.Options{DisableFolding: true, DisableReorder: true})
	progOn, err := plan.Compile(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisableTabulation = true
	progOff, err := plan.Compile(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if progOn.Tab == nil {
		t.Fatal("nothing was tabulated")
	}
	var tabled []string
	for _, tb := range progOn.Tab.Tables {
		tabled = append(tabled, tb.Name)
	}
	if sort.Strings(tabled); !reflect.DeepEqual(tabled, []string{"same_b", "u"}) {
		t.Errorf("tabulated %v, want [same_b u]", tabled)
	}
	engOff := allBackends(t, progOff)
	for i, e := range allBackends(t, progOn) {
		for _, chunk := range []int{1, 64} {
			label := fmt.Sprintf("%s chunk=%d", e.Name(), chunk)
			on := runStats(t, e, Options{ChunkSize: chunk})
			off := runStats(t, engOff[i], Options{ChunkSize: chunk})
			requireStatsEqual(t, label, on, off)
			if on.TabulatedChecks == 0 {
				t.Errorf("%s: no table was used", label)
			}
			if chunk > 1 && on.ChunksEvaluated == 0 {
				t.Errorf("%s: the innermost loop ran scalar", label)
			}
		}
	}
}

// collectCanon runs e and returns its canonical tuple stream. OnTuple runs
// concurrently when opts.Workers > 1, so the append is locked.
func collectCanon(t *testing.T, e Engine, opts Options, label string) ([]string, *Stats) {
	t.Helper()
	var mu sync.Mutex
	var tuples [][]int64
	opts.OnTuple = func(tu []int64) bool {
		cp := make([]int64, len(tu))
		copy(cp, tu)
		mu.Lock()
		tuples = append(tuples, cp)
		mu.Unlock()
		return true
	}
	st, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return naive.Canon(tuples), st
}

// TestFuzzTabulateGrid sweeps random spaces through the ablation grid of
// the tabulation PR: tabulate x chunk x workers x -no-narrow x -no-cse.
// Within each plan combination the tabulated run must match the
// -no-tabulate baseline on the canonical survivor set and the
// per-constraint check/kill counters bit for bit, for all three backends
// — the "kill counts stay bit-identical" contract that lets the ablation
// flag stay out of checkpoint fingerprints.
func TestFuzzTabulateGrid(t *testing.T) {
	trials := 80
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(20160523))
	combos := []struct {
		label string
		opts  plan.Options
	}{
		{"default", plan.Options{}},
		{"nonarrow", plan.Options{DisableNarrowing: true}},
		{"nocse", plan.Options{DisableCSE: true}},
		{"nonarrow+nocse", plan.Options{DisableNarrowing: true, DisableCSE: true}},
	}
	for trial := 0; trial < trials; trial++ {
		s := randomSpace(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random space: %v", trial, err)
		}
		for _, c := range combos {
			offOpts := c.opts
			offOpts.DisableTabulation = true
			progOff, err := plan.Compile(s, verified(offOpts))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.label, err)
			}
			compOff, err := NewCompiled(progOff)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.label, err)
			}
			want, wantStats := collectCanon(t, compOff, Options{}, fmt.Sprintf("trial %d %s baseline", trial, c.label))
			if wantStats.TotalVisits() > 500_000 {
				break // unusually large space; skip to keep the fuzz fast
			}
			if wantStats.TabulatedChecks != 0 {
				t.Fatalf("trial %d %s: baseline ran with tables", trial, c.label)
			}
			progOn, err := plan.Compile(s, verified(c.opts))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.label, err)
			}
			compOn, err := NewCompiled(progOn)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.label, err)
			}
			for _, e := range []Engine{NewInterp(progOn), NewVM(progOn), compOn} {
				for _, chunk := range []int{1, 8, 64} {
					for _, workers := range []int{1, 4} {
						label := fmt.Sprintf("trial %d %s %s chunk=%d workers=%d",
							trial, c.label, e.Name(), chunk, workers)
						got, st := collectCanon(t, e, Options{ChunkSize: chunk, Workers: workers}, label)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: survivor set diverged (%d vs %d)\nspace:\n%s",
								label, len(got), len(want), progOn.Describe())
						}
						if !reflect.DeepEqual(st.Checks, wantStats.Checks) ||
							!reflect.DeepEqual(st.Kills, wantStats.Kills) {
							t.Fatalf("%s: counters diverged\nchecks %v want %v\nkills %v want %v\nspace:\n%s",
								label, st.Checks, wantStats.Checks, st.Kills, wantStats.Kills, progOn.Describe())
						}
						if st.Survivors != wantStats.Survivors {
							t.Fatalf("%s: survivors %d want %d", label, st.Survivors, wantStats.Survivors)
						}
					}
				}
			}
		}
	}
}

// TestTabulateWideRange: a table over an inner range wider than MaxInt64
// indexes every value exactly, on every backend at chunk 1 and 64, with
// the kills and tuples of the untabulated plan. (v − Base) of its last
// value overflows int64.
func TestTabulateWideRange(t *testing.T) {
	s := space.New()
	s.RangeStep("x", expr.IntLit(-6<<60), expr.IntLit(6<<60), expr.IntLit(4<<60))
	s.Constrain("c", space.Soft, expr.Eq(expr.Mod(expr.NewRef("x"), expr.IntLit(3)), expr.IntLit(0)))
	prog := mustCompile(t, s)
	if prog.Tab == nil {
		t.Fatal("the check was not tabulated")
	}
	ref, err := plan.Compile(s, plan.Options{DisableTabulation: true})
	if err != nil {
		t.Fatal(err)
	}
	wantTuples, want := collectCanon(t, NewInterp(ref), Options{ChunkSize: 1}, "untabulated")
	for _, e := range allEngines(t, prog) {
		for _, chunk := range []int{1, 64} {
			label := fmt.Sprintf("%s chunk=%d", e.Name(), chunk)
			tuples, st := collectCanon(t, e, Options{ChunkSize: chunk}, label)
			if st.TabulatedChecks == 0 {
				t.Errorf("%s: no check served from the table", label)
			}
			if !reflect.DeepEqual(st.Kills, want.Kills) || !reflect.DeepEqual(tuples, wantTuples) {
				t.Errorf("%s: kills %v tuples %v, untabulated %v %v", label, st.Kills, tuples, want.Kills, wantTuples)
			}
		}
	}
}
