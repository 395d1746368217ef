package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// collectChunked enumerates sequentially with the given chunk size and
// returns every surviving tuple.
func collectChunked(e Engine, chunk int) ([][]int64, *Stats, error) {
	return collect(e, Options{ChunkSize: chunk})
}

// assertChunkAgrees compares a chunked run's statistics against the
// scalar baseline: everything except the chunk-bookkeeping counters
// (ChunksEvaluated/LanesMasked are zero in scalar mode and depend on
// the parallel schedule) must match bit for bit.
func assertChunkAgrees(t *testing.T, st, want *Stats, label string, prog *plan.Program) {
	t.Helper()
	if st.Survivors != want.Survivors ||
		!reflect.DeepEqual(st.LoopVisits, want.LoopVisits) ||
		!reflect.DeepEqual(st.Checks, want.Checks) ||
		!reflect.DeepEqual(st.Kills, want.Kills) {
		t.Fatalf("%s: chunked stats diverge\nsurvivors %d want %d\nvisits %v want %v\nchecks %v want %v\nkills %v want %v\nspace:\n%s",
			label, st.Survivors, want.Survivors, st.LoopVisits, want.LoopVisits,
			st.Checks, want.Checks, st.Kills, want.Kills, prog.Describe())
	}
	if !reflect.DeepEqual(st.TempEvals, want.TempEvals) ||
		!reflect.DeepEqual(st.TempHits, want.TempHits) {
		t.Fatalf("%s: chunked temp counters diverge\nevals %v want %v\nhits %v want %v\nspace:\n%s",
			label, st.TempEvals, want.TempEvals, st.TempHits, want.TempHits, prog.Describe())
	}
	if !reflect.DeepEqual(st.BoundsNarrowed, want.BoundsNarrowed) ||
		!reflect.DeepEqual(st.IterationsSkipped, want.IterationsSkipped) {
		t.Fatalf("%s: chunked narrowing counters diverge\nnarrowed %v want %v\nskipped %v want %v\nspace:\n%s",
			label, st.BoundsNarrowed, want.BoundsNarrowed, st.IterationsSkipped, want.IterationsSkipped, prog.Describe())
	}
	if st.Stopped {
		t.Fatalf("%s: complete run reported Stopped", label)
	}
}

// TestFuzzChunkGrid is the chunked-execution soundness grid: random
// spaces crossed with chunk size {1, 8, 64} x planner ablations
// (-no-cse, -no-narrow) x workers {1, 4}, asserting every backend's
// chunked runs produce the identical survivor tuple stream, kill
// counts, and temp-counter statistics as scalar stepping.
func TestFuzzChunkGrid(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(64)) // the default chunk size
	planCombos := []struct {
		label string
		opts  plan.Options
	}{
		{"default", plan.Options{}},
		{"nocse", plan.Options{DisableCSE: true}},
		{"nonarrow", plan.Options{DisableNarrowing: true}},
		{"nocse+nonarrow", plan.Options{DisableCSE: true, DisableNarrowing: true}},
	}
	for trial := 0; trial < trials; trial++ {
		s := randomSpace(rng)
		for _, pc := range planCombos {
			prog, err := plan.Compile(s, pc.opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pc.label, err)
			}
			comp, err := NewCompiled(prog)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pc.label, err)
			}
			want, wantStats, err := CollectTuples(comp, 0)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pc.label, err)
			}
			if wantStats.TotalVisits() > 500_000 {
				continue
			}
			innerVisits := wantStats.LoopVisits[len(wantStats.LoopVisits)-1]
			for _, chunk := range []int{1, 8, 64} {
				for _, e := range []Engine{comp, NewInterp(prog), NewVM(prog)} {
					label := fmt.Sprintf("trial %d %s %s chunk=%d", trial, pc.label, e.Name(), chunk)
					got, st, err := collectChunked(e, chunk)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d tuples, want %d\nspace:\n%s",
							label, len(got), len(want), prog.Describe())
					}
					assertChunkAgrees(t, st, wantStats, label, prog)
					if chunk > 1 && innerVisits > 0 && st.ChunksEvaluated == 0 {
						t.Fatalf("%s: chunked run evaluated no chunks (fell back to scalar)\nspace:\n%s",
							label, prog.Describe())
					}
					if chunk == 1 && st.ChunksEvaluated+st.LanesMasked != 0 {
						t.Fatalf("%s: scalar run counted chunks (%d) or masked lanes (%d)",
							label, st.ChunksEvaluated, st.LanesMasked)
					}
					st4, err := e.Run(Options{Workers: 4, ChunkSize: chunk})
					if err != nil {
						t.Fatalf("%s workers=4: %v", label, err)
					}
					assertChunkAgrees(t, st4, wantStats, label+" workers=4", prog)
				}
			}
		}
	}
}

// TestChunkFoldedStringCheck: with folding off, an innermost check that
// compares a string setting still folds at plan time, so the check reads
// only ints and every backend runs the innermost loop in chunks, with the
// survivors and counters of its scalar run.
func TestChunkFoldedStringCheck(t *testing.T) {
	s := space.New()
	s.StrSetting("mode", "nn")
	s.Range("i", expr.IntLit(0), expr.IntLit(10))
	s.Range("j", expr.IntLit(0), expr.IntLit(10))
	s.Constrain("modecheck", space.Hard,
		expr.And(expr.Eq(expr.NewRef("mode"), expr.StrLit("nn")), expr.Gt(expr.NewRef("j"), expr.IntLit(4))))
	// DisableReorder pins the declared nest and DisableNarrowing keeps the
	// folded j > 4 a check: the test needs it in the innermost loop body.
	prog, engines := compileAll(t, s, verified(plan.Options{DisableFolding: true, DisableReorder: true, DisableNarrowing: true}))
	inner := prog.Loops[len(prog.Loops)-1]
	found := false
	for _, st := range inner.Steps {
		if st.Kind != plan.CheckStep || st.Constraint.Name != "modecheck" {
			continue
		}
		found = true
		deps := map[string]struct{}{}
		st.Expr.CollectDeps(deps)
		if _, ok := deps["mode"]; ok || !st.Vec {
			t.Fatalf("innermost check %s still reads mode or is not chunked (Vec %v)", st.Expr, st.Vec)
		}
	}
	if !found {
		t.Fatalf("modecheck is not in the innermost loop %s\n%s", inner.Iter.Name, prog.Describe())
	}
	for _, e := range engines {
		want, wantStats, err := collect(e, Options{ChunkSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := collectChunked(e, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: chunked run changed survivors: %d vs %d", e.Name(), len(got), len(want))
		}
		assertChunkAgrees(t, st, wantStats, e.Name()+" folded string check", prog)
		if st.ChunksEvaluated == 0 {
			t.Fatalf("%s: the innermost loop ran scalar", e.Name())
		}
	}
}

// TestChunkHostGrid pins the chunked host branches: testSpace's innermost
// loop carries the deferred odd_total check, and under the reordered nest
// (a,b,e,c,d) it is also a closure iterator. Every backend's chunked runs,
// complete and stopped at each Limit, must match its own ChunkSize 1 run
// on survivors, visits, checks, kills and temp counters.
func TestChunkHostGrid(t *testing.T) {
	planCombos := []struct {
		label string
		opts  plan.Options
	}{
		{"default", plan.Options{}},
		{"noreorder", plan.Options{DisableReorder: true}},
		{"nocse+nonarrow", plan.Options{DisableCSE: true, DisableNarrowing: true}},
	}
	for _, pc := range planCombos {
		prog, engines := compileAll(t, testSpace(t), pc.opts)
		inner := prog.Loops[len(prog.Loops)-1]
		hostCheck := false
		for _, st := range inner.Steps {
			hostCheck = hostCheck || (st.Kind == plan.CheckStep && st.Constraint.Deferred())
		}
		if !hostCheck || prog.Vector == nil {
			t.Fatalf("%s: innermost loop %s lost its chunked host check\n%s",
				pc.label, inner.Iter.Name, prog.Describe())
		}
		for _, e := range engines {
			for _, limit := range []int64{0, 1, 3, 7, 50, 271} {
				want, wantStats, err := collect(e, Options{ChunkSize: 1, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				for _, chunk := range []int{8, 64} {
					label := fmt.Sprintf("%s %s chunk=%d limit=%d", pc.label, e.Name(), chunk, limit)
					got, st, err := collect(e, Options{ChunkSize: chunk, Limit: limit})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
					}
					requireStatsEqual(t, label, st, wantStats)
					if !reflect.DeepEqual(st.TempEvals, wantStats.TempEvals) ||
						!reflect.DeepEqual(st.TempHits, wantStats.TempHits) {
						t.Fatalf("%s: temp counters diverge: %v/%v want %v/%v",
							label, st.TempEvals, st.TempHits, wantStats.TempEvals, wantStats.TempHits)
					}
					if st.Stopped != wantStats.Stopped {
						t.Fatalf("%s: Stopped=%v want %v", label, st.Stopped, wantStats.Stopped)
					}
					if st.ChunksEvaluated == 0 {
						t.Fatalf("%s: chunked run evaluated no chunks", label)
					}
					if limit != 0 {
						continue
					}
					st4, err := e.Run(Options{ChunkSize: chunk, Workers: 4})
					if err != nil {
						t.Fatalf("%s workers=4: %v", label, err)
					}
					assertChunkAgrees(t, st4, wantStats, label+" workers=4", prog)
				}
			}
		}
	}
}

// collect runs e sequentially under opts and returns a copy of every
// delivered tuple.
func collect(e Engine, opts Options) ([][]int64, *Stats, error) {
	var out [][]int64
	opts.OnTuple = func(tu []int64) bool {
		out = append(out, append([]int64(nil), tu...))
		return true
	}
	st, err := e.Run(opts)
	return out, st, err
}
