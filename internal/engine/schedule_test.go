package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/families"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/space"
)

// rangesSpace declares one range per size, named a, b, c, ... in order,
// with no constraint.
func rangesSpace(sizes ...int64) *space.Space {
	s := space.New()
	for i, n := range sizes {
		s.Range(string(rune('a'+i)), expr.IntLit(0), expr.IntLit(n))
	}
	return s
}

// TestAutoSchedule pins the automatic schedule genTiles realizes
// (Stats.SplitDepth and Stats.Tiles): the workload families at the worker
// counts beastbench and the CLI use, and small range shapes that exercise
// each clause of the rule. A tiled run builds at least one level, even a
// checkpointed one on one worker whose first level carries little work,
// and at least one tile per worker while levels remain; it then descends
// while it has fewer than tileTarget tiles per worker and one tile of the
// next level carries at least minTileWork estimated visits.
func TestAutoSchedule(t *testing.T) {
	type sched struct{ workers, depth, tiles int }
	type tcase struct {
		name  string
		build func() (*space.Space, error)
		want  []sched
	}
	ranges := func(sizes ...int64) func() (*space.Space, error) {
		return func() (*space.Space, error) { return rangesSpace(sizes...), nil }
	}
	cases := []tcase{
		// Each GEMM variant's level 1 holds 32 tiles whose largest carries
		// a third of the survivors; the rule splits one or two levels more.
		{"gemm/dgemm_nn/32", func() (*space.Space, error) { return families.GEMM("dgemm_nn", 32) },
			[]sched{{2, 2, 112}, {4, 3, 281}}},
		{"stencil/129/4", func() (*space.Space, error) { return families.Stencil(129, 4) },
			[]sched{{2, 1, 128}, {4, 1, 128}}},
		{"stencil/257/8", func() (*space.Space, error) { return families.Stencil(257, 8) },
			[]sched{{2, 1, 256}, {4, 1, 256}}},
		// Level 1 is always built, even where its tiles carry little work.
		{"ranges/10-10-10", ranges(10, 10, 10), []sched{{1, 1, 10}, {2, 1, 10}, {8, 1, 10}}},
		{"ranges/5", ranges(5), []sched{{1, 1, 5}, {2, 1, 5}, {8, 1, 5}}},
		// Too few tiles for the pool: descend whatever the floor says.
		{"ranges/4-4-4", ranges(4, 4, 4), []sched{{2, 1, 4}, {8, 2, 16}}},
		{"ranges/2-2-2", ranges(2, 2, 2), []sched{{2, 1, 2}, {8, 3, 8}}},
		{"ranges/3-100", ranges(3, 100), []sched{{2, 1, 3}, {4, 2, 300}}},
		// Past the floor, descend until tileTarget tiles per worker.
		{"ranges/4-8-64-64", ranges(4, 8, 64, 64), []sched{{2, 2, 32}, {8, 2, 32}}},
		{"ranges/16-16-64-64", ranges(16, 16, 64, 64), []sched{{2, 2, 256}, {8, 2, 256}}},
		{"ranges/64-64-64-64", ranges(64, 64, 64, 64), []sched{{2, 1, 64}, {4, 2, 4096}}},
		// An empty level ends tiling; a loop-free program is never tiled.
		{"ranges/0-9", ranges(0, 9), []sched{{2, 1, 0}}},
		{"no-loops", ranges(), []sched{{2, 0, 0}}},
	}
	// Level 1 holds 16 tiles, and a level-2 tile would carry only the 16
	// values of the innermost loop, so the work floor holds the dense specs
	// at level 1. The rule before this one, which read cc = range(bb, n)
	// as the default 8 values instead of about n, split them to level 2
	// with 12,352-31,011 tiles at 4 workers.
	for _, n := range []int64{1024, 1536, 2048, 2560} {
		cases = append(cases, tcase{fmt.Sprintf("dense/%d", n), func() (*space.Space, error) { return families.Dense(n) },
			[]sched{{2, 1, 16}, {4, 1, 16}}})
	}
	// The smallest batched spaces stay at level 1 at 2 workers; their
	// depth-2 tiles would carry under 100 estimated visits each.
	for n, tiles := range map[int64]int{8: 8, 9: 9, 10: 10, 11: 2, 12: 12, 13: 2, 14: 14, 15: 15} {
		cases = append(cases, tcase{fmt.Sprintf("batched/%d", n), func() (*space.Space, error) { return families.Batched(n) },
			[]sched{{2, 1, tiles}}})
	}
	for _, tc := range cases {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		comp, err := NewCompiled(mustCompile(t, s))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range tc.want {
			// The schedule is fixed before the pool starts, so a pool run
			// may stop at its first survivor.
			opts := Options{Workers: w.workers, ChunkSize: 64, Limit: 1}
			if w.workers == 1 {
				opts = Options{Checkpoint: &CheckpointConfig{}}
			}
			st, err := comp.Run(opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w.workers, err)
			}
			if st.SplitDepth != w.depth || st.Tiles != w.tiles {
				t.Errorf("%s workers=%d: depth %d with %d tiles, want depth %d with %d",
					tc.name, w.workers, st.SplitDepth, st.Tiles, w.depth, w.tiles)
			}
		}
	}
}

// TestAutoScheduleMatchesNaive applies the planner-free enumerator where
// the tile rule decides: the automatic schedule at 2, 4 and 8 workers,
// plain and with a checkpoint that snapshots every tile, on every backend.
// The survivor set must equal naive.Survivors' and every counter the
// sequential run's. The range space descends past level 1 (its level-2
// tiles carry 4,096 estimated visits each); the work floor holds the
// dense space at level 1.
func TestAutoScheduleMatchesNaive(t *testing.T) {
	skewed := rangesSpace(4, 8, 64, 64)
	skewed.Constrain("skew", space.Hard,
		expr.And(expr.Eq(expr.NewRef("a"), expr.IntLit(3)), expr.Gt(expr.NewRef("b"), expr.IntLit(3))))
	skewed.Constrain("inner", space.Soft,
		expr.Ne(expr.Mod(expr.Add(expr.Mul(expr.NewRef("c"), expr.NewRef("d")), expr.Add(expr.NewRef("a"), expr.NewRef("b"))), expr.IntLit(7)), expr.IntLit(0)))
	dense, err := families.Dense(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		s     *space.Space
		depth int
	}{
		{"ranges/4-8-64-64", skewed, 2},
		{"dense/256", dense, 1},
	} {
		want := naive.Survivors(t, tc.s)
		prog := mustCompile(t, tc.s)
		for _, e := range allBackends(t, prog) {
			seq, err := e.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				for _, ckpt := range []bool{false, true} {
					label := fmt.Sprintf("%s %s workers=%d checkpoint=%v", tc.name, e.Name(), workers, ckpt)
					opts := Options{Workers: workers, ChunkSize: 64}
					snaps := 0
					if ckpt {
						// OnSnapshot runs under the tracker's exclusive gate.
						opts.Checkpoint = &CheckpointConfig{EveryTiles: 1, OnSnapshot: func(*Snapshot) error { snaps++; return nil }}
					}
					got, st := collectCanon(t, e, opts, label)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d survivors, naive enumeration %d", label, len(got), len(want))
					}
					assertChunkAgrees(t, st, seq, label, prog)
					if st.SplitDepth != tc.depth {
						t.Errorf("%s: split depth %d, want %d", label, st.SplitDepth, tc.depth)
					}
					if ckpt && snaps != st.Tiles {
						t.Errorf("%s: %d snapshots for %d tiles", label, snaps, st.Tiles)
					}
				}
			}
		}
	}
}

// TestResumeDepth1GEMMCheckpoint resumes a GEMM checkpoint taken at depth 1
// with 32 tiles, the schedule 2 workers used to get, under the automatic
// rule, which now picks depth 2 for a fresh run: the snapshot's depth wins,
// and the resumed run ends with the clean run's counters.
func TestResumeDepth1GEMMCheckpoint(t *testing.T) {
	s, err := families.GEMM("dgemm_nn", 32)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewCompiled(mustCompile(t, s))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := comp.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mid *Snapshot
	_, err = comp.Run(Options{Workers: 2, ChunkSize: 64, SplitDepth: 1, Checkpoint: &CheckpointConfig{EveryTiles: 1,
		OnSnapshot: func(s *Snapshot) error {
			if mid == nil && 2*s.Completed >= s.Tiles {
				mid = snapshotCopy(s)
			}
			return nil
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if mid == nil || mid.SplitDepth != 1 || mid.Tiles != 32 || mid.Completed == mid.Tiles {
		t.Fatalf("no mid-run depth-1 snapshot (got %+v)", mid)
	}
	st, err := comp.Run(Options{Workers: 2, ChunkSize: 64,
		Resume: &ResumeState{SplitDepth: mid.SplitDepth, Tiles: mid.Tiles, Done: mid.Done, TileStats: mid.TileStats}})
	if err != nil {
		t.Fatal(err)
	}
	requireStatsEqual(t, "resumed depth-1 checkpoint", st, clean)
	if st.SplitDepth != 1 || st.Tiles != 32 {
		t.Fatalf("resumed at depth %d with %d tiles, want the snapshot's depth 1 with 32", st.SplitDepth, st.Tiles)
	}
}

// tileShares returns, for k = 1..maxDepth (at most 4), the share of prog's
// survivors that its largest depth-k prefix tile holds: survivors grouped
// by the values of the first k loops in nest order. A checkpointed worker logs
// one tile's survivors until the tile commits, and the pool cannot
// finish before its largest tile, so these shares bound both.
func tileShares(t *testing.T, prog *plan.Program, maxDepth int) []float64 {
	t.Helper()
	decl := make(map[string]int)
	for i, name := range prog.TupleNames() {
		decl[name] = i
	}
	pos := make([]int, maxDepth)
	for k, name := range prog.IterNames()[:maxDepth] {
		pos[k] = decl[name]
	}
	type prefix [4]int64
	counts := make([]map[prefix]int64, maxDepth)
	for k := range counts {
		counts[k] = make(map[prefix]int64)
	}
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := comp.Run(Options{OnTuple: func(tu []int64) bool {
		var p prefix
		for k, i := range pos {
			p[k] = tu[i]
			counts[k][p]++
		}
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]float64, maxDepth)
	for k, m := range counts {
		for _, n := range m {
			shares[k] = max(shares[k], float64(n)/float64(st.Survivors))
		}
	}
	return shares
}

// TestAutoScheduleTileShare measures the largest tile's share of the
// survivors at the depths the automatic rule picks at 2 workers (pinned
// by TestAutoSchedule). On every GEMM variant
// the rule's level-2 tiles hold a smaller largest share than the level-1
// tiles the rule before it stopped at; the stencil and dense specs, whose
// schedule is level 1 either way, are logged beside them.
func TestAutoScheduleTileShare(t *testing.T) {
	if testing.Short() {
		t.Skip("20 full sweeps")
	}
	for _, name := range families.GEMMNames() {
		s, err := families.GEMM(name, 32)
		if err != nil {
			t.Fatal(err)
		}
		shares := tileShares(t, mustCompile(t, s), 2)
		t.Logf("%s: largest tile holds %.1f%% of the survivors at depth 1, %.1f%% at depth 2",
			name, 100*shares[0], 100*shares[1])
		if shares[1] >= shares[0] || shares[1] > 0.3 {
			t.Errorf("%s: largest depth-2 tile holds %.3f of the survivors (depth 1: %.3f)", name, shares[1], shares[0])
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (*space.Space, error)
	}{
		{"stencil/129/4", func() (*space.Space, error) { return families.Stencil(129, 4) }},
		{"stencil/257/8", func() (*space.Space, error) { return families.Stencil(257, 8) }},
		{"dense/1024", func() (*space.Space, error) { return families.Dense(1024) }},
		{"dense/2560", func() (*space.Space, error) { return families.Dense(2560) }},
	} {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: largest depth-1 tile holds %.1f%% of the survivors", tc.name, 100*tileShares(t, mustCompile(t, s), 1)[0])
	}
}
