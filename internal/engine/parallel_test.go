package engine

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// parallelTestSpace is a 4-deep nest with prefix-level derived values and
// constraints at several depths, so both the tiler and the workers have
// real work at every level.
func parallelTestSpace(t *testing.T) *plan.Program {
	t.Helper()
	s := space.New()
	s.IntSetting("lim", 9)
	s.Range("a", expr.IntLit(0), expr.IntLit(7))
	s.Range("b", expr.IntLit(0), expr.NewRef("lim"))
	s.Range("c", expr.IntLit(0), expr.IntLit(6))
	s.Range("d", expr.IntLit(0), expr.IntLit(5))
	s.Derived("da", expr.Mul(expr.NewRef("a"), expr.IntLit(10)))
	s.Derived("dab", expr.Add(expr.NewRef("da"), expr.NewRef("b")))
	s.Constrain("skew", space.Hard,
		expr.And(expr.Gt(expr.NewRef("a"), expr.IntLit(1)), expr.Gt(expr.NewRef("b"), expr.IntLit(2))))
	s.Constrain("mid", space.Soft,
		expr.Eq(expr.Mod(expr.Add(expr.NewRef("c"), expr.NewRef("dab")), expr.IntLit(3)), expr.IntLit(0)))
	s.Constrain("inner", space.Correctness,
		expr.Gt(expr.Add(expr.NewRef("d"), expr.NewRef("c")), expr.IntLit(8)))
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func allBackends(t *testing.T, prog *plan.Program) []Engine {
	t.Helper()
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{NewInterp(prog), NewVM(prog), comp}
}

func requireStatsEqual(t *testing.T, label string, got, want *Stats) {
	t.Helper()
	if got.Survivors != want.Survivors ||
		!reflect.DeepEqual(got.LoopVisits, want.LoopVisits) ||
		!reflect.DeepEqual(got.Checks, want.Checks) ||
		!reflect.DeepEqual(got.Kills, want.Kills) {
		t.Fatalf("%s: stats diverge\nsurvivors %d want %d\nvisits %v want %v\nchecks %v want %v\nkills %v want %v",
			label, got.Survivors, want.Survivors, got.LoopVisits, want.LoopVisits,
			got.Checks, want.Checks, got.Kills, want.Kills)
	}
}

// TestSharedLimitAcrossWorkers is the Options.Limit overcount regression:
// the survivor countdown is shared, so a parallel run reports exactly
// min(Limit, survivors) no matter how many workers race — never
// Workers x Limit — and Stopped is deterministic.
func TestSharedLimitAcrossWorkers(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		seq, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Survivors < 20 {
			t.Fatalf("test space too small: %d survivors", seq.Survivors)
		}
		for _, workers := range []int{2, 3, 8} {
			// Limit below the survivor count: exact, and Stopped.
			st, err := e.Run(Options{Workers: workers, Limit: 10})
			if err != nil {
				t.Fatal(err)
			}
			if st.Survivors != 10 {
				t.Fatalf("%s workers=%d: survivors=%d want exactly 10 (shared countdown)",
					e.Name(), workers, st.Survivors)
			}
			if !st.Stopped {
				t.Fatalf("%s workers=%d: limited run not marked Stopped", e.Name(), workers)
			}
			// Limit above the survivor count: the limit is invisible.
			st, err = e.Run(Options{Workers: workers, Limit: seq.Survivors + 100})
			if err != nil {
				t.Fatal(err)
			}
			requireStatsEqual(t, fmt.Sprintf("%s workers=%d loose limit", e.Name(), workers), st, seq)
			if st.Stopped {
				t.Fatalf("%s workers=%d: unreached limit marked Stopped", e.Name(), workers)
			}
			// Limit exactly at the survivor count: full set, Stopped set
			// (the last claim consumed the final slot).
			st, err = e.Run(Options{Workers: workers, Limit: seq.Survivors})
			if err != nil {
				t.Fatal(err)
			}
			if st.Survivors != seq.Survivors || !st.Stopped {
				t.Fatalf("%s workers=%d: exact limit gave survivors=%d stopped=%v",
					e.Name(), workers, st.Survivors, st.Stopped)
			}
		}
	}
}

// TestEarlyStopCancelsWorkers is the early-stop leakage regression: when
// one worker's OnTuple returns false, the cancellation token must reach
// every other worker promptly. Since the callback always returns false,
// each worker can deliver at most one tuple before it observes the stop —
// so calls are bounded by the worker count, and the enumeration visits a
// small fraction of the space.
func TestEarlyStopCancelsWorkers(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		full, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		var calls atomic.Int64
		st, err := e.Run(Options{
			Workers: workers,
			OnTuple: func([]int64) bool {
				calls.Add(1)
				return false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n < 1 || n > workers {
			t.Fatalf("%s: OnTuple called %d times; want 1..%d (leaked past cancellation)",
				e.Name(), n, workers)
		}
		if st.Survivors != calls.Load() {
			t.Fatalf("%s: survivors=%d but callback ran %d times", e.Name(), st.Survivors, calls.Load())
		}
		if !st.Stopped {
			t.Fatalf("%s: early-stopped run not marked Stopped", e.Name())
		}
		if st.TotalVisits() >= full.TotalVisits()/2 {
			t.Fatalf("%s: early stop visited %d of %d — workers ran on after cancellation",
				e.Name(), st.TotalVisits(), full.TotalVisits())
		}
	}
}

// TestSplitDepthEquivalence pins the "resume from fixed prefix" entry
// points: every explicit tiling depth, including complete-tuple tiles
// (K = len(Loops)), must reproduce the sequential statistics exactly on
// every backend.
func TestSplitDepthEquivalence(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		seq, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for depth := 1; depth <= len(prog.Loops); depth++ {
			st, err := e.Run(Options{Workers: 4, SplitDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			requireStatsEqual(t, fmt.Sprintf("%s split-depth=%d", e.Name(), depth), st, seq)
			if st.SplitDepth != depth {
				t.Fatalf("%s: Stats.SplitDepth=%d want %d", e.Name(), st.SplitDepth, depth)
			}
			if st.Tiles <= 0 {
				t.Fatalf("%s split-depth=%d: Stats.Tiles=%d", e.Name(), depth, st.Tiles)
			}
		}
	}
}

// TestParallelTupleSetMatches verifies the parallel run delivers exactly
// the sequential tuple set (order differs; the set must not).
func TestParallelTupleSetMatches(t *testing.T) {
	prog := parallelTestSpace(t)
	collect := func(e Engine, opts Options) [][]int64 {
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
		if _, err := e.Run(opts); err != nil {
			t.Fatal(err)
		}
		sort.Slice(tuples, func(i, j int) bool {
			for k := range tuples[i] {
				if tuples[i][k] != tuples[j][k] {
					return tuples[i][k] < tuples[j][k]
				}
			}
			return false
		})
		return tuples
	}
	for _, e := range allBackends(t, prog) {
		want := collect(e, Options{})
		got := collect(e, Options{Workers: 4})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: parallel tuple set diverges (%d vs %d tuples)", e.Name(), len(got), len(want))
		}
	}
}

// tupleLog is the state of one per-worker callback: the tuples it was
// handed and how often it was entered while already in use. busy is
// deliberately unsynchronized, so two goroutines inside add at once are a
// data race the race detector reports, besides the overlap add may see.
type tupleLog struct {
	busy     bool
	overlaps int
	tuples   [][]int64
}

func (l *tupleLog) add(tu []int64) bool {
	if l.busy {
		l.overlaps++
	}
	l.busy = true
	l.tuples = append(l.tuples, append([]int64(nil), tu...))
	l.busy = false
	return true
}

// midSnapshot runs a sweep checkpointed after every tile and returns the
// first snapshot that covers at least half of the tiles, as a resume state.
func midSnapshot(t *testing.T, e Engine) *ResumeState {
	t.Helper()
	var mid *Snapshot
	_, err := e.Run(Options{Workers: 2, Checkpoint: &CheckpointConfig{EveryTiles: 1, OnSnapshot: func(s *Snapshot) error {
		if mid == nil && 2*s.Completed >= s.Tiles {
			mid = snapshotCopy(s)
		}
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if mid == nil || mid.Completed == mid.Tiles {
		t.Fatalf("%s: no mid-run snapshot (got %+v)", e.Name(), mid)
	}
	return &ResumeState{SplitDepth: mid.SplitDepth, Tiles: mid.Tiles, Done: mid.Done, TileStats: mid.TileStats}
}

// TestNewOnTupleContract pins Options.NewOnTuple on every backend, at one
// and four workers, scalar and chunked, in a plain run, a run
// checkpointed after every tile, and a run resumed from a mid-run
// snapshot. No function it makes is entered by two goroutines, at most
// max(1, Workers) are made, their calls sum to the survivors the run
// delivered, and they receive the set an OnTuple run delivers. Setting
// both callbacks is an error.
func TestNewOnTupleContract(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		both := Options{OnTuple: func([]int64) bool { return true }, NewOnTuple: func() func([]int64) bool { return nil }}
		if st, err := e.Run(both); err == nil || st != nil {
			t.Errorf("%s: a run with OnTuple and NewOnTuple returned %v, %v; want an error", e.Name(), st, err)
		}
		resume := midSnapshot(t, e)
		for _, workers := range []int{1, 4} {
			for _, chunk := range []int{1, 64} {
				for _, mode := range []string{"plain", "checkpoint", "resume"} {
					label := fmt.Sprintf("%s workers=%d chunk=%d %s", e.Name(), workers, chunk, mode)
					opts := Options{Workers: workers, ChunkSize: chunk}
					var already int64 // survivors the resumed snapshot delivered
					switch mode {
					case "checkpoint":
						opts.Checkpoint = &CheckpointConfig{EveryTiles: 1, OnSnapshot: func(*Snapshot) error { return nil }}
					case "resume":
						opts.Resume = resume
						already = resume.TileStats.Survivors
					}

					var mu sync.Mutex
					var want [][]int64
					ref := opts
					ref.OnTuple = func(tu []int64) bool {
						mu.Lock()
						want = append(want, append([]int64(nil), tu...))
						mu.Unlock()
						return true
					}
					if _, err := e.Run(ref); err != nil {
						t.Fatalf("%s: OnTuple run: %v", label, err)
					}

					var logs []*tupleLog
					opts.NewOnTuple = func() func([]int64) bool {
						l := &tupleLog{}
						mu.Lock()
						logs = append(logs, l)
						mu.Unlock()
						return l.add
					}
					st, err := e.Run(opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(logs) > max(1, workers) {
						t.Errorf("%s: %d functions made, want at most %d", label, len(logs), max(1, workers))
					}
					var got [][]int64
					for _, l := range logs {
						if l.overlaps > 0 {
							t.Errorf("%s: a function was entered %d times while in use", label, l.overlaps)
						}
						got = append(got, l.tuples...)
					}
					if int64(len(got)) != st.Survivors-already {
						t.Errorf("%s: %d calls, but the run delivered %d survivors", label, len(got), st.Survivors-already)
					}
					sortTuples(got)
					sortTuples(want)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: per-worker functions got %d tuples, OnTuple %d; the sets differ", label, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestParallelEdgeSpaces covers the degenerate tilings: empty outermost
// domain, empty inner domain, a single-tuple space, and a
// prelude-rejected space, all at Workers: 8.
func TestParallelEdgeSpaces(t *testing.T) {
	cases := []struct {
		name  string
		build func() *space.Space
	}{
		{"empty-outer", func() *space.Space {
			s := space.New()
			s.Range("a", expr.IntLit(0), expr.IntLit(0))
			s.Range("b", expr.IntLit(0), expr.IntLit(5))
			return s
		}},
		{"empty-inner", func() *space.Space {
			s := space.New()
			s.Range("a", expr.IntLit(0), expr.IntLit(5))
			s.Range("b", expr.NewRef("a"), expr.NewRef("a"))
			return s
		}},
		{"single-tuple", func() *space.Space {
			s := space.New()
			s.IntList("a", 3)
			s.IntList("b", 7)
			return s
		}},
		{"prelude-rejected", func() *space.Space {
			s := space.New()
			s.IntSetting("cap", 4)
			s.Range("a", expr.IntLit(0), expr.IntLit(5))
			s.Range("b", expr.IntLit(0), expr.IntLit(5))
			// Depends only on the setting, so it hoists to the prelude and
			// rejects everything.
			s.Constrain("impossible", space.Hard, expr.Lt(expr.NewRef("cap"), expr.IntLit(100)))
			return s
		}},
	}
	for _, tc := range cases {
		prog, err := plan.Compile(tc.build(), plan.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, e := range allBackends(t, prog) {
			seq, err := e.Run(Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, e.Name(), err)
			}
			for _, opts := range []Options{
				{Workers: 8},
				{Workers: 8, SplitDepth: 1},
				{Workers: 8, SplitDepth: len(prog.Loops)},
			} {
				st, err := e.Run(opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.name, e.Name(), err)
				}
				requireStatsEqual(t,
					fmt.Sprintf("%s/%s split-depth=%d", tc.name, e.Name(), opts.SplitDepth), st, seq)
			}
		}
	}
}

// TestScheduleMetadata checks the Stats schedule fields: sequential runs
// leave them zero; parallel runs report the realized tiling, and Merge
// does not corrupt them.
func TestScheduleMetadata(t *testing.T) {
	prog := parallelTestSpace(t)
	comp, err := NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := comp.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.SplitDepth != 0 || seq.Tiles != 0 {
		t.Fatalf("sequential run reported schedule metadata: depth=%d tiles=%d", seq.SplitDepth, seq.Tiles)
	}
	par, err := comp.Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.SplitDepth < 1 || par.Tiles < 4 {
		t.Fatalf("parallel run schedule metadata: depth=%d tiles=%d", par.SplitDepth, par.Tiles)
	}
}

// TestPrefixDerivedReplay pins the worker-side replay of prefix-level
// assignments: a derived value computed at a tiled depth feeds a
// constraint below the split, so a worker that failed to replay it would
// mis-prune.
func TestPrefixDerivedReplay(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(6))
	s.Range("b", expr.IntLit(0), expr.IntLit(6))
	s.Range("c", expr.IntLit(0), expr.IntLit(6))
	s.Derived("da", expr.Mul(expr.NewRef("a"), expr.IntLit(7)))
	s.Derived("db", expr.Add(expr.NewRef("da"), expr.NewRef("b")))
	s.Constrain("deep", space.Hard,
		expr.Eq(expr.Mod(expr.Add(expr.NewRef("db"), expr.NewRef("c")), expr.IntLit(5)), expr.IntLit(0)))
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allBackends(t, prog) {
		seq, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for depth := 1; depth <= 2; depth++ {
			st, err := e.Run(Options{Workers: 4, SplitDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			requireStatsEqual(t, fmt.Sprintf("%s replay depth=%d", e.Name(), depth), st, seq)
		}
	}
}
