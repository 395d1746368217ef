package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/families"
	"repro/internal/plan"
	"repro/internal/space"
)

// sortTuples orders a tuple set lexicographically so delivery order (which
// is nondeterministic under workers > 1) drops out of comparisons.
func sortTuples(ts [][]int64) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// TestRunContextCancelMidRun drives every backend at workers 1 and 8 under
// a context that expires mid-enumeration: the run must stop early, return
// the context's error, and mark the partial Stats as Cancelled rather than
// Stopped.
func TestRunContextCancelMidRun(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		clean, err := e.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s workers=%d", e.Name(), workers)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			// Each survivor costs ~2ms, so the full sweep (>=20 survivors)
			// cannot finish inside the deadline no matter the scheduling.
			st, err := e.RunContext(ctx, Options{
				Workers: workers,
				OnTuple: func([]int64) bool { time.Sleep(2 * time.Millisecond); return true },
			})
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: err = %v, want context.DeadlineExceeded", label, err)
			}
			if st == nil || !st.Cancelled {
				t.Fatalf("%s: cancelled run returned st=%+v, want partial stats with Cancelled", label, st)
			}
			if st.Stopped {
				t.Fatalf("%s: cancelled run also marked Stopped", label)
			}
			if st.TotalVisits() >= clean.TotalVisits() {
				t.Fatalf("%s: cancelled run visited %d of %d — no early exit",
					label, st.TotalVisits(), clean.TotalVisits())
			}
		}
	}
}

// TestRunContextExplicitCancel covers caller-side cancellation (as opposed
// to a deadline): cancel() fired from inside OnTuple surfaces as
// context.Canceled.
func TestRunContextExplicitCancel(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s workers=%d", e.Name(), workers)
			ctx, cancel := context.WithCancel(context.Background())
			var n atomic.Int64
			st, err := e.RunContext(ctx, Options{
				Workers: workers,
				OnTuple: func([]int64) bool {
					if n.Add(1) == 3 {
						cancel()
					}
					return true
				},
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", label, err)
			}
			if st == nil || !st.Cancelled {
				t.Fatalf("%s: cancelled run did not set Stats.Cancelled", label)
			}
		}
	}
}

// tileCounter wraps a backend and counts the tiles its pool workers start.
type tileCounter struct {
	backend
	starts atomic.Int64
}

func (b *tileCounter) newWorker(opts Options, ctl *runCtl, depth int, leaf func(int64)) (tileWorker, error) {
	w, err := b.backend.newWorker(opts, ctl, depth, leaf)
	if err != nil || leaf != nil {
		return w, err
	}
	return countedWorker{w, &b.starts}, nil
}

type countedWorker struct {
	tileWorker
	starts *atomic.Int64
}

func (w countedWorker) runTile(prefix []int64) error {
	w.starts.Add(1)
	return w.tileWorker.runTile(prefix)
}

// TestRunContextCancelReachesWorkers: a cancellation reaches busy workers
// at their next tile or delivery, without waiting for the goroutine
// context.AfterFunc starts, which needs a free P while every P runs a
// worker. The delivery callback cancels at call k. Once cancel returns, a
// run without a checkpoint delivers at most Workers × ChunkSize further
// survivors. With one, no worker claims a tile after the cancelling
// commit: at most the Workers-1 tiles the other workers claimed before it
// still start.
func TestRunContextCancelReachesWorkers(t *testing.T) {
	s, err := families.Dense(1024)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers, chunk, k = 2, 64, 20000
	for _, e := range allBackends(t, prog) {
		for _, ckpt := range []bool{false, true} {
			label := fmt.Sprintf("%s checkpoint=%v", e.Name(), ckpt)
			b := &tileCounter{backend: e.(backend)}
			ctx, cancel := context.WithCancel(context.Background())
			var calls, atCancel atomic.Int64
			var cancelled atomic.Bool
			opts := Options{
				Workers:    workers,
				ChunkSize:  chunk,
				SplitDepth: 2,
				NewOnTuple: func() func([]int64) bool {
					return func([]int64) bool {
						if calls.Add(1) == k {
							cancel()
							atCancel.Store(calls.Load())
							cancelled.Store(true)
						}
						return true
					}
				},
			}
			// Snapshots run one at a time, each after the commits it
			// covers, so the first to see the cancellation follows the
			// cancelling commit.
			startsAtCommit := int64(-1)
			if ckpt {
				opts.Checkpoint = &CheckpointConfig{EveryTiles: 1, OnSnapshot: func(*Snapshot) error {
					if startsAtCommit < 0 && cancelled.Load() {
						startsAtCommit = b.starts.Load()
					}
					return nil
				}}
			}
			st, err := runContext(ctx, prog, b, opts)
			cancel()
			if !errors.Is(err, context.Canceled) || st == nil || !st.Cancelled {
				t.Fatalf("%s: err = %v, want context.Canceled with Cancelled stats", label, err)
			}
			if !ckpt {
				if further := calls.Load() - atCancel.Load(); further > workers*chunk {
					t.Errorf("%s: %d deliveries after cancel returned, want at most %d", label, further, workers*chunk)
				}
				continue
			}
			if startsAtCommit < 0 {
				t.Fatalf("%s: no snapshot followed the cancelling commit", label)
			}
			if late := b.starts.Load() - startsAtCommit; late > workers-1 {
				t.Errorf("%s: %d tiles started after the cancelling commit, want at most %d", label, late, workers-1)
			}
		}
	}
}

// TestRunContextPreCancelled: a context that is already dead yields no
// enumeration work at all.
func TestRunContextPreCancelled(t *testing.T) {
	prog := parallelTestSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range allBackends(t, prog) {
		called := false
		st, err := e.RunContext(ctx, Options{Workers: 4, OnTuple: func([]int64) bool {
			called = true
			return true
		}})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", e.Name(), err)
		}
		if st != nil || called {
			t.Fatalf("%s: pre-cancelled context still enumerated (st=%v called=%v)", e.Name(), st, called)
		}
	}
}

// runWithin runs one enumeration on its own goroutine and fails the test if
// it has not returned within d, so a wedged run is reported instead of
// hanging the package until the test binary's timeout.
func runWithin(t *testing.T, label string, d time.Duration, run func() (*Stats, error)) (*Stats, error) {
	t.Helper()
	type result struct {
		st  *Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := run()
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		return r.st, r.err
	case <-time.After(d):
		t.Fatalf("%s: run did not return within %v", label, d)
		return nil, nil
	}
}

// TestWorkerPanicIsolated is the callback-panic regression: a panic thrown
// by Options.OnTuple, or by a function NewOnTuple made, inside a tile
// worker must not crash the process — the pool aborts and the run returns
// a *PanicError carrying the value. The checkpointed input throws the
// panic during a tile's transactional delivery, after the tile has run
// and before it commits.
func TestWorkerPanicIsolated(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		for _, workers := range []int{1, 8} {
			for _, ckpt := range []*CheckpointConfig{nil, {EveryTiles: 1, OnSnapshot: func(*Snapshot) error { return nil }}} {
				for _, perWorker := range []bool{false, true} {
					label := fmt.Sprintf("%s workers=%d checkpoint=%v per-worker=%v", e.Name(), workers, ckpt != nil, perWorker)
					var n atomic.Int64
					explode := func([]int64) bool {
						if n.Add(1) == 2 {
							panic("objective exploded")
						}
						return true
					}
					opts := Options{Workers: workers, Checkpoint: ckpt, OnTuple: explode}
					if perWorker {
						opts.OnTuple = nil
						opts.NewOnTuple = func() func([]int64) bool { return explode }
					}
					runPanicking(t, label, e, opts)
				}
			}
		}
	}
}

// runPanicking runs opts, whose callback panics with "objective
// exploded", and requires the run to return that panic as a *PanicError.
func runPanicking(t *testing.T, label string, e Engine, opts Options) {
	t.Helper()
	st, err := runWithin(t, label, 5*time.Second, func() (*Stats, error) { return e.Run(opts) })
	if st != nil {
		t.Fatalf("%s: panicking run returned stats", label)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: err = %v (%T), want *PanicError", label, err, err)
	}
	if pe.Val != "objective exploded" {
		t.Fatalf("%s: panic value %v, want the original", label, pe.Val)
	}
	if len(pe.Stack) == 0 {
		t.Fatalf("%s: PanicError lost the stack trace", label)
	}
}

// TestHostConstraintPanicIsolated is the same regression one layer deeper:
// the panic originates in a host-registered deferred constraint evaluated
// inside the nest, not in the tuple callback.
func TestHostConstraintPanicIsolated(t *testing.T) {
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(7))
	s.Range("b", expr.IntLit(0), expr.IntLit(7))
	s.DeferredConstraint("host", space.Soft, []string{"a", "b"},
		func(args []expr.Value) bool {
			if args[0].I == 5 && args[1].I == 5 {
				panic("host constraint fault")
			}
			return args[0].I+args[1].I < 12
		})
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allBackends(t, prog) {
		for _, workers := range []int{1, 8} {
			label := fmt.Sprintf("%s workers=%d", e.Name(), workers)
			st, err := e.Run(Options{Workers: workers})
			if st != nil {
				t.Fatalf("%s: panicking run returned stats", label)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: err = %v (%T), want *PanicError", label, err, err)
			}
			if pe.Val != "host constraint fault" {
				t.Fatalf("%s: panic value %v, want the original", label, pe.Val)
			}
		}
	}
}

// snapshotCopy deep-copies a Snapshot, as a file-backed checkpoint does
// when it saves one.
func snapshotCopy(s *Snapshot) *Snapshot {
	return &Snapshot{
		SplitDepth: s.SplitDepth,
		Tiles:      s.Tiles,
		Completed:  s.Completed,
		Done:       append([]uint64(nil), s.Done...),
		TileStats:  s.TileStats.Clone(),
	}
}

// TestCheckpointResumeRoundTrip is the determinism contract end to end:
// cancel a checkpointed sweep after k tiles (k fuzzed), resume from the
// last snapshot, and require the union of delivered tuples and the final
// counters to be bit-identical to an uninterrupted run — per backend, with
// workers > 1, and with the resume running under a different worker count
// than the interrupted leg.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	prog := parallelTestSpace(t)
	rng := rand.New(rand.NewSource(3))
	for _, e := range allBackends(t, prog) {
		clean, cleanStats, err := CollectTuples(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		sortTuples(clean)
		probe, err := e.Run(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if probe.Tiles < 4 {
			t.Fatalf("%s: test schedule has only %d tiles", e.Name(), probe.Tiles)
		}
		for _, workers := range []int{2, 4} {
			for trial := 0; trial < 3; trial++ {
				k := 1 + rng.Intn(probe.Tiles-1)
				label := fmt.Sprintf("%s workers=%d k=%d", e.Name(), workers, k)

				var mu sync.Mutex
				var last *Snapshot
				var delivered [][]int64
				collect := func(tu []int64) bool {
					mu.Lock()
					delivered = append(delivered, append([]int64(nil), tu...))
					mu.Unlock()
					return true
				}
				ctx, cancel := context.WithCancel(context.Background())
				_, err1 := e.RunContext(ctx, Options{
					Workers: workers,
					OnTuple: collect,
					Checkpoint: &CheckpointConfig{EveryTiles: 1, OnSnapshot: func(s *Snapshot) error {
						mu.Lock()
						last = snapshotCopy(s)
						mu.Unlock()
						if s.Completed >= k {
							cancel()
						}
						return nil
					}},
				})
				cancel()
				if err1 != nil && !errors.Is(err1, context.Canceled) {
					t.Fatalf("%s: interrupted leg failed: %v", label, err1)
				}
				if last == nil {
					t.Fatalf("%s: no snapshot was taken", label)
				}
				if got := len(delivered); got > 0 && last.Completed == 0 {
					t.Fatalf("%s: %d tuples delivered with zero tiles committed", label, got)
				}

				// Resume under a different worker count: the tile set comes
				// from the snapshot's split depth, so this must not matter.
				res := &ResumeState{
					SplitDepth: last.SplitDepth,
					Tiles:      last.Tiles,
					Done:       last.Done,
					TileStats:  last.TileStats,
				}
				st2, err2 := e.RunContext(context.Background(), Options{
					Workers: workers + 3,
					OnTuple: collect,
					Resume:  res,
				})
				if err2 != nil {
					t.Fatalf("%s: resume failed: %v", label, err2)
				}
				if st2.Cancelled || st2.Stopped {
					t.Fatalf("%s: resumed run flags cancelled=%v stopped=%v", label, st2.Cancelled, st2.Stopped)
				}
				sortTuples(delivered)
				if !reflect.DeepEqual(delivered, clean) {
					t.Fatalf("%s: interrupted+resumed delivered %d tuples, clean run %d — survivor sets differ",
						label, len(delivered), len(clean))
				}
				requireStatsEqual(t, label, st2, cleanStats)
				if !reflect.DeepEqual(st2.TempEvals, cleanStats.TempEvals) ||
					!reflect.DeepEqual(st2.TempHits, cleanStats.TempHits) {
					t.Fatalf("%s: resumed temp counters diverge: %v/%v want %v/%v",
						label, st2.TempEvals, st2.TempHits, cleanStats.TempEvals, cleanStats.TempHits)
				}
			}
		}
	}
}

// TestCheckpointSnapshotMatchesDelivery pins the snapshot rule: while
// OnSnapshot runs, the tuples delivered so far are exactly the survivors
// of the snapshot's committed tiles, because no worker is part-way between
// delivering a tile and committing it. Four workers and a slow OnTuple
// keep deliveries in flight whenever a commit makes a snapshot due. The
// OnTuple also appends to the row it is handed, which must not overwrite
// the next logged survivor: the delivered set must equal a plain run's.
func TestCheckpointSnapshotMatchesDelivery(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		clean, _, err := CollectTuples(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		sortTuples(clean)
		var delivered atomic.Int64
		var mu sync.Mutex
		var snaps, bad int
		var firstBad string
		var got [][]int64
		st, err := e.Run(Options{
			Workers: 4,
			OnTuple: func(tu []int64) bool {
				delivered.Add(1)
				// The row's capacity ends at its width, so append copies
				// it and the prefix kept below is this callback's own.
				tu = append(tu, -1)
				mu.Lock()
				got = append(got, tu[:len(tu)-1])
				mu.Unlock()
				time.Sleep(20 * time.Microsecond)
				return true
			},
			Checkpoint: &CheckpointConfig{EveryTiles: 1, OnSnapshot: func(s *Snapshot) error {
				d := delivered.Load()
				mu.Lock()
				defer mu.Unlock()
				snaps++
				if d != s.TileStats.Survivors {
					bad++
					if firstBad == "" {
						firstBad = fmt.Sprintf("snapshot %d: %d tuples delivered, %d committed over %d tiles",
							snaps, d, s.TileStats.Survivors, s.Completed)
					}
				}
				return nil
			}},
		})
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d snapshots disagree with delivery; first: %s", e.Name(), bad, snaps, firstBad)
		}
		if n := delivered.Load(); n != st.Survivors {
			t.Errorf("%s: delivered %d tuples, Stats.Survivors = %d", e.Name(), n, st.Survivors)
		}
		sortTuples(got)
		if !reflect.DeepEqual(got, clean) {
			t.Errorf("%s: checkpointed run delivered a different tuple set than a plain run", e.Name())
		}
	}
}

// TestResumeRejectsMismatchedPlan: a resume state whose tile geometry does
// not match the regenerated schedule must be refused, not silently merged:
// a wrong tile count, or a bitmap marking a tile past the last one done.
func TestResumeRejectsMismatchedPlan(t *testing.T) {
	prog := parallelTestSpace(t)
	e := allBackends(t, prog)[0]
	probe, err := e.Run(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Tiles%64 == 0 {
		t.Fatalf("test schedule has %d tiles, which leaves no bit past the last tile", probe.Tiles)
	}
	stray := make([]uint64, (probe.Tiles+63)/64)
	stray[len(stray)-1] = 1 << 63
	for _, res := range []*ResumeState{
		{
			SplitDepth: probe.SplitDepth,
			Tiles:      probe.Tiles + 1, // wrong schedule
			Done:       make([]uint64, (probe.Tiles+1+63)/64),
			TileStats:  probe.Clone(),
		},
		{
			SplitDepth: probe.SplitDepth,
			Tiles:      probe.Tiles,
			Done:       stray,
			TileStats:  probe.Clone(),
		},
	} {
		if _, err := e.RunContext(context.Background(), Options{Workers: 2, Resume: res}); err == nil {
			t.Errorf("resume of %d tiles with bitmap %x against %d tiles succeeded", res.Tiles, res.Done, probe.Tiles)
		}
	}
}

// TestChunkedEarlyStopExact is the partial-chunk overcount regression: a
// run stopped by Options.Limit (or an OnTuple veto) mid-chunk must report
// exactly the counters of scalar stepping stopped at the same tuple — the
// lanes past the stop point are rewound, not charged.
func TestChunkedEarlyStopExact(t *testing.T) {
	prog := parallelTestSpace(t)
	backends := allBackends(t, prog)
	ref := backends[0]
	for _, limit := range []int64{1, 2, 5, 9, 14} {
		want, err := ref.Run(Options{Limit: limit, ChunkSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !want.Stopped {
			t.Fatalf("limit=%d: scalar reference did not stop", limit)
		}
		for _, e := range backends {
			for _, chunk := range []int{8, 64} {
				label := fmt.Sprintf("%s limit=%d chunk=%d", e.Name(), limit, chunk)
				st, err := e.Run(Options{Limit: limit, ChunkSize: chunk})
				if err != nil {
					t.Fatal(err)
				}
				if !st.Stopped {
					t.Fatalf("%s: limited run not Stopped", label)
				}
				requireStatsEqual(t, label, st, want)
				if !reflect.DeepEqual(st.TempEvals, want.TempEvals) ||
					!reflect.DeepEqual(st.TempHits, want.TempHits) {
					t.Fatalf("%s: early-stop temp counters diverge: %v/%v want %v/%v",
						label, st.TempEvals, st.TempHits, want.TempEvals, want.TempHits)
				}
			}
		}
	}
	// The OnTuple-veto path stops through the same machinery as Limit but
	// exercises the callback branch of the chunk emitters.
	for _, e := range backends {
		stopAt := int64(7)
		var nScalar int64
		want, err := e.Run(Options{ChunkSize: 1, OnTuple: func([]int64) bool {
			nScalar++
			return nScalar < stopAt
		}})
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		st, err := e.Run(Options{ChunkSize: 64, OnTuple: func([]int64) bool {
			n++
			return n < stopAt
		}})
		if err != nil {
			t.Fatal(err)
		}
		requireStatsEqual(t, e.Name()+" veto stop", st, want)
	}
}

// TestCheckpointStopCommitsTile pins what a stopped checkpointed run means.
// An OnTuple that returns false still commits the tile it was delivering,
// whole, and the run reports Stopped; that tile's remaining survivors are
// never delivered, not even by a resume. So the stopped leg and its resume
// deliver disjoint subsets of a clean run's survivors, and the survivors
// neither delivers all share one tile prefix.
func TestCheckpointStopCommitsTile(t *testing.T) {
	prog := parallelTestSpace(t)
	pos := make(map[string]int)
	for i, name := range prog.TupleNames() {
		pos[name] = i
	}
	for _, e := range allBackends(t, prog) {
		clean, _, err := CollectTuples(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		inClean := make(map[string]bool, len(clean))
		for _, tu := range clean {
			inClean[fmt.Sprint(tu)] = true
		}
		for _, workers := range []int{1, 4} {
			lost := 0
			for _, k := range []int64{1, int64(len(clean) / 3), int64(len(clean) / 2)} {
				label := fmt.Sprintf("%s workers=%d k=%d", e.Name(), workers, k)
				var mu sync.Mutex
				var last *Snapshot
				var delivered [][]int64
				var calls atomic.Int64
				st1, err := e.Run(Options{
					Workers: workers,
					OnTuple: func(tu []int64) bool {
						mu.Lock()
						delivered = append(delivered, append([]int64(nil), tu...))
						mu.Unlock()
						return calls.Add(1) != k
					},
					Checkpoint: &CheckpointConfig{EveryTiles: 1, OnSnapshot: func(s *Snapshot) error {
						mu.Lock()
						last = snapshotCopy(s)
						mu.Unlock()
						return nil
					}},
				})
				if err != nil {
					t.Fatalf("%s: stopped leg failed: %v", label, err)
				}
				if !st1.Stopped || last == nil {
					t.Fatalf("%s: stopped=%v, snapshot taken=%v", label, st1.Stopped, last != nil)
				}
				firstLeg := len(delivered)
				st2, err := e.Run(Options{
					Workers: workers,
					OnTuple: func(tu []int64) bool {
						mu.Lock()
						delivered = append(delivered, append([]int64(nil), tu...))
						mu.Unlock()
						return true
					},
					Resume: &ResumeState{SplitDepth: last.SplitDepth, Tiles: last.Tiles, Done: last.Done, TileStats: last.TileStats},
				})
				if err != nil {
					t.Fatalf("%s: resume failed: %v", label, err)
				}
				if st2.Stopped {
					t.Fatalf("%s: resumed run reports Stopped", label)
				}
				seen := make(map[string]bool, len(delivered))
				for i, tu := range delivered {
					key := fmt.Sprint(tu)
					if seen[key] {
						leg := "resume"
						if i < firstLeg {
							leg = "stopped leg"
						}
						t.Fatalf("%s: %v delivered twice, the second time by the %s", label, tu, leg)
					}
					if !inClean[key] {
						t.Fatalf("%s: %v delivered but not a clean-run survivor", label, tu)
					}
					seen[key] = true
				}
				var prefix []int64
				for _, tu := range clean {
					if seen[fmt.Sprint(tu)] {
						continue
					}
					lost++
					p := make([]int64, last.SplitDepth)
					for d := range p {
						p[d] = tu[pos[prog.Loops[d].Iter.Name]]
					}
					if prefix == nil {
						prefix = p
					} else if !reflect.DeepEqual(p, prefix) {
						t.Fatalf("%s: undelivered survivors span tile prefixes %v and %v", label, prefix, p)
					}
				}
			}
			if lost == 0 {
				t.Errorf("%s workers=%d: no trial stopped part-way through a tile", e.Name(), workers)
			}
		}
	}
}

// TestCheckpointFinalSnapshot counts OnSnapshot calls. The final snapshot
// is skipped when the last one already captured every commit, so a run
// over n tiles snapshotting every k writes ceil(n/k) snapshots. A run that
// commits nothing still writes its final snapshot, whether it is cancelled
// before its first commit or resumed from a finished snapshot, and a
// snapshot that failed is retried at the end.
func TestCheckpointFinalSnapshot(t *testing.T) {
	prog := parallelTestSpace(t)
	for _, e := range allBackends(t, prog) {
		var calls int
		var last *Snapshot
		count := func(fail int) *CheckpointConfig {
			calls = 0
			return &CheckpointConfig{OnSnapshot: func(s *Snapshot) error {
				calls++
				last = snapshotCopy(s)
				if calls == fail {
					return errors.New("disk full")
				}
				return nil
			}}
		}
		var tiles int
		for _, every := range []int{1, 2, 3} {
			cfg := count(0)
			cfg.EveryTiles = every
			st, err := e.Run(Options{Workers: 1, Checkpoint: cfg})
			if err != nil {
				t.Fatal(err)
			}
			tiles = st.Tiles
			if want := (tiles + every - 1) / every; calls != want {
				t.Errorf("%s: %d tiles, a snapshot every %d: %d snapshots, want %d", e.Name(), tiles, every, calls, want)
			}
			if last.Completed != tiles {
				t.Errorf("%s every=%d: last snapshot covers %d of %d tiles", e.Name(), every, last.Completed, tiles)
			}
		}

		// Resumed from the finished snapshot: nothing left to commit.
		done := &ResumeState{SplitDepth: last.SplitDepth, Tiles: last.Tiles, Done: last.Done, TileStats: last.TileStats}
		if _, err := e.Run(Options{Workers: 1, Resume: done, Checkpoint: count(0)}); err != nil {
			t.Fatal(err)
		}
		if calls != 1 || last.Completed != tiles {
			t.Errorf("%s: resume of a finished run wrote %d snapshots (last covers %d tiles), want 1 covering %d",
				e.Name(), calls, last.Completed, tiles)
		}

		// The second snapshot fails: the run aborts and retries it at the end.
		_, err := e.Run(Options{Workers: 1, Checkpoint: count(2)})
		if err == nil || calls != 3 || last.Completed != 2 {
			t.Errorf("%s: failing second snapshot: err %v, %d snapshots, last covers %d tiles; want an error, 3, 2",
				e.Name(), err, calls, last.Completed)
		}
	}

	// Cancelled before the first commit: a host check cancels the run in
	// its first tile and waits for the cancellation to land, so that tile
	// never commits.
	// The check sits below the outer loop, which alone yields enough
	// tiles, so the tiler never calls it.
	s := space.New()
	s.Range("a", expr.IntLit(0), expr.IntLit(64))
	s.Range("b", expr.IntLit(0), expr.IntLit(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.DeferredConstraint("stop", space.Soft, []string{"a", "b"}, func([]expr.Value) bool {
		cancel()
		time.Sleep(20 * time.Millisecond)
		return false
	})
	prog2, err := plan.Compile(s, plan.Options{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var last *Snapshot
	st, err := NewInterp(prog2).RunContext(ctx, Options{Workers: 1, Checkpoint: &CheckpointConfig{
		OnSnapshot: func(s *Snapshot) error {
			calls++
			last = snapshotCopy(s)
			return nil
		}}})
	if !errors.Is(err, context.Canceled) || st == nil || !st.Cancelled {
		t.Fatalf("cancelled run: err %v, stats %+v", err, st)
	}
	if calls != 1 || last.Completed != 0 {
		t.Fatalf("cancelled before the first commit: %d snapshots, want 1 covering no tile", calls)
	}
}
