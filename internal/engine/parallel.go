package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
)

// tileTarget and minTileWork bound the automatic split depth (genTiles).
// A tiled run descends while it has fewer than tileTarget tiles per
// worker, so that no tile holds a large share of the survivors: the
// largest tile bounds the pool's balance, the work an interrupted sweep
// redoes and a checkpointed worker's survivor log. It stops before a level
// whose tiles would carry fewer than minTileWork estimated visits, where
// a tile's fixed cost (about 0.07 us of wall time on a plain sweep, 0.5 us
// on a checkpointed one) outweighs the balance it buys.
const (
	tileTarget  = 32
	minTileWork = 4096
)

// runCtl is the control state one enumeration run shares across workers: a
// cancellation token plus the survivor countdown that makes Options.Limit
// exact under concurrency. Untiled runs use the same object so the
// survivor path is identical in both modes.
type runCtl struct {
	cancel  atomic.Bool
	stopped atomic.Bool
	// remaining counts down Limit survivor slots; claim() decides who may
	// record a survivor, so totals can never exceed the limit no matter how
	// many workers race.
	remaining atomic.Int64
	limited   bool
	// poll gates the cooperative cancellation check: tiled and
	// context-cancellable runs pay the atomic load in the loop body (an
	// untiled run's early stop propagates through return values).
	poll bool
	// ctxDone records that cancellation came from the run's context, so the
	// driver can distinguish a deadline/caller cancellation from a limit
	// stop or a worker failure.
	ctxDone atomic.Bool
	// done is the run context's Done channel, nil for a context that is
	// never cancelled.
	done <-chan struct{}
}

// newRunCtl returns the control state of one run under ctx; tiled runs
// always poll the token.
func newRunCtl(ctx context.Context, limit int64, tiled bool) *runCtl {
	done := ctx.Done()
	c := &runCtl{limited: limit > 0, poll: tiled || done != nil, done: done}
	if c.limited {
		c.remaining.Store(limit)
	}
	return c
}

// cancelled reports whether the run has been stopped or aborted; loop bodies
// poll it so a worker abandons its subtree promptly.
func (c *runCtl) cancelled() bool { return c.poll && c.cancel.Load() }

// stop ends the run early with Stopped semantics (limit reached or a
// callback returned false).
func (c *runCtl) stop() {
	c.stopped.Store(true)
	c.cancel.Store(true)
}

// abort ends the run without Stopped semantics (a worker failed).
func (c *runCtl) abort() { c.cancel.Store(true) }

// cancelCtx ends the run because its context was cancelled.
func (c *runCtl) cancelCtx() {
	c.ctxDone.Store(true)
	c.cancel.Store(true)
}

// ctxCancelled reports whether the run was ended by its context.
func (c *runCtl) ctxCancelled() bool { return c.ctxDone.Load() }

// ctxStopped receives from the run context's Done channel without
// blocking and, once it is closed, sets the token itself. Workers call it
// before each tile and after every chunk's worth of delivered survivors
// (sink.pollDone), so a cancellation reaches them without waiting for the
// context.AfterFunc callback, whose goroutine needs a free P while every P
// runs a worker. A context that is never cancelled costs one comparison.
func (c *runCtl) ctxStopped() bool {
	if c.done == nil {
		return false
	}
	select {
	case <-c.done:
		c.cancelCtx()
		return true
	default:
		return false
	}
}

// running reports whether a worker may start another tile.
func (c *runCtl) running() bool { return !c.cancelled() && !c.ctxStopped() }

// claim reserves one survivor slot. ok reports whether the caller may record
// the survivor; last reports that it took the final slot and must stop the
// run. Unlimited runs always claim successfully.
func (c *runCtl) claim() (ok, last bool) {
	if !c.limited {
		return true, false
	}
	n := c.remaining.Add(-1)
	if n < 0 {
		// Lost the race past the limit: someone else took the last slot.
		c.cancel.Store(true)
		return false, false
	}
	return true, n == 0
}

// sink is the one survivor path of every backend, scalar and chunked:
// claim a slot under the run's limit, count, deliver the tuple to
// OnTuple, stop. The tuple is read from the backend's bindings: the
// register file (reg, slots) or the interpreter's environment (env,
// names).
type sink struct {
	ctl     *runCtl
	stats   *Stats
	onTuple func([]int64) bool
	tuple   []int64
	reg     []int64
	slots   []int
	env     ienv
	names   []string
	// pollEvery is the number of deliveries between two receives from a
	// cancellable context's Done channel: the chunk size, so a worker
	// delivers at most one chunk's worth of survivors after a cancel,
	// while the receive, which costs as much as a cheap delivery, is paid
	// once per chunk. untilPoll counts down to the next receive.
	pollEvery, untilPoll int
}

func newSink(prog *plan.Program, opts Options, ctl *runCtl, stats *Stats, reg []int64, env ienv) sink {
	every := normChunk(opts.ChunkSize)
	s := sink{ctl: ctl, stats: stats, onTuple: opts.OnTuple, tuple: make([]int64, len(prog.Loops)), reg: reg, env: env,
		pollEvery: every, untilPoll: every}
	if env != nil {
		s.names = prog.TupleNames()
	} else {
		s.slots = prog.TupleSlots()
	}
	return s
}

// fill copies the current loop-variable bindings into the tuple.
func (s *sink) fill() {
	if s.env != nil {
		for i, name := range s.names {
			s.tuple[i] = s.env[name].I
		}
		return
	}
	for i, slot := range s.slots {
		s.tuple[i] = s.reg[slot]
	}
}

// survive records the survivor at the current bindings. It reports
// whether enumeration continues.
func (s *sink) survive() bool {
	if s.onTuple != nil {
		s.fill()
	}
	return s.deliver()
}

// deliver records a survivor whose tuple is already current. It reports
// whether enumeration continues: not once the limit is reached, OnTuple
// declines or the run's context is cancelled.
func (s *sink) deliver() bool {
	ok, last := s.ctl.claim()
	if !ok {
		return false
	}
	s.stats.Survivors++
	if s.onTuple != nil && !s.onTuple(s.tuple) {
		s.ctl.stop()
		return false
	}
	if last {
		s.ctl.stop()
		return false
	}
	return s.ctl.done == nil || s.pollDone()
}

// pollDone receives from the run context's Done channel once every
// pollEvery deliveries. It reports whether enumeration continues.
func (s *sink) pollDone() bool {
	if s.untilPoll--; s.untilPoll > 0 {
		return true
	}
	s.untilPoll = s.pollEvery
	return !s.ctl.ctxStopped()
}

// backend is the one execution surface each backend gives the driver.
type backend interface {
	// newWorker returns a worker that enumerates below fixed prefixes of
	// the first depth loop variables. A depth-0 worker runs and counts the
	// prelude, so a sequential run is one depth-0 worker on the empty
	// prefix. With a nil leaf the worker enumerates each prefix's subtree
	// to its survivors; depth == len(Loops) means prefixes are complete
	// tuples and runTile only records the survivor. With a non-nil leaf it
	// enumerates only level depth and passes each value that survives the
	// level's steps to leaf: genTiles builds tiles that way.
	newWorker(opts Options, ctl *runCtl, depth int, leaf func(int64)) (tileWorker, error)
}

// tileWorker is one worker's session: it keeps its backend state (register
// file, bytecode, environment) and its private Stats across tiles.
type tileWorker interface {
	// runTile enumerates under one prefix. Constraint checks at prefix
	// depths were already applied (and counted) by the level that built
	// the prefix; the worker replays only the prefix assignments.
	runTile(prefix []int64) error
	// counters returns the worker's private Stats, merged once by the
	// driver after the pool drains.
	counters() *Stats
}

// tileSet is a materialized set of loop-variable prefixes, stored flat
// (stride = depth) to keep large tilings cache- and GC-friendly.
type tileSet struct {
	vals  []int64
	depth int
	n     int
}

func (t *tileSet) at(i int) []int64 { return t.vals[i*t.depth : (i+1)*t.depth] }

// runContext is the shared driver behind every backend's Run and RunContext:
// one inline worker, or prefix-tile generation plus a self-scheduling
// worker pool. Context cancellation maps onto the shared runCtl token — the
// same path workers poll for limit stops — which workers also set
// themselves when they find the context done at a tile or a delivery, so
// deadlines and caller cancellation stop every worker promptly, and the
// partial Stats come back with Cancelled set alongside the context's
// error. Every Stats it returns has its derived counters filled.
func runContext(ctx context.Context, prog *plan.Program, b backend, opts Options) (st *Stats, err error) {
	defer func() {
		if st != nil {
			st.deriveTemps(prog)
		}
	}()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	ckpt := opts.Checkpoint != nil || opts.Resume != nil
	if ckpt && len(prog.Loops) == 0 {
		return nil, errors.New("engine: checkpointing requires a program with at least one loop")
	}
	if ckpt && opts.Limit > 0 {
		return nil, errors.New("engine: Limit cannot be combined with Checkpoint or Resume")
	}
	if opts.OnTuple != nil && opts.NewOnTuple != nil {
		return nil, errors.New("engine: set OnTuple or NewOnTuple, not both")
	}
	if (opts.Workers > 1 || ckpt) && len(prog.Loops) > 0 {
		return runTiled(ctx, prog, b, opts)
	}

	// A sequential run is one depth-0 worker on the empty prefix, run on
	// the caller's goroutine; its own Stats are the result, so the pool's
	// bookkeeping stays off this path.
	ctl := newRunCtl(ctx, opts.Limit, false)
	stop := context.AfterFunc(ctx, ctl.cancelCtx)
	defer stop()
	opts, err = opts.perWorker()
	if err != nil {
		return nil, err
	}
	w, err := b.newWorker(opts, ctl, 0, nil)
	if err == nil {
		err = w.runTile(nil)
	}
	if err != nil {
		return nil, err
	}
	st = w.counters()
	st.Stopped = ctl.stopped.Load()
	if ctl.ctxCancelled() {
		st.Cancelled = true
		return st, context.Cause(ctx)
	}
	return st, nil
}

// runTiled runs the prefix-tile schedule: tile generation, an optional
// checkpoint tracker, and the self-scheduling worker pool.
func runTiled(ctx context.Context, prog *plan.Program, b backend, opts Options) (*Stats, error) {
	workers := opts.Workers
	if cap := max(8, 4*runtime.NumCPU()); workers > cap {
		workers = cap
	}
	if workers < 1 {
		workers = 1 // checkpointing forces the tile schedule even sequentially
	}

	ctl := newRunCtl(ctx, opts.Limit, true)
	stop := context.AfterFunc(ctx, ctl.cancelCtx)
	defer stop()

	genOpts := opts
	if opts.Resume != nil {
		// Force the snapshot's realized depth so the regenerated tile set is
		// identical regardless of worker count or SplitDepth overrides.
		genOpts.SplitDepth = opts.Resume.SplitDepth
	}
	total, tiles, err := genTiles(prog, b, genOpts, workers, ctl)
	if err != nil {
		return nil, err
	}
	total.SplitDepth, total.Tiles = tiles.depth, tiles.n
	if ctl.ctxCancelled() {
		// Cancelled during tiling: the tile set is partial, so nothing can
		// be enumerated (or checkpointed) from it.
		total.Cancelled = true
		return total, context.Cause(ctx)
	}

	var tr *tileTracker
	if opts.Checkpoint != nil || opts.Resume != nil {
		tr, err = newTileTracker(prog, opts, tiles, total)
		if err != nil {
			return nil, err
		}
	}
	if tiles.n == 0 {
		// Prelude rejection or an empty prefix level: the tiling already
		// counted everything there was to count.
		if tr != nil {
			if err := tr.finalSnapshot(); err != nil {
				return nil, err
			}
			total.Merge(tr.base)
		}
		return total, nil
	}
	workers = min(workers, tiles.n)

	// Self-scheduling over the tile array: workers grab chunks through an
	// atomic cursor, so a worker that lands in a heavily pruned (cheap)
	// region immediately comes back for more while a worker stuck in a
	// dense subtree keeps the rest of the pool fed. Chunking bounds cursor
	// traffic on very fine tilings without hurting balance on coarse ones.
	// Checkpoint mode claims single tiles: commit granularity is the tile.
	chunk := int64(max(1, tiles.n/(workers*2*tileTarget)))
	if tr != nil {
		chunk = 1
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		wstats = make([]*Stats, workers)
		werrs  = make([]error, workers)
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// Panics outside the runTile boundary (NewOnTuple, OnTuple
			// during a checkpointed tile's delivery, scheduler defects,
			// stats merging) still abort the pool instead of crashing the
			// process.
			defer func() {
				if r := recover(); r != nil {
					werrs[wi] = panicError(r)
					ctl.abort()
				}
			}()
			wopts, err := opts.perWorker()
			if err != nil {
				werrs[wi] = err
				ctl.abort()
				return
			}
			deliver := wopts.OnTuple
			var log *survivorLog
			var prev *Stats // counters as of this worker's last commit
			if tr != nil {
				log = &survivorLog{width: len(prog.Loops)}
				prev = NewStats(prog)
				if deliver != nil {
					// Transactional delivery: log a tile's survivors while
					// it runs; the commit delivers them once the tile is
					// known complete, so delivered tuples and committed
					// counters always describe the same set of tiles.
					wopts.OnTuple = log.add
				}
			}
			w, err := b.newWorker(wopts, ctl, tiles.depth, nil)
			if err != nil {
				werrs[wi] = err
				ctl.abort()
				return
			}
			for ctl.running() {
				lo := cursor.Add(chunk) - chunk
				if lo >= int64(tiles.n) {
					break
				}
				hi := min(lo+chunk, int64(tiles.n))
				for t := lo; t < hi && ctl.running(); t++ {
					if tr != nil && tr.skip(int(t)) {
						continue
					}
					if err := w.runTile(tiles.at(int(t))); err != nil {
						werrs[wi] = err
						ctl.abort()
						return
					}
					if tr == nil {
						continue
					}
					if ctl.cancelled() {
						// The shared token may have cut this tile short;
						// leave it uncommitted so a resume re-runs it whole.
						return
					}
					userStop, err := tr.commit(int(t), log, deliver, w.counters(), prev)
					if err != nil {
						werrs[wi] = err
						ctl.abort()
						return
					}
					if userStop {
						ctl.stop()
					}
				}
			}
			if tr == nil {
				wstats[wi] = w.counters()
			}
		}(i)
	}
	wg.Wait()

	var werr error
	for _, err := range werrs {
		if err != nil {
			werr = err
			break
		}
	}
	if tr != nil {
		// The final snapshot covers exactly the committed tiles, and is
		// written even when a worker failed — a sweep killed by a panicking
		// host callback stays resumable past the fault.
		if serr := tr.finalSnapshot(); serr != nil && werr == nil {
			werr = serr
		}
		total.Merge(tr.base)
	} else {
		for _, st := range wstats {
			if st != nil {
				total.Merge(st)
			}
		}
	}
	if werr != nil {
		return nil, werr
	}
	total.Stopped = ctl.stopped.Load()
	if ctl.ctxCancelled() {
		total.Cancelled = true
		return total, context.Cause(ctx)
	}
	return total, nil
}

// tileTracker coordinates checkpoint-mode commits: the committed-tile
// bitmap, the merged counters of exactly those tiles, and the snapshot
// cadence. Tiles a resumed run already committed are skipped through an
// immutable bitmap read without the lock.
type tileTracker struct {
	// gate keeps snapshots consistent with delivery: workers hold it for
	// reading from the start of a tile's delivery through its commit, a
	// snapshot holds it for writing, so no snapshot sees a tile's
	// survivors delivered but its counters uncommitted.
	gate      sync.RWMutex
	mu        sync.Mutex // serializes commits running under the shared gate
	cfg       *CheckpointConfig
	every     int
	sinceSnap int
	done      []uint64
	completed int
	// snapped is the committed count the last snapshot captured, or -1
	// when there is none or it failed: the final snapshot is skipped only
	// when it would repeat a snapshot OnSnapshot accepted.
	snapped int
	depth   int
	tiles   int
	// base accumulates the committed tiles' counters (seeded from the
	// resume snapshot); its flags and metadata stay zero.
	base *Stats
	// resumeDone is the resume snapshot's bitmap, immutable after
	// construction so workers may read it lock-free.
	resumeDone []uint64
}

func newTileTracker(prog *plan.Program, opts Options, tiles *tileSet, st *Stats) (*tileTracker, error) {
	tr := &tileTracker{
		cfg:     opts.Checkpoint,
		every:   1,
		snapped: -1,
		done:    make([]uint64, (tiles.n+63)/64),
		depth:   tiles.depth,
		tiles:   tiles.n,
		base:    NewStats(prog),
	}
	if tr.cfg != nil && tr.cfg.EveryTiles > 1 {
		tr.every = tr.cfg.EveryTiles
	}
	if r := opts.Resume; r != nil {
		if err := r.validate(tiles, st); err != nil {
			return nil, err
		}
		copy(tr.done, r.Done)
		tr.resumeDone = append([]uint64(nil), r.Done...)
		tr.completed = r.CompletedTiles()
		tr.base.copyCountersFrom(r.TileStats)
	}
	return tr, nil
}

// skip reports whether a resumed checkpoint already committed tile t.
func (tr *tileTracker) skip(t int) bool {
	return tr.resumeDone != nil && tr.resumeDone[t>>6]&(1<<uint(t&63)) != 0
}

// snapshots reports whether the run hands snapshots to a receiver.
func (tr *tileTracker) snapshots() bool { return tr.cfg != nil && tr.cfg.OnSnapshot != nil }

// commit delivers completed tile t's logged survivors to deliver, the
// committing worker's own callback, then folds the tile's counter delta
// (the worker's cumulative stats minus its baseline) into the committed
// set and advances the baseline; every `every` commits it snapshots. stop
// reports that deliver asked to stop the run; the tile commits whole
// regardless. A snapshot error aborts the run.
func (tr *tileTracker) commit(tile int, log *survivorLog, deliver func([]int64) bool, cur, prev *Stats) (stop bool, err error) {
	stop, due := tr.deliverAndCommit(tile, log, deliver, cur, prev)
	if due {
		err = tr.snapshot()
	}
	return stop, err
}

// deliverAndCommit is commit's part under the shared gate, released by
// defer so a panicking callback cannot wedge later snapshots. due reports
// that a snapshot is owed; it is taken after the gate is released.
func (tr *tileTracker) deliverAndCommit(tile int, log *survivorLog, deliver func([]int64) bool, cur, prev *Stats) (stop, due bool) {
	tr.gate.RLock()
	defer tr.gate.RUnlock()
	stop = !log.drain(deliver)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.base.MergeDelta(cur, prev)
	prev.copyCountersFrom(cur)
	tr.done[tile>>6] |= 1 << uint(tile&63)
	tr.completed++
	tr.sinceSnap++
	if tr.snapshots() && tr.sinceSnap >= tr.every {
		tr.sinceSnap = 0
		due = true
	}
	return stop, due
}

// snapshot hands OnSnapshot the committed state once no worker is between
// delivering a tile and committing it. Holding the gate exclusively also
// keeps commits out, so the state needs no other lock while it is read.
func (tr *tileTracker) snapshot() error {
	tr.gate.Lock()
	defer tr.gate.Unlock()
	err := tr.cfg.OnSnapshot(&Snapshot{
		SplitDepth: tr.depth,
		Tiles:      tr.tiles,
		Completed:  tr.completed,
		Done:       append([]uint64(nil), tr.done...),
		TileStats:  tr.base.Clone(),
	})
	tr.snapped = tr.completed
	if err != nil {
		tr.snapped = -1
	}
	return err
}

// finalSnapshot writes one last snapshot after the pool drains, so the
// checkpoint file always reflects every committed tile. It is skipped when
// the last snapshot already captured every commit; a run that took no
// snapshot, or whose last one failed, always writes it. Flush then waits
// until the newest snapshot is durable; the snapshot's error comes first.
func (tr *tileTracker) finalSnapshot() error {
	if !tr.snapshots() {
		return nil
	}
	var err error
	if tr.snapped != tr.completed {
		err = tr.snapshot()
	}
	if tr.cfg.Flush != nil {
		if ferr := tr.cfg.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// logBlockRows is the survivor log's block size in rows.
const logBlockRows = 512

// survivorLog holds one tile's survivors between the tile's run and its
// commit, as rows of width values in fixed-size blocks. A worker keeps its
// log across tiles, so it allocates only the blocks its largest tile
// needs and never copies a row twice: growing adds a block instead of
// reallocating the rows already logged.
type survivorLog struct {
	width  int
	n      int // rows logged for the current tile
	blocks [][]int64
}

// add logs one survivor; it is the tile worker's OnTuple, so it always
// lets enumeration continue.
func (l *survivorLog) add(tuple []int64) bool {
	b, r := l.n/logBlockRows, l.n%logBlockRows
	if b == len(l.blocks) {
		l.blocks = append(l.blocks, make([]int64, logBlockRows*l.width))
	}
	copy(l.blocks[b][r*l.width:], tuple)
	l.n++
	return true
}

// drain hands the logged rows to fn in order until fn returns false, and
// empties the log. Each row's capacity ends at its width, so an fn that
// appends to its row cannot overwrite the next one. drain reports whether
// fn accepted every row.
func (l *survivorLog) drain(fn func([]int64) bool) bool {
	n, w := l.n, l.width
	l.n = 0
	for i := 0; i < n; i++ {
		blk, o := l.blocks[i/logBlockRows], i%logBlockRows*w
		if !fn(blk[o : o+w : o+w]) {
			return false
		}
	}
	return true
}

// genTiles materializes prefix tiles for the first K loop levels by running
// the run's own backend one level at a time: a level-d worker replays each
// depth-d prefix, enumerates level d, applies (and counts) the steps
// hoisted there, and extends the prefix by every value that survives. The
// level-0 worker also runs and counts the prelude. Tiles are therefore
// exactly the surviving prefixes, and the skew the constraints induce is
// flattened before work is handed out. The returned Stats carry the
// prelude and prefix-level counters; pool workers count only depths >= K,
// so the merged totals match a sequential run. Level workers run scalar:
// the chunker serves only a pool worker's innermost loop.
//
// The depth is Options.SplitDepth when positive. Otherwise genTiles picks
// it from the realized tile counts: it builds at least one level and at
// least workers tiles, then descends while it has fewer than tileTarget
// tiles per worker and one tile of the next level still carries at least
// minTileWork estimated visits (tileWork).
func genTiles(prog *plan.Program, b backend, opts Options, workers int, ctl *runCtl) (*Stats, *tileSet, error) {
	n := len(prog.Loops)
	depth := min(opts.SplitDepth, n)
	var cards []int64
	if opts.SplitDepth <= 0 {
		depth, cards = n, prog.EstimateLoopCards()
	}
	st := NewStats(prog)
	tiles := &tileSet{n: 1} // the single empty prefix
	for d := 0; d < depth; d++ {
		if cards != nil && d > 0 && tiles.n >= workers &&
			(tiles.n >= tileTarget*workers || tileWork(cards, d+1) < minTileWork) {
			break
		}
		next := &tileSet{depth: d + 1}
		var prefix []int64
		w, err := b.newWorker(Options{Protocol: opts.Protocol}, ctl, d, func(v int64) {
			next.vals = append(append(next.vals, prefix...), v)
			next.n++
		})
		if err != nil {
			return nil, nil, err
		}
		for t := 0; t < tiles.n && ctl.running(); t++ {
			prefix = tiles.at(t)
			if err := w.runTile(prefix); err != nil {
				return nil, nil, err
			}
		}
		st.Merge(w.counters())
		if d == 0 && preludeRejected(prog, st) {
			return st, &tileSet{}, nil // nothing was tiled
		}
		if tiles = next; tiles.n == 0 || ctl.cancelled() {
			break
		}
	}
	return st, tiles, nil
}

// tileWork estimates the visits under one depth-k tile: the product of the
// cards of loops k and below, saturating at MaxInt64.
func tileWork(cards []int64, k int) int64 {
	w := int64(1)
	for _, c := range cards[k:] {
		if c > 0 && w > math.MaxInt64/c {
			return math.MaxInt64
		}
		w *= c
	}
	return w
}

// preludeRejected reports whether st counts a kill by a prelude check.
func preludeRejected(prog *plan.Program, st *Stats) bool {
	for i := range prog.Prelude {
		if step := &prog.Prelude[i]; step.Kind == plan.CheckStep && st.Kills[step.StatsID] > 0 {
			return true
		}
	}
	return false
}
