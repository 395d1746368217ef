// Package autotune assembles the full BEAST recipe of §I: "the variants
// that pass the pruning process are compiled, run and benchmarked, and the
// best performers are identified." Generation and pruning come from
// internal/plan + internal/engine; benchmarking is any Objective function
// (in this repository, the kernelsim performance models); this package
// supplies the orchestration and the search strategies.
//
// Four strategies are provided:
//
//   - Exhaustive: benchmark every surviving tuple — the paper's mode.
//   - RandomSample: enumerate (cheap, compiled) but benchmark only a
//     uniform reservoir sample of survivors — the right trade when the
//     objective is a real kernel launch rather than a model.
//   - HillClimb: multi-restart coordinate local search.
//   - Anneal: multi-restart simulated annealing, for rugged tiling
//     landscapes.
//
// The last two are the "statistical search methods" the paper's conclusion
// schedules as future work. Multi-objective (performance x energy) search
// lives in pareto.go.
//
// The exhaustive strategy and RunPareto score survivors on the
// enumeration's own workers. Each worker keeps its own top-K heap or
// Pareto front and objective-call count (engine.Options.NewOnTuple), so
// scoring a survivor takes no lock and writes nothing another worker
// reads; the parts are merged at each checkpoint snapshot and once the
// run ends.
package autotune

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// Objective scores a surviving tuple; higher is better. Implementations
// must be safe for concurrent calls when Options.Workers > 1: the
// exhaustive strategy and RunPareto call it on every enumeration worker at
// once. An objective that writes shared memory on every call (a lock, an
// atomic counter) serializes those workers on it.
type Objective func(tuple []int64) float64

// Strategy selects the search mode.
type Strategy uint8

// Strategies.
const (
	Exhaustive Strategy = iota
	RandomSample
	HillClimb
	Anneal
)

func (s Strategy) String() string {
	switch s {
	case Exhaustive:
		return "exhaustive"
	case RandomSample:
		return "random-sample"
	case HillClimb:
		return "hill-climb"
	case Anneal:
		return "simulated-annealing"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Options configure a tuning run.
type Options struct {
	Strategy Strategy
	// TopK is how many best configurations to keep (default 10).
	TopK int
	// Workers parallelizes enumeration (and hence objective calls).
	Workers int
	// SplitDepth overrides the parallel scheduler's prefix-tile depth
	// (0 = automatic; see engine.Options.SplitDepth).
	SplitDepth int
	// ChunkSize batches innermost-loop evaluation during enumeration
	// (0 = engine default, 1 = scalar; see engine.Options.ChunkSize).
	ChunkSize int
	// Samples is the benchmark budget for RandomSample (default 1000).
	Samples int
	// Seed drives the random strategies (default 1).
	Seed int64
	// Restarts and Steps bound HillClimb (defaults 16 and 200).
	Restarts, Steps int

	// CheckpointPath, if non-empty, persists enumeration progress (and the
	// partial top-K) to this file so an interrupted run can be resumed;
	// ResumePath restores from such a file (the two may name the same
	// file). Only the Exhaustive strategy supports them. A gracefully
	// cancelled run resumes exactly — identical survivor set, funnel
	// counters, and rankings; after a hard kill the last tile in flight may
	// be re-benchmarked on resume (at-least-once delivery).
	CheckpointPath string
	ResumePath     string
	// CheckpointEvery is the snapshot cadence in completed tiles
	// (default 1: snapshot after every tile).
	CheckpointEvery int
}

// Result is one scored configuration.
type Result struct {
	Tuple []int64
	Score float64
}

// Report is the outcome of a tuning run.
type Report struct {
	Best      []Result // descending by score
	Stats     *engine.Stats
	Evaluated int64 // objective calls
	Survivors int64
	Elapsed   time.Duration
	Strategy  Strategy
	IterNames []string
	Program   *plan.Program
}

// Tuner binds a compiled space to an objective.
type Tuner struct {
	Prog      *plan.Program
	Objective Objective
}

// New compiles s and returns a Tuner using the fast native engine.
func New(s *space.Space, obj Objective) (*Tuner, error) {
	return NewWithOptions(s, obj, plan.Options{})
}

// NewWithOptions is New with explicit planner options, for ablation runs
// (e.g. the -no-narrow and -no-cse command-line flags).
func NewWithOptions(s *space.Space, obj Objective, opts plan.Options) (*Tuner, error) {
	prog, err := plan.Compile(s, opts)
	if err != nil {
		return nil, err
	}
	return &Tuner{Prog: prog, Objective: obj}, nil
}

// Run executes the tuning strategy.
func (t *Tuner) Run(opts Options) (*Report, error) {
	return t.RunContext(context.Background(), opts)
}

// RunContext is Run under a context: cancellation and deadlines stop the
// underlying enumeration (and the objective-call loops of the statistical
// strategies) promptly. A cancelled exhaustive run returns its partial
// Report alongside the context's error, so the caller can report progress
// — and, when checkpointing, resume later.
func (t *Tuner) RunContext(ctx context.Context, opts Options) (*Report, error) {
	if opts.Strategy != Exhaustive {
		if err := opts.noCheckpoint(opts.Strategy.String()); err != nil {
			return nil, err
		}
	}
	if opts.TopK <= 0 {
		opts.TopK = 10
	}
	if opts.Samples <= 0 {
		opts.Samples = 1000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 16
	}
	if opts.Steps <= 0 {
		opts.Steps = 200
	}
	start := time.Now()
	var rep *Report
	var err error
	switch opts.Strategy {
	case Exhaustive:
		rep, err = t.runExhaustive(ctx, opts)
	case RandomSample:
		rep, err = t.runRandomSample(ctx, opts)
	case HillClimb:
		rep, err = t.runHillClimb(ctx, opts)
	case Anneal:
		rep, err = t.RunAnnealContext(ctx, AnnealOptions{Options: opts})
	default:
		return nil, fmt.Errorf("autotune: unknown strategy %v", opts.Strategy)
	}
	if rep != nil {
		rep.Elapsed = time.Since(start)
		rep.Strategy = opts.Strategy
		rep.IterNames = t.Prog.TupleNames()
		rep.Program = t.Prog
	}
	return rep, err
}

// noCheckpoint is the check every entry point but the exhaustive tuner
// applies: mode cannot checkpoint, so a checkpoint or resume path is an
// error rather than silently ignored.
func (o Options) noCheckpoint(mode string) error {
	if o.checkpoint().Enabled() {
		return fmt.Errorf("autotune: checkpointing supports only the exhaustive strategy, not %s", mode)
	}
	return nil
}

func (o Options) checkpoint() checkpoint.Config {
	return checkpoint.Config{Path: o.CheckpointPath, Resume: o.ResumePath, Every: o.CheckpointEvery}
}

// resultHeap is a min-heap of the best K results (smallest score at the
// root for cheap eviction).
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// offer admits a scored tuple if it ranks among the best k and the heap
// does not hold it yet: the local searches revisit tuples across restarts.
// It looks for the tuple only when it would admit it, so a tuple turned
// away by score costs one comparison. The heap owns its tuples and copies
// only an admitted one, into the evicted root's storage once the heap is
// full, so callers may pass a borrowed slice and a run allocates k tuples
// whatever order the scores arrive in.
func (h *resultHeap) offer(tuple []int64, score float64, k int) {
	full := h.Len() >= k
	if full && score <= (*h)[0].Score || h.holds(tuple) {
		return
	}
	if !full {
		heap.Push(h, Result{Tuple: append([]int64(nil), tuple...), Score: score})
		return
	}
	root := &(*h)[0]
	root.Tuple = append(root.Tuple[:0], tuple...)
	root.Score = score
	heap.Fix(h, 0)
}

// holds reports whether the heap holds tuple.
func (h resultHeap) holds(tuple []int64) bool {
	for _, r := range h {
		if slices.Equal(r.Tuple, tuple) {
			return true
		}
	}
	return false
}

func (h resultHeap) sorted() []Result {
	out := make([]Result, len(h))
	copy(out, h)
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// exhaustiveExtra is the tool-owned checkpoint payload of an exhaustive
// run: the partial top-K and the objective-call count, so a resumed run
// reports rankings identical to an uninterrupted one.
type exhaustiveExtra struct {
	Best      []Result `json:"best"`
	Evaluated int64    `json:"evaluated"`
}

// workerSet holds one T per delivering goroutine of a run (see
// engine.Options.NewOnTuple). Workers add theirs as they start, under the
// lock; each then updates its own T without one.
type workerSet[T any] struct {
	mu   sync.Mutex
	list []*T
}

// add registers a new T and returns it.
func (w *workerSet[T]) add() *T {
	v := new(T)
	w.mu.Lock()
	w.list = append(w.list, v)
	w.mu.Unlock()
	return v
}

// all returns every registered T. Their state is unguarded, so read it
// only while no worker delivers: during a checkpoint snapshot, or after
// the run.
func (w *workerSet[T]) all() []*T {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.list
}

// shard is one delivering goroutine's part of an exhaustive run: its own
// top-K and objective-call count.
type shard struct {
	best  resultHeap
	evals int64
}

// mergeShards folds shards into one top-K and objective-call count.
func mergeShards(shards []*shard, k int) (resultHeap, int64) {
	var best resultHeap
	var evals int64
	for _, sh := range shards {
		evals += sh.evals
		for _, r := range sh.best {
			best.offer(r.Tuple, r.Score, k)
		}
	}
	return best, evals
}

func (t *Tuner) runExhaustive(ctx context.Context, opts Options) (*Report, error) {
	eng, err := engine.NewCompiled(t.Prog)
	if err != nil {
		return nil, err
	}
	var shards workerSet[shard]
	base := shards.add() // a resumed checkpoint's payload
	eopts := engine.Options{
		Workers:    opts.Workers,
		SplitDepth: opts.SplitDepth,
		ChunkSize:  opts.ChunkSize,
		NewOnTuple: func() func([]int64) bool {
			sh := shards.add()
			return func(tuple []int64) bool {
				sh.evals++
				sh.best.offer(tuple, t.Objective(tuple), opts.TopK)
				return true
			}
		},
	}
	// The engine takes a snapshot only while no worker delivers, so the
	// shards then cover exactly the snapshot's tiles.
	file, err := opts.checkpoint().Attach(&eopts, t.Prog, eng.Name(), func() (json.RawMessage, error) {
		best, evals := mergeShards(shards.all(), opts.TopK)
		return json.Marshal(exhaustiveExtra{Best: best.sorted(), Evaluated: evals})
	})
	if err != nil {
		return nil, err
	}
	if file != nil && len(file.Extra) > 0 {
		var ex exhaustiveExtra
		if err := json.Unmarshal(file.Extra, &ex); err != nil {
			return nil, fmt.Errorf("autotune: checkpoint %s has a corrupt tuner payload: %w", opts.ResumePath, err)
		}
		base.evals = ex.Evaluated
		for _, r := range ex.Best {
			base.best.offer(r.Tuple, r.Score, opts.TopK)
		}
	}
	st, err := eng.RunContext(ctx, eopts)
	if st == nil {
		return nil, err
	}
	best, evals := mergeShards(shards.all(), opts.TopK)
	return &Report{Best: best.sorted(), Stats: st, Evaluated: evals, Survivors: st.Survivors}, err
}

func (t *Tuner) runRandomSample(ctx context.Context, opts Options) (*Report, error) {
	eng, err := engine.NewCompiled(t.Prog)
	if err != nil {
		return nil, err
	}
	// Reservoir-sample survivors during (sequential) enumeration, then
	// benchmark the sample. Uniformity over the survivor set is exact
	// (Algorithm R); sampling concurrently would bias chunk boundaries,
	// so enumeration runs single-threaded — it is the cheap phase.
	rng := rand.New(rand.NewSource(opts.Seed))
	reservoir := make([][]int64, 0, opts.Samples)
	var seen int64
	st, err := eng.RunContext(ctx, engine.Options{
		ChunkSize: opts.ChunkSize,
		OnTuple: func(tuple []int64) bool {
			seen++
			if len(reservoir) < opts.Samples {
				cp := make([]int64, len(tuple))
				copy(cp, tuple)
				reservoir = append(reservoir, cp)
				return true
			}
			if j := rng.Int63n(seen); j < int64(opts.Samples) {
				copy(reservoir[j], tuple)
			}
			return true
		},
	})
	if err != nil {
		return nil, err
	}
	var best resultHeap
	for _, tuple := range reservoir {
		best.offer(tuple, t.Objective(tuple), opts.TopK)
	}
	return &Report{
		Best: best.sorted(), Stats: st,
		Evaluated: int64(len(reservoir)), Survivors: st.Survivors,
	}, nil
}

// Render formats the report as a fixed-width table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s survivors=%d benchmarked=%d elapsed=%s\n",
		r.Strategy, r.Survivors, r.Evaluated, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-6s %12s  %s\n", "rank", "score", strings.Join(r.IterNames, " "))
	for i, res := range r.Best {
		vals := make([]string, len(res.Tuple))
		for j, v := range res.Tuple {
			vals[j] = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(&b, "%-6d %12.3f  %s\n", i+1, res.Score, strings.Join(vals, " "))
	}
	return b.String()
}

// Describe returns a map from iterator name to value for a tuple.
func (r *Report) Describe(res Result) map[string]int64 {
	out := make(map[string]int64, len(r.IterNames))
	for i, n := range r.IterNames {
		out[n] = res.Tuple[i]
	}
	return out
}

// pointChecker re-evaluates a full tuple against every derived variable
// and constraint, independent of loop structure. It serves the hill
// climber, which jumps around the space instead of enumerating it.
type pointChecker struct {
	prog *plan.Program
	env  *expr.Env
	// tupleIdx maps loop depth to the tuple position of that loop's
	// iterator: tuples are emitted in source declaration order, which
	// differs from nest order once the planner reorders loops.
	tupleIdx []int
}

func newPointChecker(prog *plan.Program) *pointChecker {
	byName := make(map[string]int)
	for i, n := range prog.TupleNames() {
		byName[n] = i
	}
	tupleIdx := make([]int, len(prog.Loops))
	for i, lp := range prog.Loops {
		tupleIdx[i] = byName[lp.Iter.Name]
	}
	return &pointChecker{prog: prog, env: prog.NewEnv(), tupleIdx: tupleIdx}
}

// valid reports whether the tuple satisfies every constraint: the checks
// bounds compilation absorbed, through each loop's bound groups, and the
// check steps left in the bodies. It also leaves the environment loaded
// for domain materialization.
func (pc *pointChecker) valid(tuple []int64) bool {
	for i, lp := range pc.prog.Loops {
		pc.env.Slots[lp.Slot] = expr.IntVal(tuple[pc.tupleIdx[i]])
	}
	if !pc.passes(pc.prog.Prelude) {
		return false
	}
	for _, lp := range pc.prog.Loops {
		if !pc.inBounds(lp) || !pc.passes(lp.Steps) {
			return false
		}
	}
	return true
}

// passes runs steps over the environment and reports whether no check
// rejects.
func (pc *pointChecker) passes(steps []plan.Step) bool {
	for i := range steps {
		st := &steps[i]
		if st.Kind == plan.AssignStep {
			pc.env.Slots[st.Slot] = st.Expr.Eval(pc.env)
			continue
		}
		var kill bool
		if st.Constraint.Deferred() {
			kill = st.Constraint.Rejects(pc.env, st.ArgSlots)
		} else {
			kill = st.Expr.Eval(pc.env).Truthy()
		}
		if kill {
			return false
		}
	}
	return true
}

// inBounds reports whether lp's variable, as bound in the environment,
// keeps every bound group of the loop: at or above each Lo, below each
// Hi, equal to each pin's value Num / Den, and accepted by each probe.
// The environment holds everything outside the loop, as at loop entry.
func (pc *pointChecker) inBounds(lp *plan.Loop) bool {
	if lp.Bounds == nil {
		return true
	}
	v := pc.env.Slots[lp.Slot].I
	for _, g := range lp.Bounds.Groups {
		for _, e := range g.Lo {
			if v < e.Eval(pc.env).I {
				return false
			}
		}
		for _, e := range g.Hi {
			if v >= e.Eval(pc.env).I {
				return false
			}
		}
		for _, p := range g.Pins {
			num, den := p.Num.Eval(pc.env).I, p.Den.Eval(pc.env).I
			if den < 1 || num%den != 0 || num/den != v {
				return false
			}
		}
		for _, p := range g.Probes {
			if p.Pred.Eval(pc.env).Truthy() {
				return false
			}
		}
	}
	return true
}

// domainValues materializes the domain of loop depth d for the outer
// loops' values in tuple (tuple is indexed in declaration order via
// tupleIdx, not nest order).
func (pc *pointChecker) domainValues(tuple []int64, d int) []int64 {
	// Bind outer loop variables and recompute their derived steps so the
	// domain's dependencies are fresh.
	for i := 0; i < d; i++ {
		pc.env.Slots[pc.prog.Loops[i].Slot] = expr.IntVal(tuple[pc.tupleIdx[i]])
	}
	for _, st := range pc.prog.Prelude {
		if st.Kind == plan.AssignStep {
			pc.env.Slots[st.Slot] = st.Expr.Eval(pc.env)
		}
	}
	for i := 0; i < d; i++ {
		for _, st := range pc.prog.Loops[i].Steps {
			if st.Kind == plan.AssignStep {
				pc.env.Slots[st.Slot] = st.Expr.Eval(pc.env)
			}
		}
	}
	lp := pc.prog.Loops[d]
	var vals []int64
	if lp.Iter.Kind == space.ExprIter {
		vals = space.Materialize(lp.Domain, pc.env)
	} else {
		lp.Iter.Iterate(pc.env, lp.ArgSlots, func(v int64) bool {
			vals = append(vals, v)
			return true
		})
	}
	return vals
}

// repair walks loop depths outward-in, snapping each coordinate to the
// nearest value of its (context-dependent) domain. It returns false if
// some domain is empty.
func (pc *pointChecker) repair(tuple []int64) bool {
	for d := range pc.prog.Loops {
		vals := pc.domainValues(tuple, d)
		if len(vals) == 0 {
			return false
		}
		tuple[pc.tupleIdx[d]] = nearest(vals, tuple[pc.tupleIdx[d]])
	}
	return true
}

func nearest(vals []int64, want int64) int64 {
	best := vals[0]
	bestD := absI64(best - want)
	for _, v := range vals[1:] {
		if d := absI64(v - want); d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

func absI64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func (t *Tuner) runHillClimb(ctx context.Context, opts Options) (*Report, error) {
	// Seed points: a uniform sample of survivors (reusing the reservoir
	// machinery keeps seeding unbiased); if the space has few survivors
	// this already visits most of it.
	seedOpts := opts
	seedOpts.Samples = opts.Restarts
	seedOpts.TopK = opts.Restarts
	seeds, err := t.runRandomSample(ctx, seedOpts)
	if err != nil {
		return nil, err
	}
	pc := newPointChecker(t.Prog)
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	var best resultHeap
	var evals int64
	score := func(tuple []int64) float64 {
		evals++
		return t.Objective(tuple)
	}
	for _, seed := range seeds.Best {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		cur := append([]int64(nil), seed.Tuple...)
		curScore := score(cur)
		best.offer(cur, curScore, opts.TopK)
		for step := 0; step < opts.Steps; step++ {
			improved := false
			// Propose moves in each dimension: neighbouring domain values.
			// d walks loop depths; ti is the tuple position of that loop's
			// iterator (tuples are in declaration order).
			dims := rng.Perm(len(pc.prog.Loops))
			for _, d := range dims {
				ti := pc.tupleIdx[d]
				vals := pc.domainValues(cur, d)
				if len(vals) < 2 {
					continue
				}
				idx := indexOf(vals, cur[ti])
				// Try distance-1 and distance-2 moves: the wider step
				// escapes couplings like parity constraints, where every
				// single-step move of one coordinate is infeasible.
				for _, j := range []int{idx - 1, idx + 1, idx - 2, idx + 2} {
					if j < 0 || j >= len(vals) || vals[j] == cur[ti] {
						continue
					}
					cand := append([]int64(nil), cur...)
					cand[ti] = vals[j]
					if !pc.repair(cand) || !pc.valid(cand) {
						continue
					}
					s := score(cand)
					if s > curScore {
						cur, curScore = cand, s
						best.offer(cand, s, opts.TopK)
						improved = true
						break
					}
				}
				if improved {
					break
				}
			}
			if !improved {
				break // local optimum
			}
		}
	}
	return &Report{
		Best: best.sorted(), Stats: seeds.Stats,
		Evaluated: evals, Survivors: seeds.Survivors,
	}, nil
}

func indexOf(vals []int64, v int64) int {
	for i, x := range vals {
		if x == v {
			return i
		}
	}
	return 0
}
