package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/expr"
)

// Protocol selects the loop-control variant a backend uses for range
// domains. The paper's Figures 17–18 show that within one language the loop
// syntax alone moves throughput by 30% and more; these protocols reproduce
// those syntactic variants. Protocols outside a backend's repertoire fall
// back to that backend's default.
type Protocol uint8

// Loop protocols.
const (
	// ProtoDefault lets the backend choose its fastest protocol.
	ProtoDefault Protocol = iota
	// ProtoWhile drives ranges by re-evaluating an explicit condition and
	// increment through the expression machinery each iteration — Python's
	// and Lua's `while` loop.
	ProtoWhile
	// ProtoRange materializes the whole value list up front, then walks it
	// — Python 2's `range` builtin, including its memory cost.
	ProtoRange
	// ProtoXRange computes the bounds once and streams values without
	// materializing — Python 2's `xrange`, Lua's numeric `for`.
	ProtoXRange
	// ProtoRepeat uses a post-test loop with a pre-check for emptiness —
	// Lua's `repeat ... until`.
	ProtoRepeat
)

func (p Protocol) String() string {
	switch p {
	case ProtoDefault:
		return "default"
	case ProtoWhile:
		return "while"
	case ProtoRange:
		return "range"
	case ProtoXRange:
		return "xrange"
	case ProtoRepeat:
		return "repeat"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Options control one enumeration run.
type Options struct {
	// Protocol selects the loop-control variant (see Protocol).
	Protocol Protocol

	// Workers > 1 enumerates in parallel: the backend itself builds prefix
	// tiles — surviving value tuples of the first SplitDepth loops, with
	// hoisted constraints already applied — one level at a time, and
	// workers pull tiles from a shared queue, so heavily pruned subtrees
	// cannot strand the pool the way a static split of the outermost loop
	// could. Enumeration order across workers is nondeterministic, but the
	// merged Stats of a complete run are identical to a sequential run's.
	// Workers <= 1 runs one worker on the caller's goroutine, unless
	// Checkpoint or Resume is set: those runs are tiled, with a pool of one.
	Workers int

	// SplitDepth overrides the tiling depth: tiles are value tuples of
	// loops 0..SplitDepth-1. Zero (the default) lets the tiler descend
	// until it has 32 tiles per worker or the next level's tiles would
	// carry too little estimated work. It applies to every tiled run:
	// Workers > 1, or any run with Checkpoint set (Resume forces the
	// snapshot's depth instead). An untiled run ignores it.
	SplitDepth int

	// OnTuple, if non-nil, is called for every surviving tuple with the
	// loop-variable values in source declaration order (plan.TupleNames),
	// independent of the nest order the planner chose — decoders keyed to
	// the declaration order stay valid under loop reordering. The slice is
	// reused and owned by the calling worker; copy it to retain. Returning
	// false stops the whole run promptly (all workers observe the
	// cancellation). With Workers > 1 the callback is invoked concurrently
	// and must be safe for that. A callback that writes shared memory on
	// every call (a lock, an atomic counter) serializes the workers on that
	// memory; keep such state per worker with NewOnTuple instead.
	//
	// Under Checkpoint, returning false still commits the tile whose
	// survivors were being delivered, whole, and the run reports Stopped:
	// that tile's remaining survivors are never delivered, not even after
	// a resume (see CheckpointConfig).
	OnTuple func(tuple []int64) bool

	// NewOnTuple, if non-nil, is the per-worker form of OnTuple. The run
	// calls it once on each goroutine that delivers survivors — the
	// caller's for a sequential run, each pool worker's for a tiled one —
	// before that goroutine's first delivery, so at most max(1, Workers)
	// functions are made. Only the goroutine that made a function calls
	// it, also when it commits a checkpointed tile, so the function may
	// update state of its own without synchronization. The returned
	// functions otherwise behave as OnTuple. Setting both OnTuple and
	// NewOnTuple is an error.
	NewOnTuple func() func(tuple []int64) bool

	// Limit, if positive, stops enumeration after this many survivors.
	// The countdown is shared across workers, so a parallel run reports
	// exactly min(Limit, survivors) — never Workers x Limit. Which tuples
	// fill the quota is scheduling-dependent when Workers > 1. A run with
	// Checkpoint or Resume rejects a positive Limit: checkpointed runs
	// commit whole tiles, and the tile that reaches the limit is cut
	// short, so per-tile commits cannot honour an exact limit.
	Limit int64

	// ChunkSize > 1 batches the innermost loop: the deepest variable is
	// materialized in blocks of up to ChunkSize values and every residual
	// step — temps, pruning guards, tuple fields — is evaluated over the
	// whole block with a survivor bitmask that short-circuits downstream
	// steps for killed lanes. Survivor tuples, kill counts, and all Stats
	// counters are bit-identical to scalar stepping, including runs that
	// stop early: a stop inside a partial chunk rewinds the counters of
	// the lanes past the stop point, so Stopped runs report exactly the
	// work a scalar run stopping at the same survivor would. 0 or 1
	// selects scalar stepping; the CLIs default to 64.
	ChunkSize int

	// Checkpoint, if non-nil, snapshots enumeration progress at the
	// prefix-tile granularity so an interrupted run can be resumed. It
	// forces the tile-queue schedule even at Workers <= 1, and requires a
	// program with at least one loop. See CheckpointConfig.
	Checkpoint *CheckpointConfig

	// Resume, if non-nil, restores a run from a checkpoint snapshot: the
	// stored split depth is forced (so the tile set is identical), tiles
	// marked done are skipped, and their merged counters are folded into
	// the final Stats. The combined survivor set and funnel counters of
	// an interrupted-then-resumed run are bit-identical to an
	// uninterrupted run. See ResumeState.
	Resume *ResumeState
}

// Engine enumerates a compiled program, counting and pruning.
type Engine interface {
	// Name identifies the backend ("interp", "vm", "compiled").
	Name() string
	// Run enumerates the full space.
	Run(opts Options) (*Stats, error)
	// RunContext is Run under a context: cancellation and deadlines stop
	// the run promptly (all workers observe the shared token), returning
	// the partial Stats with Cancelled set alongside ctx's error.
	RunContext(ctx context.Context, opts Options) (*Stats, error)
}

// PanicError is a panic recovered at a run boundary — a host callback
// (Options.OnTuple or NewOnTuple, a deferred constraint or iterator) or an
// engine defect that would otherwise take down the process. The run that
// hit it aborts and returns the panic as its error; with Workers > 1 the
// pool drains first, so sibling workers exit cleanly.
type PanicError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the stack of the panicking goroutine, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic during enumeration: %v", e.Val)
}

// panicError converts a recovered panic value into the run error:
// expression-language type errors pass through unchanged (they are the
// expected failure mode of dynamic specs), everything else is wrapped in
// PanicError with the captured stack.
func panicError(r any) error {
	var te *expr.TypeError
	if e, ok := r.(error); ok && errors.As(e, &te) {
		return e
	}
	return &PanicError{Val: r, Stack: debug.Stack()}
}

// recoverRunError converts panics into errors at the run boundary, so a
// faulty host callback aborts the run instead of crashing the process.
func recoverRunError(err *error) {
	if r := recover(); r != nil {
		*err = panicError(r)
	}
}

// perWorker returns the options one delivering goroutine runs under: its
// OnTuple is a function of its own from NewOnTuple, or the shared
// OnTuple. A panicking NewOnTuple becomes the error.
func (o Options) perWorker() (_ Options, err error) {
	defer recoverRunError(&err)
	if o.NewOnTuple != nil {
		o.OnTuple, o.NewOnTuple = o.NewOnTuple(), nil
	}
	return o, nil
}

// CountSurvivors is a convenience wrapper: sequential enumeration counting
// survivors only.
func CountSurvivors(e Engine) (int64, error) {
	st, err := e.Run(Options{})
	if err != nil {
		return 0, err
	}
	return st.Survivors, nil
}

// CollectTuples enumerates sequentially and returns every surviving tuple
// (copied). Intended for tests and small spaces.
func CollectTuples(e Engine, limit int64) ([][]int64, *Stats, error) {
	var out [][]int64
	st, err := e.Run(Options{
		Limit: limit,
		OnTuple: func(t []int64) bool {
			cp := make([]int64, len(t))
			copy(cp, t)
			out = append(out, cp)
			return true
		},
	})
	return out, st, err
}
