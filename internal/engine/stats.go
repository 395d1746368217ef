// Package engine evaluates compiled search-space programs. It provides the
// three backends whose relative performance the paper's evaluation section
// measures —
//
//   - Interp: a tree-walking interpreter over boxed values, the stand-in for
//     the Python front end of Figure 17 (with the while/range/xrange loop
//     protocols as selectable variants);
//   - VM: a stack bytecode virtual machine in the style of Lua 5.1, the
//     stand-in for the earlier Lua-based BEAST backend of Figure 18 (with
//     while/repeat/for loop protocols);
//   - Compiled: closure compilation to native Go code, the stand-in for the
//     generated standard C of Figure 19;
//
// plus one driver for all three. A sequential run is one worker on the
// empty prefix. A parallel or checkpointed run has the backend tile the
// first K loop levels into prefix tasks, one level worker per level, and
// lets a worker pool pull them dynamically — the parallelization §X.B
// says the level sets make possible, generalized past L0 so pruning skew
// cannot strand the pool.
//
// All backends consume the same plan.Program and are required (and
// property-tested) to enumerate identical surviving tuples with identical
// pruning statistics.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// Stats aggregates enumeration counters: how hard each loop worked and how
// many candidates each constraint removed. They drive the pruning-funnel
// report and the visualization (the paper's §III contribution (3) and
// ref [7]).
type Stats struct {
	// LoopVisits[d] counts bindings of the loop variable at depth d.
	LoopVisits []int64

	// Checks[i] and Kills[i] count evaluations and rejections of
	// constraint i (plan StatsID order).
	Checks []int64
	Kills  []int64

	// TempEvals[l] and TempHits[l] count the plan-time expression
	// optimizer's activity at level l (0 = prelude, d+1 = loop depth d):
	// TempEvals counts executions of synthesized temp assignments (each a
	// shared subexpression computed once), TempHits counts temp-slot reads
	// by the steps that would otherwise have recomputed the subexpression,
	// and by the bounds of a narrowed loop, credited to the level that
	// enters it. Neither is counted while the run goes: runContext
	// derives both from the plan and the counters above when the run ends
	// (stepRuns), so they are nil until then. Both stay zero when the
	// program was compiled with DisableCSE.
	TempEvals []int64
	TempHits  []int64

	// BoundsNarrowed[d] counts loop entries at depth d where the plan's
	// bounds-compilation pass actually tightened the range (at least one
	// iteration was skipped); IterationsSkipped[d] counts the body entries
	// those tightenings avoided. Skipped iterations are still credited to
	// the absorbed constraints' Checks/Kills, so funnel totals match a
	// run without narrowing; these counters only expose how much work the
	// narrowed ranges saved. Both stay zero when the program was compiled
	// with DisableNarrowing.
	BoundsNarrowed    []int64
	IterationsSkipped []int64

	// ChunksEvaluated counts innermost-loop blocks evaluated by the
	// chunked execution mode (Options.ChunkSize > 1), and LanesMasked
	// counts lanes a residual check turned off inside those blocks. Both
	// stay zero in scalar mode and — unlike the pruning counters — they
	// are schedule-dependent: tiles are built by level workers, which run
	// scalar, so a split that reaches the innermost loop enumerates it
	// without chunks, and comparisons across schedules must exclude them.
	ChunksEvaluated int64
	LanesMasked     int64

	// Survivors counts tuples that passed every constraint.
	Survivors int64

	// Stopped reports that enumeration ended early (callback returned
	// false or the survivor limit was reached). It is set once by the
	// driver from the shared cancellation token, so it is deterministic
	// even under concurrency.
	Stopped bool

	// Cancelled reports that the run's context was cancelled (deadline or
	// caller cancellation) before enumeration finished. Driver metadata
	// set once alongside the returned ctx error: Merge leaves it alone.
	Cancelled bool

	// SplitDepth and Tiles describe the tiled schedule that produced
	// this run: tiles were value prefixes of the first SplitDepth loops.
	// Both are zero for untiled runs. Driver metadata, not counters:
	// Merge leaves them alone.
	SplitDepth int
	Tiles      int

	// TabulatedChecks counts constraint evaluations served from the
	// plan-time bitset tables instead of the expression evaluator, and
	// RowCacheHits counts binary-table row-cache hits. Like
	// ChunksEvaluated they are mode- and schedule-dependent (scalar vs
	// chunked lanes, early-stop rewinds do not subtract them), so
	// comparisons across modes must exclude them; the pruning counters
	// above stay bit-identical with tabulation on or off.
	TabulatedChecks int64
	RowCacheHits    int64

	// TableBytes is the byte budget the plan committed to constraint
	// tables (unary bitsets plus binary row-cache capacity). Plan
	// metadata copied at construction, not a counter: Merge leaves it
	// alone.
	TableBytes int64

	// ReorderApplied reports that the plan-time loop-order optimizer
	// replaced the declared nest (plan.ReorderInfo), and EstimatedVisits
	// is its cost-model prediction for the chosen order. Plan metadata
	// copied at construction, not counters: Merge leaves them alone.
	ReorderApplied  bool
	EstimatedVisits int64
}

// NewStats returns zeroed counters sized for prog.
func NewStats(prog *plan.Program) *Stats {
	s := &Stats{
		LoopVisits:        make([]int64, len(prog.Loops)),
		Checks:            make([]int64, len(prog.Constraints)),
		Kills:             make([]int64, len(prog.Constraints)),
		BoundsNarrowed:    make([]int64, len(prog.Loops)),
		IterationsSkipped: make([]int64, len(prog.Loops)),
	}
	if ri := prog.Reorder; ri != nil {
		s.ReorderApplied = ri.Applied
		if ri.EstimatedVisits < float64(1<<62) {
			s.EstimatedVisits = int64(ri.EstimatedVisits)
		}
	}
	if tab := prog.Tab; tab != nil {
		s.TableBytes = tab.TableBytes
	}
	return s
}

// Merge adds other's counters into s; the derived TempEvals and TempHits
// are left alone.
func (s *Stats) Merge(other *Stats) {
	for i := range s.LoopVisits {
		s.LoopVisits[i] += other.LoopVisits[i]
	}
	for i := range s.Checks {
		s.Checks[i] += other.Checks[i]
		s.Kills[i] += other.Kills[i]
	}
	for i := range s.BoundsNarrowed {
		s.BoundsNarrowed[i] += other.BoundsNarrowed[i]
		s.IterationsSkipped[i] += other.IterationsSkipped[i]
	}
	s.ChunksEvaluated += other.ChunksEvaluated
	s.LanesMasked += other.LanesMasked
	s.TabulatedChecks += other.TabulatedChecks
	s.RowCacheHits += other.RowCacheHits
	s.Survivors += other.Survivors
	s.Stopped = s.Stopped || other.Stopped
}

// MergeDelta adds the counter difference cur-prev into s: the work one tile
// contributed to a worker's cumulative counters. Flags and metadata are
// untouched — deltas are pure counters.
func (s *Stats) MergeDelta(cur, prev *Stats) {
	for i := range s.LoopVisits {
		s.LoopVisits[i] += cur.LoopVisits[i] - prev.LoopVisits[i]
	}
	for i := range s.Checks {
		s.Checks[i] += cur.Checks[i] - prev.Checks[i]
		s.Kills[i] += cur.Kills[i] - prev.Kills[i]
	}
	for i := range s.BoundsNarrowed {
		s.BoundsNarrowed[i] += cur.BoundsNarrowed[i] - prev.BoundsNarrowed[i]
		s.IterationsSkipped[i] += cur.IterationsSkipped[i] - prev.IterationsSkipped[i]
	}
	s.ChunksEvaluated += cur.ChunksEvaluated - prev.ChunksEvaluated
	s.LanesMasked += cur.LanesMasked - prev.LanesMasked
	s.TabulatedChecks += cur.TabulatedChecks - prev.TabulatedChecks
	s.RowCacheHits += cur.RowCacheHits - prev.RowCacheHits
	s.Survivors += cur.Survivors - prev.Survivors
}

// copyCountersFrom overwrites s's counters with other's, leaving flags and
// metadata alone. Used to advance a per-worker delta baseline.
func (s *Stats) copyCountersFrom(other *Stats) {
	copy(s.LoopVisits, other.LoopVisits)
	copy(s.Checks, other.Checks)
	copy(s.Kills, other.Kills)
	copy(s.BoundsNarrowed, other.BoundsNarrowed)
	copy(s.IterationsSkipped, other.IterationsSkipped)
	s.ChunksEvaluated = other.ChunksEvaluated
	s.LanesMasked = other.LanesMasked
	s.TabulatedChecks = other.TabulatedChecks
	s.RowCacheHits = other.RowCacheHits
	s.Survivors = other.Survivors
}

// Clone returns a deep copy of s.
func (s *Stats) Clone() *Stats {
	cp := *s
	cp.LoopVisits = append([]int64(nil), s.LoopVisits...)
	cp.Checks = append([]int64(nil), s.Checks...)
	cp.Kills = append([]int64(nil), s.Kills...)
	cp.TempEvals = append([]int64(nil), s.TempEvals...)
	cp.TempHits = append([]int64(nil), s.TempHits...)
	cp.BoundsNarrowed = append([]int64(nil), s.BoundsNarrowed...)
	cp.IterationsSkipped = append([]int64(nil), s.IterationsSkipped...)
	return &cp
}

// TotalVisits returns the sum of loop visits across depths: the paper's
// "iterations" count for the loop-nest benchmarks.
func (s *Stats) TotalVisits() int64 {
	var t int64
	for _, v := range s.LoopVisits {
		t += v
	}
	return t
}

// TotalTempEvals returns the number of temp-assignment executions across
// levels: how many times a shared subexpression was actually computed.
func (s *Stats) TotalTempEvals() int64 {
	var t int64
	for _, v := range s.TempEvals {
		t += v
	}
	return t
}

// TotalTempHits returns the number of temp-slot reads across levels: how
// many subexpression evaluations the optimizer's temps replaced.
func (s *Stats) TotalTempHits() int64 {
	var t int64
	for _, v := range s.TempHits {
		t += v
	}
	return t
}

// TotalIterationsSkipped returns the number of loop-body entries the
// narrowed ranges avoided, across depths.
func (s *Stats) TotalIterationsSkipped() int64 {
	var t int64
	for _, v := range s.IterationsSkipped {
		t += v
	}
	return t
}

// ExprOps derives the number of expression-tree nodes the run's steps
// evaluated: for each step, the node count of its expression times the
// number of times the step ran (stepRuns). It is computed from the plan
// and the counters after the run, so it costs nothing in the hot loop,
// and it is the quantity the CSE ablation reduces: temps shrink the
// per-visit node count of every step that shares a subexpression. It
// counts steps only: the Lo/Hi bounds and probes a narrowed loop
// evaluates at every entry are not in it.
func (s *Stats) ExprOps(prog *plan.Program) int64 {
	var total int64
	s.stepRuns(prog, func(st *plan.Step, runs int64) {
		if st.Expr != nil {
			total += int64(exprNodes(st.Expr)) * runs
		}
	}, nil)
	return total
}

// deriveTemps fills TempEvals and TempHits from the plan and the pruning
// counters: a temp assignment is one evaluation per run, every run of a
// step reads its TempRefs temps, and every entry of a narrowed loop reads
// its bounds' TempRefs.
func (s *Stats) deriveTemps(prog *plan.Program) {
	s.TempEvals = make([]int64, len(prog.Loops)+1)
	s.TempHits = make([]int64, len(prog.Loops)+1)
	s.stepRuns(prog, func(st *plan.Step, runs int64) {
		if st.Temp {
			s.TempEvals[st.Depth+1] += runs
		}
		s.TempHits[st.Depth+1] += int64(st.TempRefs) * runs
	}, func(d int, entries int64) {
		if lb := prog.Loops[d].Bounds; lb != nil {
			s.TempHits[d] += int64(lb.TempRefs) * entries
		}
	})
}

// stepRuns walks the plan in nest order and reports how often each step
// ran and each loop was entered, as the counters record them. The prelude
// runs once. A step runs once per visit at its depth that no earlier check
// at that depth killed, and loop d is entered once per prelude pass (d =
// 0) or per visit at depth d-1 that passed every step there, whether its
// range turns out empty or not. A check's kills include the values a
// narrowed range skipped, which never ran it; those are the checks beyond
// its runs, so only the rest reduce the visits left. entry may be nil.
func (s *Stats) stepRuns(prog *plan.Program, step func(st *plan.Step, runs int64), entry func(d int, entries int64)) {
	walk := func(steps []plan.Step, live int64) int64 {
		for i := range steps {
			st := &steps[i]
			step(st, live)
			if st.Kind == plan.CheckStep {
				skipped := max(s.Checks[st.StatsID]-live, 0)
				live -= s.Kills[st.StatsID] - skipped
			}
		}
		return live
	}
	live := walk(prog.Prelude, 1)
	for d, lp := range prog.Loops {
		if entry != nil {
			entry(d, live)
		}
		live = walk(lp.Steps, s.LoopVisits[d])
	}
}

// exprNodes counts the nodes of an expression tree.
func exprNodes(e expr.Expr) int {
	n := 1
	switch x := e.(type) {
	case *expr.Unary:
		n += exprNodes(x.X)
	case *expr.Binary:
		n += exprNodes(x.L) + exprNodes(x.R)
	case *expr.Ternary:
		n += exprNodes(x.Cond) + exprNodes(x.Then) + exprNodes(x.Else)
	case *expr.Call:
		for _, a := range x.Args {
			n += exprNodes(a)
		}
	case *expr.Table2D:
		n += exprNodes(x.Row) + exprNodes(x.Col)
	}
	return n
}

// TotalKills returns the number of pruned candidates across constraints.
func (s *Stats) TotalKills() int64 {
	var t int64
	for _, v := range s.Kills {
		t += v
	}
	return t
}

// PruneRate returns the fraction of checked candidates that were killed at
// the innermost level: kills / (kills + survivors). The paper quotes spaces
// pruned "by as much as 99%" (§VI).
func (s *Stats) PruneRate() float64 {
	total := float64(s.TotalKills() + s.Survivors)
	if total == 0 {
		return 0
	}
	return float64(s.TotalKills()) / total
}

// FunnelRow is one line of the pruning-funnel report.
type FunnelRow struct {
	Name   string
	Class  space.Class
	Checks int64
	Kills  int64
}

// Funnel returns per-constraint rows in plan order.
func (s *Stats) Funnel(prog *plan.Program) []FunnelRow {
	rows := make([]FunnelRow, len(prog.Constraints))
	for i, c := range prog.Constraints {
		rows[i] = FunnelRow{Name: c.Name, Class: c.Class, Checks: s.Checks[i], Kills: s.Kills[i]}
	}
	return rows
}

// FunnelReport renders a fixed-width pruning report: constraints sorted by
// kill count, with the survivor line at the bottom.
func (s *Stats) FunnelReport(prog *plan.Program) string {
	rows := s.Funnel(prog)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Kills > rows[j].Kills })
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-12s %14s %14s %8s\n", "constraint", "class", "checked", "killed", "kill%")
	for _, r := range rows {
		pct := 0.0
		if r.Checks > 0 {
			pct = 100 * float64(r.Kills) / float64(r.Checks)
		}
		fmt.Fprintf(&b, "%-28s %-12s %14d %14d %7.2f%%\n", r.Name, r.Class, r.Checks, r.Kills, pct)
	}
	fmt.Fprintf(&b, "%-28s %-12s %14s %14d\n", "survivors", "", "", s.Survivors)
	fmt.Fprintf(&b, "prune rate: %.4f%% of candidates rejected\n", 100*s.PruneRate())
	if len(prog.Temps) > 0 {
		fmt.Fprintf(&b, "expression temps: %d hoisted, %d evals, %d reuse hits\n",
			len(prog.Temps), s.TotalTempEvals(), s.TotalTempHits())
	}
	if skipped := s.TotalIterationsSkipped(); skipped > 0 {
		var narrowed int64
		for _, v := range s.BoundsNarrowed {
			narrowed += v
		}
		fmt.Fprintf(&b, "bounds narrowing: %d loop entries tightened, %d iterations skipped\n",
			narrowed, skipped)
	}
	if ri := prog.Reorder; ri != nil && ri.Applied {
		fmt.Fprintf(&b, "loop order: %s  (reordered from %s; est. visits %.3g vs %.3g declared)\n",
			strings.Join(ri.Chosen, ","), strings.Join(ri.Declared, ","),
			ri.EstimatedVisits, ri.DeclaredVisits)
	}
	if s.TabulatedChecks > 0 {
		fmt.Fprintf(&b, "constraint tabulation: %d checks served from %d table bytes, %d row-cache hits\n",
			s.TabulatedChecks, s.TableBytes, s.RowCacheHits)
	}
	return b.String()
}
