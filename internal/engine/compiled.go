package engine

import (
	"context"
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// Compiled is the closure-compilation backend: every expression becomes a
// native Go closure over a flat int64 register file, and range loops become
// native for loops. No boxed values, no per-operation dispatch beyond one
// indirect call per compiled node. This is the repository's stand-in for the
// standard C the paper's translator emits (§XI.D): like the generated C it
// removes all interpretation overhead from the hot loop, which is where the
// paper's 250× speedup over the Python front end comes from. The planner
// folds every string away, so every planned expression compiles.
type Compiled struct {
	prog     *plan.Program
	loops    []compiledLoop
	prelude  []compiledStep
	settings map[int]expr.Value // slot -> original value (strings for hosts)
	initInts []slotInit
}

type slotInit struct {
	slot int
	v    int64
}

type compiledStep struct {
	check        bool
	slot         int // assign target
	fn           expr.IntFn
	statsID      int
	deferredFn   func(r []int64) bool // non-nil for deferred constraints
	tabIdx       int                  // plan table index, -1 for the expression path
	tabOuterSlot int                  // binary-table outer register, -1 for unary
}

// hostDom adapts a deferred or closure iterator to the raw register file.
type hostDom struct {
	iter     *space.Iterator
	argSlots []int
	settings map[int]expr.Value
}

func (d *hostDom) Iterate(r []int64, yield func(int64) bool) bool {
	args := hostArgs(r, d.argSlots, d.settings)
	switch d.iter.Kind {
	case space.DeferredIter:
		dom := d.iter.Deferred(args)
		if dom == nil {
			return true
		}
		return dom.Iterate(&expr.Env{}, yield)
	case space.ClosureIter:
		done := true
		d.iter.Generator(args, func(v int64) bool {
			if !yield(v) {
				done = false
				return false
			}
			return true
		})
		return done
	}
	panic(fmt.Sprintf("engine: hostDom on %v iterator", d.iter.Kind))
}

// hostArgs boxes the register values of slots for a host callback;
// settings pass through as set, strings included.
func hostArgs(r []int64, slots []int, settings map[int]expr.Value) []expr.Value {
	args := make([]expr.Value, len(slots))
	for i, s := range slots {
		if v, ok := settings[s]; ok {
			args[i] = v
		} else {
			args[i] = expr.IntVal(r[s])
		}
	}
	return args
}

// deferredCheck returns a deferred check step's predicate over the
// register file.
func deferredCheck(st *plan.Step, settings map[int]expr.Value) func(r []int64) bool {
	cn, slots := st.Constraint, st.ArgSlots
	return func(r []int64) bool { return cn.Fn(hostArgs(r, slots, settings)) }
}

type compiledLoop struct {
	slot   int
	domain space.IntDomain
	steps  []compiledStep
	// fast path: non-nil when the domain is a plain range, letting the
	// enumerator run the loop inline without the domain indirection.
	rng *space.IntRange
	// bounds is the compiled narrowing recipe when the plan absorbed
	// leading checks into the range (only ever set alongside rng).
	bounds *compiledBounds
}

// NewCompiled compiles prog.
func NewCompiled(prog *plan.Program) (*Compiled, error) {
	c := &Compiled{prog: prog, settings: prog.SettingBySlot()}
	for _, s := range prog.IntSettings() {
		c.initInts = append(c.initInts, slotInit{slot: s.Slot, v: s.V.I})
	}
	var err error
	c.prelude, err = c.compileSteps(prog.Prelude)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	for _, lp := range prog.Loops {
		cl := compiledLoop{slot: lp.Slot}
		if lp.Iter.Kind == space.ExprIter {
			dom, derr := space.CompileDomain(lp.Domain)
			if derr != nil {
				return nil, fmt.Errorf("engine: iterator %s: %w", lp.Iter.Name, derr)
			}
			cl.domain = dom
			if rd, ok := dom.(*space.IntRange); ok {
				cl.rng = rd
				if lp.Bounds != nil {
					cl.bounds, err = lowerLoopBounds(lp.Bounds, lp.Slot, compileBound)
					if err != nil {
						return nil, fmt.Errorf("engine: loop %s bounds: %w", lp.Iter.Name, err)
					}
				}
			}
		} else {
			cl.domain = &hostDom{iter: lp.Iter, argSlots: lp.ArgSlots, settings: c.settings}
		}
		cl.steps, err = c.compileSteps(lp.Steps)
		if err != nil {
			return nil, fmt.Errorf("engine: loop %s: %w", lp.Iter.Name, err)
		}
		c.loops = append(c.loops, cl)
	}
	return c, nil
}

func (c *Compiled) compileSteps(steps []plan.Step) ([]compiledStep, error) {
	out := make([]compiledStep, 0, len(steps))
	for i := range steps {
		st := &steps[i]
		cs := compiledStep{
			check: st.Kind == plan.CheckStep, slot: st.Slot, statsID: st.StatsID,
			tabIdx: -1, tabOuterSlot: -1,
		}
		if tab := c.prog.Tab; tab != nil && cs.check {
			if ti, ok := tab.ByStats[st.StatsID]; ok {
				cs.tabIdx = ti
				if t := tab.Tables[ti]; t.Kind == plan.BinaryTable {
					cs.tabOuterSlot = t.OuterSlot
				}
			}
		}
		switch {
		case cs.tabIdx >= 0:
			// The table answers every value the loop binds.
		case cs.check && st.Constraint.Deferred():
			cs.deferredFn = deferredCheck(st, c.settings)
		default:
			fn, err := expr.CompileInt(st.Expr)
			if err != nil {
				return nil, fmt.Errorf("step %s: %w", st.Name, err)
			}
			cs.fn = fn
		}
		out = append(out, cs)
	}
	return out, nil
}

// Name implements Engine.
func (c *Compiled) Name() string { return "compiled" }

// Run implements Engine.
func (c *Compiled) Run(opts Options) (*Stats, error) {
	return runContext(context.Background(), c.prog, c, opts)
}

// RunContext implements Engine.
func (c *Compiled) RunContext(ctx context.Context, opts Options) (*Stats, error) {
	return runContext(ctx, c.prog, c, opts)
}

// compiledState is one worker of the compiled backend: a private register
// file, Stats and scratch kept across tiles.
type compiledState struct {
	c     *Compiled
	reg   []int64
	stats *Stats
	ctl   *runCtl
	out   sink
	chunk *chunker    // non-nil when the innermost loop runs chunked
	tabx  *tabExec    // non-nil when the plan tabulated constraints
	depth int         // prefix depth the worker resumes below
	last  int         // deepest level it enumerates
	leaf  func(int64) // non-nil on a tiling level (see backend)
	// bodies holds each non-range loop's body, bound once so that
	// walking its domain does not allocate on every loop entry.
	bodies []func(int64) bool
}

// newWorker implements backend.
func (c *Compiled) newWorker(opts Options, ctl *runCtl, depth int, leaf func(int64)) (tileWorker, error) {
	s := &compiledState{
		c:      c,
		reg:    make([]int64, c.prog.NumSlots()),
		stats:  NewStats(c.prog),
		ctl:    ctl,
		depth:  depth,
		last:   len(c.loops) - 1,
		leaf:   leaf,
		bodies: make([]func(int64) bool, len(c.loops)),
	}
	if leaf != nil {
		s.last = depth
	}
	for _, in := range c.initInts {
		s.reg[in.slot] = in.v
	}
	for d := range c.loops {
		if c.loops[d].rng == nil {
			s.bodies[d] = func(v int64) bool { return s.body(d, v) }
		}
	}
	s.out = newSink(c.prog, opts, ctl, s.stats, s.reg, nil)
	if c.prog.Tab != nil {
		s.tabx = newTabExec(c.prog.Tab)
	}
	if ch := newChunker(c.prog, opts, &s.out, s.tabx); ch != nil {
		s.attachLanes(ch)
	}
	return s, nil
}

func (s *compiledState) counters() *Stats { return s.stats }

// runTile implements tileWorker.
func (s *compiledState) runTile(prefix []int64) (err error) {
	defer recoverRunError(&err)
	c := s.c
	if s.depth > 0 {
		s.replay(c.prelude)
	} else if !s.steps(c.prelude) {
		return nil
	}
	for d, v := range prefix {
		lp := &c.loops[d]
		s.reg[lp.slot] = v
		s.replay(lp.steps)
	}
	if s.depth == len(c.loops) {
		s.out.survive()
		return nil
	}
	s.loop(s.depth)
	return nil
}

// replay runs the assignments of an already-checked step list, uncounted.
func (s *compiledState) replay(steps []compiledStep) {
	for i := range steps {
		if st := &steps[i]; !st.check {
			s.reg[st.slot] = st.fn(s.reg)
		}
	}
}

// steps executes a step list, counted; it reports whether every check
// passed.
func (s *compiledState) steps(steps []compiledStep) bool {
	for i := range steps {
		st := &steps[i]
		if !st.check {
			s.reg[st.slot] = st.fn(s.reg)
			continue
		}
		s.stats.Checks[st.statsID]++
		var kill bool
		switch {
		case st.tabIdx >= 0:
			var outer int64
			if st.tabOuterSlot >= 0 {
				outer = s.reg[st.tabOuterSlot]
			}
			kill = s.tabx.scalarKill(st.tabIdx, s.reg[s.tabx.tab.InnerSlot], outer, s.stats)
		case st.deferredFn != nil:
			kill = st.deferredFn(s.reg)
		default:
			kill = st.fn(s.reg) != 0
		}
		if kill {
			s.stats.Kills[st.statsID]++
			return false
		}
	}
	return true
}

func (s *compiledState) body(d int, v int64) bool {
	if s.ctl.cancelled() {
		return false
	}
	lp := &s.c.loops[d]
	s.reg[lp.slot] = v
	s.stats.LoopVisits[d]++
	if !s.steps(lp.steps) {
		return true
	}
	if d == s.last {
		if s.leaf != nil {
			s.leaf(v)
			return true
		}
		return s.out.survive()
	}
	return s.loop(d + 1)
}

func (s *compiledState) loop(d int) bool {
	lp := &s.c.loops[d]
	ch := s.chunk
	if ch != nil && d != ch.depth {
		ch = nil
	}
	if lp.rng != nil {
		start, stop, step := lp.rng.Span(s.reg)
		if step > 0 && lp.bounds != nil {
			start, stop = narrowRange(lp.bounds, s.reg, start, stop, step, s.stats, d)
		}
		if ch != nil {
			return ch.pushRange(start, stop, step) && ch.flush()
		}
		if step > 0 {
			for v := start; v < stop; v += step {
				if !s.body(d, v) {
					return false
				}
			}
		} else if step < 0 {
			for v := start; v > stop; v += step {
				if !s.body(d, v) {
					return false
				}
			}
		}
		return true
	}
	if ch != nil {
		return lp.domain.Iterate(s.reg, ch.yield) && ch.flush()
	}
	return lp.domain.Iterate(s.reg, s.bodies[d])
}
