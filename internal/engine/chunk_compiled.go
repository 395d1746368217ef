package engine

import (
	"fmt"

	"repro/internal/expr"
)

// compiledLanes is the compiled backend's lane evaluator: one vecFn per
// innermost step, nil for tabulated and host checks.
type compiledLanes struct {
	regLanes
	k   int // lanes filled in the block being evaluated
	vec []vecFn
}

// vecFn evaluates an expression over all k lanes of a block at once,
// returning a slice of k results: broadcast reads come from the register
// file, lane-resident ones from the lane arrays. Implementations own
// their scratch buffer (or alias a lane array for resident refs), so a
// vecFn tree is single-threaded — each state/worker compiles its own.
type vecFn func(c *compiledLanes) []int64

func (e *compiledLanes) evalStep(i, k int) []int64 {
	e.k = k
	return e.vec[i](e)
}

// attachLanes gives ch the state's lane evaluator and host checks. The
// innermost expressions already compiled to scalar closures, so they
// are known to lower.
func (s *compiledState) attachLanes(ch *chunker) {
	prog := s.c.prog
	v := prog.Vector
	ev := &compiledLanes{regLanes: newRegLanes(prog, ch, s.reg, s.c.settings)}
	steps := prog.Loops[v.Depth].Steps
	ev.vec = make([]vecFn, len(steps))
	for i := range steps {
		if cs := &ch.steps[i]; cs.tab < 0 && cs.host == nil {
			ev.vec[i] = compileVecExpr(steps[i].Expr, v.LaneOf, ch.size)
		}
	}
	ch.ev = ev
	s.chunk = ch
}

// compileVecExpr lowers a bound, chunk-eligible expression to a
// lane-wise closure: one call evaluates all k lanes of a chunk.
func compileVecExpr(e expr.Expr, laneOf []int, size int) vecFn {
	if n, ok := e.(*expr.Ref); ok && laneOf[n.Slot] >= 0 {
		li := laneOf[n.Slot]
		return func(c *compiledLanes) []int64 { return c.lane[li][:c.k] }
	}
	buf := make([]int64, size)
	switch n := e.(type) {
	case *expr.Lit:
		broadcast(buf, n.V.I)
		return func(c *compiledLanes) []int64 { return buf[:c.k] }
	case *expr.Ref:
		slot := n.Slot
		return func(c *compiledLanes) []int64 { return broadcast(buf[:c.k], c.reg[slot]) }
	case *expr.Unary:
		x, op := compileVecExpr(n.X, laneOf, size), n.Op
		return func(c *compiledLanes) []int64 {
			out := buf[:c.k]
			vecUnary(op, out, x(c))
			return out
		}
	case *expr.Binary:
		l, r, op := compileVecExpr(n.L, laneOf, size), compileVecExpr(n.R, laneOf, size), n.Op
		return func(c *compiledLanes) []int64 {
			out := buf[:c.k]
			vecBinary(op, out, l(c), r(c))
			return out
		}
	case *expr.Ternary:
		cond := compileVecExpr(n.Cond, laneOf, size)
		then := compileVecExpr(n.Then, laneOf, size)
		els := compileVecExpr(n.Else, laneOf, size)
		return func(c *compiledLanes) []int64 {
			out := buf[:c.k]
			vecSelect(out, cond(c), then(c), els(c))
			return out
		}
	case *expr.Call:
		args := make([]vecFn, len(n.Args))
		for i, a := range n.Args {
			args[i] = compileVecExpr(a, laneOf, size)
		}
		fn := n.Fn
		return func(c *compiledLanes) []int64 {
			out := buf[:c.k]
			if fn == "abs" {
				vecBuiltin(fn, out, args[0](c))
				return out
			}
			copy(out, args[0](c))
			for _, a := range args[1:] {
				vecBuiltin(fn, out, a(c))
			}
			return out
		}
	case *expr.Table2D:
		row, col := compileVecExpr(n.Row, laneOf, size), compileVecExpr(n.Col, laneOf, size)
		data, def := n.Data, n.Default
		return func(c *compiledLanes) []int64 {
			out := buf[:c.k]
			vecTable(out, row(c), col(c), data, def)
			return out
		}
	}
	panic(fmt.Sprintf("engine: unsupported expression type %T", e))
}
