package engine

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
)

// interpLanes is the interpreter's lane evaluator: one AST walk per step
// per chunk over operand arrays, reading the chunk-resident names from
// the lanes (one associative lookup per name per chunk instead of per
// iteration) and drawing scratch buffers from a cursor arena.
type interpLanes struct {
	env       ienv
	steps     []plan.Step
	laneNames []string
	laneOf    map[string]int
	lane      [][]int64
	size      int
	arena     [][]int64
	cursor    int
}

// attachLanes gives ch the state's lane evaluator and host checks.
func (s *interpState) attachLanes(ch *chunker) {
	prog := s.in.prog
	v := prog.Vector
	ev := &interpLanes{
		env:       s.env,
		steps:     prog.Loops[v.Depth].Steps,
		laneOf:    make(map[string]int, len(v.LaneSlots)),
		laneNames: make([]string, 0, len(v.LaneSlots)),
		lane:      ch.lane,
		size:      ch.size,
	}
	for li, slot := range v.LaneSlots {
		name := prog.Scope.Name(slot)
		ev.laneNames = append(ev.laneNames, name)
		ev.laneOf[name] = li
	}
	for i := range ev.steps {
		if st := &ev.steps[i]; st.Expr == nil {
			// Deferred check: env values pass through unconverted.
			cn := st.Constraint
			ch.steps[i].host = func() bool { return cn.Fn(s.deferredArgs(cn.DeclaredDeps)) }
		}
	}
	ch.ev = ev
	s.chunk = ch
}

func (e *interpLanes) evalStep(i, k int) []int64 {
	e.cursor = 0
	return e.eval(e.steps[i].Expr, k)
}

func (e *interpLanes) bindLane(j int) {
	for li, name := range e.laneNames {
		e.env[name] = expr.IntVal(e.lane[li][j])
	}
}

func (e *interpLanes) tabOuter(t *plan.Table) int64 { return e.env[t.OuterName].I }

// buf hands out a k-lane scratch buffer from the arena; evalStep resets
// the cursor.
func (e *interpLanes) buf(k int) []int64 {
	if e.cursor == len(e.arena) {
		e.arena = append(e.arena, make([]int64, e.size))
	}
	b := e.arena[e.cursor]
	e.cursor++
	return b[:k]
}

// eval walks x once, computing all k lanes per node. Semantics match
// evalMap over numeric values: truthiness is nonzero, equality and
// ordering compare by value, and/or select their operands, arithmetic is
// total. A planned expression holds no string.
func (e *interpLanes) eval(x expr.Expr, k int) []int64 {
	switch n := x.(type) {
	case *expr.Lit:
		return broadcast(e.buf(k), n.V.I)
	case *expr.Ref:
		if li, ok := e.laneOf[n.Name]; ok {
			return e.lane[li][:k]
		}
		v, ok := e.env[n.Name]
		if !ok {
			panic(fmt.Sprintf("interp: NameError: %q is not defined", n.Name))
		}
		return broadcast(e.buf(k), v.I)
	case *expr.Unary:
		xs := e.eval(n.X, k)
		out := e.buf(k)
		vecUnary(n.Op, out, xs)
		return out
	case *expr.Binary:
		ls := e.eval(n.L, k)
		rs := e.eval(n.R, k)
		out := e.buf(k)
		vecBinary(n.Op, out, ls, rs)
		return out
	case *expr.Ternary:
		cs := e.eval(n.Cond, k)
		ts := e.eval(n.Then, k)
		es := e.eval(n.Else, k)
		out := e.buf(k)
		vecSelect(out, cs, ts, es)
		return out
	case *expr.Call:
		out := e.buf(k)
		if n.Fn == "abs" {
			vecBuiltin(n.Fn, out, e.eval(n.Args[0], k))
			return out
		}
		copy(out, e.eval(n.Args[0], k))
		for _, a := range n.Args[1:] {
			vecBuiltin(n.Fn, out, e.eval(a, k))
		}
		return out
	case *expr.Table2D:
		rs := e.eval(n.Row, k)
		cs := e.eval(n.Col, k)
		out := e.buf(k)
		vecTable(out, rs, cs, n.Data, n.Default)
		return out
	default:
		panic(fmt.Sprintf("interp: unsupported expression type %T", x))
	}
}
