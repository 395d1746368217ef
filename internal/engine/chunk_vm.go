package engine

import (
	"fmt"

	"repro/internal/expr"
)

// vmLanes is the VM's lane evaluator. Each innermost step compiles to a
// jump-free program over the scalar opcode set plus opLane and the
// select forms (opAnd, opOr, opSelect), and a stack machine whose slots
// are lane vectors runs it: one dispatch per instruction per chunk.
type vmLanes struct {
	regLanes
	code *vmCode
	size int
	stk  [][]int64 // operand stack; a slot may alias a lane array
	pool [][]int64 // owned result buffer per stack depth
}

// buf returns the result buffer of stack depth d, k lanes long.
func (v *vmLanes) buf(d, k int) []int64 {
	for d >= len(v.pool) {
		v.pool = append(v.pool, make([]int64, v.size))
	}
	return v.pool[d][:k]
}

func (v *vmLanes) evalStep(i, k int) []int64 {
	stk := v.stk[:0]
	for _, in := range v.code.lanes[i] {
		n := len(stk)
		switch in.op {
		case opPushC:
			stk = append(stk, broadcast(v.buf(n, k), v.code.consts[in.a]))
		case opLoad:
			stk = append(stk, broadcast(v.buf(n, k), v.reg[in.a]))
		case opLane:
			stk = append(stk, v.lane[in.a][:k])
		case opNeg, opNot:
			op := expr.OpNeg
			if in.op == opNot {
				op = expr.OpNot
			}
			out := v.buf(n-1, k)
			vecUnary(op, out, stk[n-1])
			stk[n-1] = out
		case opAbs:
			out := v.buf(n-1, k)
			vecBuiltin("abs", out, stk[n-1])
			stk[n-1] = out
		case opMinN, opMaxN:
			fn, base := "min", n-int(in.a)
			if in.op == opMaxN {
				fn = "max"
			}
			out := v.buf(base, k)
			copy(out, stk[base])
			for _, x := range stk[base+1:] {
				vecBuiltin(fn, out, x)
			}
			stk = stk[:base+1]
			stk[base] = out
		case opSelect:
			out := v.buf(n-3, k)
			vecSelect(out, stk[n-3], stk[n-2], stk[n-1])
			stk = stk[:n-2]
			stk[n-3] = out
		case opTable:
			out := v.buf(n-2, k)
			vecTable(out, stk[n-2], stk[n-1], v.code.tables[in.a], int64(in.b))
			stk = stk[:n-1]
			stk[n-2] = out
		case opAdd, opSub, opMul, opDiv, opMod, opEq, opNe, opLt, opLe, opGt, opGe, opAnd, opOr:
			out := v.buf(n-2, k)
			vecBinary(binOps[in.op], out, stk[n-2], stk[n-1])
			stk = stk[:n-1]
			stk[n-2] = out
		default:
			panic(fmt.Sprintf("vm: opcode %d in a lane program", in.op))
		}
	}
	v.stk = stk
	return stk[0]
}

// attachLanes gives ch the executor's lane evaluator and host checks.
func (x *vmExec) attachLanes(ch *chunker) {
	prog := x.vm.prog
	ch.ev = &vmLanes{
		regLanes: newRegLanes(prog, ch, x.reg, prog.SettingBySlot()),
		code:     x.code,
		size:     ch.size,
	}
	x.chunk = ch
}
