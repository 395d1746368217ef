package expr

import "fmt"

// IntFn is an expression compiled to a native closure over an int64
// register file: register i holds the value of slot i, booleans as 0/1.
// The compiled backend, the VM's host calls and the planner's censuses,
// Monte Carlo draws and table rows all run on it.
type IntFn func(r []int64) int64

// CompileInt lowers a bound expression to an IntFn. The closure returns
// what Eval returns, read through AsInt with booleans as 0/1, whenever
// every slot the expression reads holds an integer or a boolean
// (FuzzCompileInt and TestCompileIntShapes check this). A string literal,
// an unbound reference and an unknown node do not compile; the planner
// rejects every program whose steps or domains do not, so no register
// ever holds a string.
//
// An arithmetic or comparison node reads a register or constant operand
// in place (compileLeafBinary); every other node, and a leaf on its own,
// gets a closure of its own.
func CompileInt(e Expr) (IntFn, error) {
	if err := intLeafError(e); err != nil {
		return nil, err
	}
	switch n := e.(type) {
	case *Lit:
		v := n.V.I
		return func([]int64) int64 { return v }, nil
	case *Ref:
		slot := n.Slot
		return func(r []int64) int64 { return r[slot] }, nil
	case *Unary:
		x, err := CompileInt(n.X)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case OpNeg:
			return func(r []int64) int64 { return -x(r) }, nil
		case OpNot:
			return func(r []int64) int64 { return b2i(x(r) == 0) }, nil
		}
		return nil, fmt.Errorf("bad unary op %v", n.Op)
	case *Binary:
		if inPlaceOp(n.Op) && (isLeaf(n.L) || isLeaf(n.R)) {
			return compileLeafBinary(n)
		}
		l, err := CompileInt(n.L)
		if err != nil {
			return nil, err
		}
		r, err := CompileInt(n.R)
		if err != nil {
			return nil, err
		}
		return compileBinary(n.Op, l, r)
	case *Ternary:
		cond, err := CompileInt(n.Cond)
		if err != nil {
			return nil, err
		}
		then, err := CompileInt(n.Then)
		if err != nil {
			return nil, err
		}
		els, err := CompileInt(n.Else)
		if err != nil {
			return nil, err
		}
		return func(r []int64) int64 {
			if cond(r) != 0 {
				return then(r)
			}
			return els(r)
		}, nil
	case *Call:
		return compileCall(n)
	case *Table2D:
		row, err := CompileInt(n.Row)
		if err != nil {
			return nil, err
		}
		col, err := CompileInt(n.Col)
		if err != nil {
			return nil, err
		}
		data, def := n.Data, n.Default
		return func(r []int64) int64 {
			i, j := row(r), col(r)
			if i < 0 || i >= int64(len(data)) {
				return def
			}
			rw := data[i]
			if j < 0 || j >= int64(len(rw)) {
				return def
			}
			return rw[j]
		}, nil
	}
	return nil, fmt.Errorf("unsupported expression type %T", e)
}

// intLeafError returns why a literal or a reference cannot be read from
// an int64 register file, and nil for every other node: a string literal
// or an unbound reference.
func intLeafError(e Expr) error {
	switch n := e.(type) {
	case *Lit:
		if n.V.K == Str {
			return fmt.Errorf("string literal %s cannot be compiled", n.V)
		}
	case *Ref:
		if n.Slot < 0 {
			return fmt.Errorf("unbound reference %q", n.Name)
		}
	}
	return nil
}

func compileCall(n *Call) (IntFn, error) {
	args := make([]IntFn, len(n.Args))
	for i, a := range n.Args {
		fn, err := CompileInt(a)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	switch n.Fn {
	case "min":
		return func(r []int64) int64 {
			best := args[0](r)
			for _, a := range args[1:] {
				if v := a(r); v < best {
					best = v
				}
			}
			return best
		}, nil
	case "max":
		return func(r []int64) int64 {
			best := args[0](r)
			for _, a := range args[1:] {
				if v := a(r); v > best {
					best = v
				}
			}
			return best
		}, nil
	case "abs":
		return func(r []int64) int64 {
			v := args[0](r)
			if v < 0 {
				return -v
			}
			return v
		}, nil
	}
	return nil, fmt.Errorf("unknown builtin %q", n.Fn)
}

func compileBinary(op Op, l, r IntFn) (IntFn, error) {
	switch op {
	case OpAdd:
		return func(reg []int64) int64 { return l(reg) + r(reg) }, nil
	case OpSub:
		return func(reg []int64) int64 { return l(reg) - r(reg) }, nil
	case OpMul:
		return func(reg []int64) int64 { return l(reg) * r(reg) }, nil
	case OpDiv:
		return func(reg []int64) int64 { return FloorDiv(l(reg), r(reg)) }, nil
	case OpMod:
		return func(reg []int64) int64 { return FloorMod(l(reg), r(reg)) }, nil
	case OpEq:
		return func(reg []int64) int64 { return b2i(l(reg) == r(reg)) }, nil
	case OpNe:
		return func(reg []int64) int64 { return b2i(l(reg) != r(reg)) }, nil
	case OpLt:
		return func(reg []int64) int64 { return b2i(l(reg) < r(reg)) }, nil
	case OpLe:
		return func(reg []int64) int64 { return b2i(l(reg) <= r(reg)) }, nil
	case OpGt:
		return func(reg []int64) int64 { return b2i(l(reg) > r(reg)) }, nil
	case OpGe:
		return func(reg []int64) int64 { return b2i(l(reg) >= r(reg)) }, nil
	case OpAnd:
		return func(reg []int64) int64 {
			if v := l(reg); v == 0 {
				return v
			}
			return r(reg)
		}, nil
	case OpOr:
		return func(reg []int64) int64 {
			if v := l(reg); v != 0 {
				return v
			}
			return r(reg)
		}, nil
	}
	return nil, fmt.Errorf("bad binary op %v", op)
}

// inPlaceOp reports whether compileLeafBinary compiles op: the arithmetic
// and comparison operators. and/or keep the generic path.
func inPlaceOp(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

func isLeaf(e Expr) bool {
	switch e.(type) {
	case *Ref, *Lit:
		return true
	}
	return false
}

// compileLeafBinary compiles an inPlaceOp node with at least one register
// or constant operand to one closure that reads that operand in place:
// r[slot] or the constant, with no closure of its own. The operator is
// fixed when the closure is built, so each call costs one indirect call
// per subtree operand and nothing more. A node of two constants is
// evaluated once, here.
func compileLeafBinary(n *Binary) (IntFn, error) {
	if err := intLeafError(n.L); err != nil {
		return nil, err
	}
	if err := intLeafError(n.R); err != nil {
		return nil, err
	}
	op := n.Op
	lr, lRef := n.L.(*Ref)
	ll, lLit := n.L.(*Lit)
	rr, rRef := n.R.(*Ref)
	rl, rLit := n.R.(*Lit)
	switch {
	case lLit && rLit:
		v := refLit(op, 0, rl.V.I)([]int64{ll.V.I})
		return func([]int64) int64 { return v }, nil
	case lRef && rLit:
		return refLit(op, lr.Slot, rl.V.I), nil
	case lRef && rRef:
		return refRef(op, lr.Slot, rr.Slot), nil
	case lLit && rRef:
		return litRef(op, ll.V.I, rr.Slot), nil
	case lRef || lLit:
		g, err := CompileInt(n.R)
		if err != nil {
			return nil, err
		}
		if lRef {
			return refFn(op, lr.Slot, g), nil
		}
		return litFn(op, ll.V.I, g), nil
	}
	f, err := CompileInt(n.L)
	if err != nil {
		return nil, err
	}
	if rRef {
		return fnRef(op, f, rr.Slot), nil
	}
	return fnLit(op, f, rl.V.I), nil
}

// The seven operand shapes with a leaf, one closure per inPlaceOp each:
// registers a and b are read in place, k is a constant, and f and g are
// the compiled left and right subtrees. The closures are written out one
// by one so that none switches on the operator when it runs.

func refLit(op Op, a int, k int64) IntFn {
	switch op {
	case OpAdd:
		return func(r []int64) int64 { return r[a] + k }
	case OpSub:
		return func(r []int64) int64 { return r[a] - k }
	case OpMul:
		return func(r []int64) int64 { return r[a] * k }
	case OpDiv:
		return func(r []int64) int64 { return FloorDiv(r[a], k) }
	case OpMod:
		return func(r []int64) int64 { return FloorMod(r[a], k) }
	case OpEq:
		return func(r []int64) int64 { return b2i(r[a] == k) }
	case OpNe:
		return func(r []int64) int64 { return b2i(r[a] != k) }
	case OpLt:
		return func(r []int64) int64 { return b2i(r[a] < k) }
	case OpLe:
		return func(r []int64) int64 { return b2i(r[a] <= k) }
	case OpGt:
		return func(r []int64) int64 { return b2i(r[a] > k) }
	case OpGe:
		return func(r []int64) int64 { return b2i(r[a] >= k) }
	}
	panic("expr: refLit: " + op.String())
}

func refRef(op Op, a, b int) IntFn {
	switch op {
	case OpAdd:
		return func(r []int64) int64 { return r[a] + r[b] }
	case OpSub:
		return func(r []int64) int64 { return r[a] - r[b] }
	case OpMul:
		return func(r []int64) int64 { return r[a] * r[b] }
	case OpDiv:
		return func(r []int64) int64 { return FloorDiv(r[a], r[b]) }
	case OpMod:
		return func(r []int64) int64 { return FloorMod(r[a], r[b]) }
	case OpEq:
		return func(r []int64) int64 { return b2i(r[a] == r[b]) }
	case OpNe:
		return func(r []int64) int64 { return b2i(r[a] != r[b]) }
	case OpLt:
		return func(r []int64) int64 { return b2i(r[a] < r[b]) }
	case OpLe:
		return func(r []int64) int64 { return b2i(r[a] <= r[b]) }
	case OpGt:
		return func(r []int64) int64 { return b2i(r[a] > r[b]) }
	case OpGe:
		return func(r []int64) int64 { return b2i(r[a] >= r[b]) }
	}
	panic("expr: refRef: " + op.String())
}

func litRef(op Op, k int64, b int) IntFn {
	switch op {
	case OpAdd:
		return func(r []int64) int64 { return k + r[b] }
	case OpSub:
		return func(r []int64) int64 { return k - r[b] }
	case OpMul:
		return func(r []int64) int64 { return k * r[b] }
	case OpDiv:
		return func(r []int64) int64 { return FloorDiv(k, r[b]) }
	case OpMod:
		return func(r []int64) int64 { return FloorMod(k, r[b]) }
	case OpEq:
		return func(r []int64) int64 { return b2i(k == r[b]) }
	case OpNe:
		return func(r []int64) int64 { return b2i(k != r[b]) }
	case OpLt:
		return func(r []int64) int64 { return b2i(k < r[b]) }
	case OpLe:
		return func(r []int64) int64 { return b2i(k <= r[b]) }
	case OpGt:
		return func(r []int64) int64 { return b2i(k > r[b]) }
	case OpGe:
		return func(r []int64) int64 { return b2i(k >= r[b]) }
	}
	panic("expr: litRef: " + op.String())
}

func fnLit(op Op, f IntFn, k int64) IntFn {
	switch op {
	case OpAdd:
		return func(r []int64) int64 { return f(r) + k }
	case OpSub:
		return func(r []int64) int64 { return f(r) - k }
	case OpMul:
		return func(r []int64) int64 { return f(r) * k }
	case OpDiv:
		return func(r []int64) int64 { return FloorDiv(f(r), k) }
	case OpMod:
		return func(r []int64) int64 { return FloorMod(f(r), k) }
	case OpEq:
		return func(r []int64) int64 { return b2i(f(r) == k) }
	case OpNe:
		return func(r []int64) int64 { return b2i(f(r) != k) }
	case OpLt:
		return func(r []int64) int64 { return b2i(f(r) < k) }
	case OpLe:
		return func(r []int64) int64 { return b2i(f(r) <= k) }
	case OpGt:
		return func(r []int64) int64 { return b2i(f(r) > k) }
	case OpGe:
		return func(r []int64) int64 { return b2i(f(r) >= k) }
	}
	panic("expr: fnLit: " + op.String())
}

func fnRef(op Op, f IntFn, b int) IntFn {
	switch op {
	case OpAdd:
		return func(r []int64) int64 { return f(r) + r[b] }
	case OpSub:
		return func(r []int64) int64 { return f(r) - r[b] }
	case OpMul:
		return func(r []int64) int64 { return f(r) * r[b] }
	case OpDiv:
		return func(r []int64) int64 { return FloorDiv(f(r), r[b]) }
	case OpMod:
		return func(r []int64) int64 { return FloorMod(f(r), r[b]) }
	case OpEq:
		return func(r []int64) int64 { return b2i(f(r) == r[b]) }
	case OpNe:
		return func(r []int64) int64 { return b2i(f(r) != r[b]) }
	case OpLt:
		return func(r []int64) int64 { return b2i(f(r) < r[b]) }
	case OpLe:
		return func(r []int64) int64 { return b2i(f(r) <= r[b]) }
	case OpGt:
		return func(r []int64) int64 { return b2i(f(r) > r[b]) }
	case OpGe:
		return func(r []int64) int64 { return b2i(f(r) >= r[b]) }
	}
	panic("expr: fnRef: " + op.String())
}

func refFn(op Op, a int, g IntFn) IntFn {
	switch op {
	case OpAdd:
		return func(r []int64) int64 { return r[a] + g(r) }
	case OpSub:
		return func(r []int64) int64 { return r[a] - g(r) }
	case OpMul:
		return func(r []int64) int64 { return r[a] * g(r) }
	case OpDiv:
		return func(r []int64) int64 { return FloorDiv(r[a], g(r)) }
	case OpMod:
		return func(r []int64) int64 { return FloorMod(r[a], g(r)) }
	case OpEq:
		return func(r []int64) int64 { return b2i(r[a] == g(r)) }
	case OpNe:
		return func(r []int64) int64 { return b2i(r[a] != g(r)) }
	case OpLt:
		return func(r []int64) int64 { return b2i(r[a] < g(r)) }
	case OpLe:
		return func(r []int64) int64 { return b2i(r[a] <= g(r)) }
	case OpGt:
		return func(r []int64) int64 { return b2i(r[a] > g(r)) }
	case OpGe:
		return func(r []int64) int64 { return b2i(r[a] >= g(r)) }
	}
	panic("expr: refFn: " + op.String())
}

func litFn(op Op, k int64, g IntFn) IntFn {
	switch op {
	case OpAdd:
		return func(r []int64) int64 { return k + g(r) }
	case OpSub:
		return func(r []int64) int64 { return k - g(r) }
	case OpMul:
		return func(r []int64) int64 { return k * g(r) }
	case OpDiv:
		return func(r []int64) int64 { return FloorDiv(k, g(r)) }
	case OpMod:
		return func(r []int64) int64 { return FloorMod(k, g(r)) }
	case OpEq:
		return func(r []int64) int64 { return b2i(k == g(r)) }
	case OpNe:
		return func(r []int64) int64 { return b2i(k != g(r)) }
	case OpLt:
		return func(r []int64) int64 { return b2i(k < g(r)) }
	case OpLe:
		return func(r []int64) int64 { return b2i(k <= g(r)) }
	case OpGt:
		return func(r []int64) int64 { return b2i(k > g(r)) }
	case OpGe:
		return func(r []int64) int64 { return b2i(k >= g(r)) }
	}
	panic("expr: litFn: " + op.String())
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
