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
// (FuzzCompileInt checks this). A string literal, an unbound reference
// and an unknown node do not compile; the planner rejects every program
// whose steps or domains do not, so no register ever holds a string.
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

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
