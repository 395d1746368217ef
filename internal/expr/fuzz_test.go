package expr

import (
	"math"
	"testing"
)

// The byte code FuzzCompileInt decodes into an expression tree, in prefix
// order. A byte names a node (its value modulo fzNodes); the bytes after
// it give its operands. Input that runs out reads as zero bytes, and a
// node at the depth limit is read as a leaf.
const (
	fzLit = iota // next byte: an entry of fuzzLits
	fzX          // fzX, fzY, fzZ: the slots x, y and z
	fzY
	fzZ
	fzTrue // fzTrue, fzFalse: boolean literals
	fzFalse
	fzNeg   // one operand
	fzNot   // one operand
	fzAbs   // one operand
	fzBin   // next byte: an entry of fuzzOps; two operands
	fzIf    // cond, then, else
	fzMin   // next byte: 1 + b%3 operands
	fzMax   // next byte: 1 + b%3 operands
	fzTable // row, col into fuzzTable
	fzNodes
)

// fuzzLits are the literals the byte code can name: the int64 limits and
// the small values around the edges of division and modulus.
var fuzzLits = []int64{0, 1, -1, 2, -2, 3, 5, 7, -7, 64, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 1 << 32, -(1 << 32)}

var fuzzOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr}

// fuzzTable is ragged, so column bounds differ by row.
var fuzzTable = &Table2D{Name: "T", Data: [][]int64{{1, 2, 3}, {4, 5}, {}}, Default: -9}

// fuzzDepth bounds the decoded tree.
const fuzzDepth = 6

type fuzzDecoder struct{ b []byte }

func (d *fuzzDecoder) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *fuzzDecoder) expr(depth int) Expr {
	node := d.next() % fzNodes
	if depth == 0 && node > fzFalse {
		node %= fzFalse + 1
	}
	switch node {
	case fzLit:
		return IntLit(fuzzLits[int(d.next())%len(fuzzLits)])
	case fzX, fzY, fzZ:
		slot := int(node - fzX)
		return &Ref{Name: string(rune('x' + slot)), Slot: slot}
	case fzTrue, fzFalse:
		return BoolLit(node == fzTrue)
	case fzNeg:
		return Neg(d.expr(depth - 1))
	case fzNot:
		return Not(d.expr(depth - 1))
	case fzAbs:
		return Abs(d.expr(depth - 1))
	case fzBin:
		op := fuzzOps[int(d.next())%len(fuzzOps)]
		l := d.expr(depth - 1)
		return Bin(op, l, d.expr(depth-1))
	case fzIf:
		c := d.expr(depth - 1)
		t := d.expr(depth - 1)
		return If(c, t, d.expr(depth-1))
	case fzMin, fzMax:
		args := make([]Expr, 1+int(d.next())%3)
		for i := range args {
			args[i] = d.expr(depth - 1)
		}
		if node == fzMin {
			return MinOf(args...)
		}
		return MaxOf(args...)
	}
	row := d.expr(depth - 1)
	return &Table2D{Name: fuzzTable.Name, Data: fuzzTable.Data, Default: fuzzTable.Default, Row: row, Col: d.expr(depth - 1)}
}

// FuzzCompileInt: over three int slots and the fuzzLits literals, the
// closure CompileInt builds must return what Eval returns, read through
// AsInt with booleans as 0/1. Censuses, Monte Carlo draws, table rows and
// the compiled backends all rely on this.
func FuzzCompileInt(f *testing.F) {
	lit := func(v int64) byte {
		for i, l := range fuzzLits {
			if l == v {
				return byte(i)
			}
		}
		panic(v)
	}
	op := func(o Op) byte {
		for i, p := range fuzzOps {
			if p == o {
				return byte(i)
			}
		}
		panic(o)
	}
	for _, seed := range []struct {
		code    []byte
		x, y, z int64
	}{
		{[]byte{fzBin, op(OpDiv), fzLit, lit(math.MinInt64), fzLit, lit(-1)}, 0, 0, 0},
		{[]byte{fzBin, op(OpMod), fzLit, lit(math.MinInt64), fzLit, lit(-1)}, 0, 0, 0},
		{[]byte{fzBin, op(OpDiv), fzX, fzLit, lit(0)}, -7, 0, 0},
		{[]byte{fzBin, op(OpMod), fzX, fzLit, lit(0)}, 7, 0, 0},
		{[]byte{fzBin, op(OpDiv), fzX, fzY}, -7, 2, 0},
		{[]byte{fzBin, op(OpMod), fzX, fzY}, 7, -2, 0},
		{[]byte{fzNeg, fzLit, lit(math.MinInt64)}, 0, 0, 0},
		{[]byte{fzAbs, fzLit, lit(math.MinInt64)}, 0, 0, 0},
		{[]byte{fzBin, op(OpOr), fzLit, lit(0), fzLit, lit(5)}, 0, 0, 0},
		{[]byte{fzBin, op(OpAnd), fzLit, lit(3), fzLit, lit(0)}, 0, 0, 0},
		{[]byte{fzNot, fzX}, 3, 0, 0},
		{[]byte{fzIf, fzBin, op(OpLt), fzX, fzY, fzZ, fzTrue}, 1, 2, 9},
		{[]byte{fzMin, 2, fzX, fzY, fzZ}, 4, -3, math.MaxInt64},
		{[]byte{fzMax, 2, fzX, fzY, fzZ}, 4, -3, math.MinInt64},
		{[]byte{fzTable, fzX, fzY}, -1, 1, 0},
		{[]byte{fzTable, fzX, fzY}, 1, 2, 0},
		{[]byte{fzTable, fzX, fzY}, 0, math.MinInt64, 0},
		{[]byte{fzTable, fzX, fzY}, 5, 0, 0},
		{[]byte{fzBin, op(OpAdd), fzBin, op(OpGe), fzX, fzY, fzTrue}, 2, 2, 0},
		// One seed per operand shape compileLeafBinary reads in place:
		// register·constant, register·register, subtree·constant,
		// subtree·register, register·subtree, constant·subtree and
		// constant·register.
		{[]byte{fzBin, op(OpSub), fzX, fzLit, lit(7)}, math.MinInt64, 0, 0},
		{[]byte{fzBin, op(OpLt), fzX, fzY}, 1, -1, 0},
		{[]byte{fzBin, op(OpMod), fzAbs, fzX, fzLit, lit(-7)}, 9, 0, 0},
		{[]byte{fzBin, op(OpDiv), fzNeg, fzX, fzY}, 7, -2, 0},
		{[]byte{fzBin, op(OpGe), fzX, fzNeg, fzY}, -1, 1, 0},
		{[]byte{fzBin, op(OpSub), fzLit, lit(1), fzAbs, fzX}, math.MinInt64, 0, 0},
		{[]byte{fzBin, op(OpDiv), fzLit, lit(-7), fzX}, 2, 0, 0},
	} {
		f.Add(seed.code, seed.x, seed.y, seed.z)
	}
	f.Fuzz(func(t *testing.T, code []byte, x, y, z int64) {
		e := (&fuzzDecoder{b: code}).expr(fuzzDepth)
		fn, err := CompileInt(e)
		if err != nil {
			t.Fatalf("%s does not compile: %v", e, err)
		}
		env := &Env{Slots: []Value{IntVal(x), IntVal(y), IntVal(z)}}
		want, ok := e.Eval(env).AsInt()
		if !ok {
			t.Fatalf("%s evaluates to a string", e)
		}
		if got := fn([]int64{x, y, z}); got != want {
			t.Fatalf("%s at x=%d y=%d z=%d: closure %d, Eval %d", e, x, y, z, got, want)
		}
	})
}

// TestCompileIntShapes: every operator of fuzzOps, compiled with each
// operand a register, a constant or a subtree (a one-argument max over a
// register) on either side, returns what Eval returns at the int64 edges
// and small values, booleans included. This reaches every closure
// compileLeafBinary writes out, one per operator and operand shape, the
// generic path of two subtrees, and a node of two constants.
func TestCompileIntShapes(t *testing.T) {
	var vals []Value
	for _, v := range []int64{math.MinInt64, -1, 0, 1, 7, math.MaxInt64} {
		vals = append(vals, IntVal(v))
	}
	vals = append(vals, BoolVal(false), BoolVal(true))
	const (
		reg = iota
		lit
		sub
	)
	shapes := []string{"register", "constant", "subtree"}
	operand := func(shape, slot int, v Value) Expr {
		ref := &Ref{Name: string(rune('x' + slot)), Slot: slot}
		switch shape {
		case reg:
			return ref
		case lit:
			return NewLit(v)
		}
		return MaxOf(ref)
	}
	for _, op := range fuzzOps {
		for ls := range shapes {
			for rs := range shapes {
				for _, lv := range vals {
					for _, rv := range vals {
						e := Bin(op, operand(ls, 0, lv), operand(rs, 1, rv))
						fn, err := CompileInt(e)
						if err != nil {
							t.Fatalf("%s does not compile: %v", e, err)
						}
						want, _ := e.Eval(&Env{Slots: []Value{lv, rv}}).AsInt()
						if got := fn([]int64{lv.I, rv.I}); got != want {
							t.Errorf("%s (%s %s %s) at x=%s y=%s: closure %d, Eval %d",
								e, shapes[ls], op, shapes[rs], lv, rv, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCompileIntRejectsStrings: a string literal and an unbound reference
// do not compile, wherever they sit. The planner relies on this to reject
// every string that survives folding.
func TestCompileIntRejectsStrings(t *testing.T) {
	for _, e := range []Expr{
		Eq(&Ref{Name: "x", Slot: 0}, StrLit("a")),
		Add(NewRef("x"), IntLit(1)),
		MinOf(IntLit(1), &Table2D{Name: "T", Row: StrLit("mode"), Col: IntLit(0)}),
		If(&Ref{Name: "x", Slot: 0}, StrLit("big"), IntLit(0)),
	} {
		if _, err := CompileInt(e); err == nil {
			t.Errorf("%s compiled", e)
		}
	}
	if _, err := CompileInt(Lt(&Ref{Name: "x", Slot: 0}, IntLit(3))); err != nil {
		t.Errorf("an int expression failed to compile: %v", err)
	}
}
