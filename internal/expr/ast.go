package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Op enumerates the operators of the expression language. They mirror the
// operators Python lets the paper's iterator objects overload (arithmetic,
// relational) plus the ones Python reserves (boolean and/or/not, the ternary
// conditional) that the paper routes through deferred iterators and that we
// support directly in the AST.
type Op uint8

// Operator set, in rough precedence order (low to high).
const (
	OpInvalid Op = iota
	OpOr
	OpAnd
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv // floor division (Python 2 `/` on ints)
	OpMod // floor modulo
	OpNeg
)

var opNames = map[Op]string{
	OpOr: "or", OpAnd: "and", OpNot: "not",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%", OpNeg: "-",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// TypeError is panicked by Eval, and by Fold when it evaluates constant
// operands, when an operation is applied to operands of incompatible kinds
// (for example, adding an integer to a string). The planner reports a
// fold-time one as an error and rejects every string that survives
// folding, so no planned expression raises it. At enumeration time only a
// deferred iterator's host-built domain can (a list of strings), and
// engines surface that as an ordinary error.
type TypeError struct {
	Op   string
	A, B Value
	// Unary marks an operator applied to one operand (negation, abs, a
	// min/max argument, a list element): B is unset and not reported.
	Unary bool
}

func (e *TypeError) Error() string {
	if e.Unary {
		return fmt.Sprintf("expr: invalid operand type for %q: %s", e.Op, e.A.K)
	}
	return fmt.Sprintf("expr: invalid operand types for %q: %s, %s", e.Op, e.A.K, e.B.K)
}

// Env is the evaluation environment: a flat slot array indexed by the slot
// numbers a Scope assigns to names. Engines own one Env per worker.
type Env struct {
	Slots []Value
}

// NewEnv returns an environment with n zero-valued slots.
func NewEnv(n int) *Env { return &Env{Slots: make([]Value, n)} }

// Expr is a node of the expression tree.
//
// Eval computes the node's value in env; all refs must have been resolved by
// Bind first. CollectDeps accumulates the names of free variables. Fold
// returns an equivalent, possibly simpler expression given a partial
// assignment of constant names (plan-time specialization).
type Expr interface {
	Eval(env *Env) Value
	CollectDeps(deps map[string]struct{})
	Fold(consts map[string]Value) Expr
	String() string
}

// Lit is a literal constant.
type Lit struct{ V Value }

// NewLit returns a literal node holding v.
func NewLit(v Value) *Lit { return &Lit{V: v} }

// IntLit returns a literal integer node.
func IntLit(i int64) *Lit { return &Lit{V: IntVal(i)} }

// StrLit returns a literal string node.
func StrLit(s string) *Lit { return &Lit{V: StrVal(s)} }

// BoolLit returns a literal boolean node.
func BoolLit(b bool) *Lit { return &Lit{V: BoolVal(b)} }

func (l *Lit) Eval(*Env) Value                 { return l.V }
func (l *Lit) CollectDeps(map[string]struct{}) {}
func (l *Lit) Fold(map[string]Value) Expr      { return l }
func (l *Lit) String() string                  { return l.V.String() }

// Ref is a reference to a named variable (an iterator, a derived variable,
// or a device/setting parameter). Slot is assigned by Bind; -1 means
// unresolved.
type Ref struct {
	Name string
	Slot int
}

// NewRef returns an unresolved reference to name.
func NewRef(name string) *Ref { return &Ref{Name: name, Slot: -1} }

func (r *Ref) Eval(env *Env) Value {
	return env.Slots[r.Slot]
}

func (r *Ref) CollectDeps(deps map[string]struct{}) { deps[r.Name] = struct{}{} }

func (r *Ref) Fold(consts map[string]Value) Expr {
	if v, ok := consts[r.Name]; ok {
		return &Lit{V: v}
	}
	return r
}

func (r *Ref) String() string { return r.Name }

// Unary applies OpNeg or OpNot to a single operand.
type Unary struct {
	Op Op
	X  Expr
}

// Neg returns the arithmetic negation of x.
func Neg(x Expr) Expr { return &Unary{Op: OpNeg, X: x} }

// Not returns the boolean negation of x.
func Not(x Expr) Expr { return &Unary{Op: OpNot, X: x} }

func (u *Unary) Eval(env *Env) Value {
	v := u.X.Eval(env)
	switch u.Op {
	case OpNeg:
		i, ok := v.AsInt()
		if !ok {
			panic(&TypeError{Op: "-", A: v, Unary: true})
		}
		return IntVal(-i)
	case OpNot:
		return BoolVal(!v.Truthy())
	}
	panic(fmt.Sprintf("expr: bad unary op %v", u.Op))
}

func (u *Unary) CollectDeps(deps map[string]struct{}) { u.X.CollectDeps(deps) }

func (u *Unary) Fold(consts map[string]Value) Expr {
	x := u.X.Fold(consts)
	if lx, ok := x.(*Lit); ok {
		return &Lit{V: (&Unary{Op: u.Op, X: lx}).Eval(nil)}
	}
	return &Unary{Op: u.Op, X: x}
}

func (u *Unary) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("not (%s)", u.X)
	}
	return fmt.Sprintf("-(%s)", u.X)
}

// Binary applies a binary operator. Boolean OpAnd/OpOr short-circuit, the
// property §VIII.A of the paper calls out as an optimization tool for
// constraint expressions.
type Binary struct {
	Op   Op
	L, R Expr
}

// Bin returns the binary expression l op r.
func Bin(op Op, l, r Expr) Expr { return &Binary{Op: op, L: l, R: r} }

// Convenience constructors mirroring the operators the paper's Python
// front end overloads on iterator objects.
func Add(l, r Expr) Expr { return Bin(OpAdd, l, r) }
func Sub(l, r Expr) Expr { return Bin(OpSub, l, r) }
func Mul(l, r Expr) Expr { return Bin(OpMul, l, r) }
func Div(l, r Expr) Expr { return Bin(OpDiv, l, r) }
func Mod(l, r Expr) Expr { return Bin(OpMod, l, r) }
func Eq(l, r Expr) Expr  { return Bin(OpEq, l, r) }
func Ne(l, r Expr) Expr  { return Bin(OpNe, l, r) }
func Lt(l, r Expr) Expr  { return Bin(OpLt, l, r) }
func Le(l, r Expr) Expr  { return Bin(OpLe, l, r) }
func Gt(l, r Expr) Expr  { return Bin(OpGt, l, r) }
func Ge(l, r Expr) Expr  { return Bin(OpGe, l, r) }
func And(l, r Expr) Expr { return Bin(OpAnd, l, r) }
func Or(l, r Expr) Expr  { return Bin(OpOr, l, r) }

func (b *Binary) Eval(env *Env) Value {
	switch b.Op {
	case OpAnd:
		l := b.L.Eval(env)
		if !l.Truthy() {
			return l
		}
		return b.R.Eval(env)
	case OpOr:
		l := b.L.Eval(env)
		if l.Truthy() {
			return l
		}
		return b.R.Eval(env)
	}
	l, r := b.L.Eval(env), b.R.Eval(env)
	switch b.Op {
	case OpEq:
		return BoolVal(l.Equal(r))
	case OpNe:
		return BoolVal(!l.Equal(r))
	case OpLt, OpLe, OpGt, OpGe:
		c, ok := l.Compare(r)
		if !ok {
			panic(&TypeError{Op: b.Op.String(), A: l, B: r})
		}
		switch b.Op {
		case OpLt:
			return BoolVal(c < 0)
		case OpLe:
			return BoolVal(c <= 0)
		case OpGt:
			return BoolVal(c > 0)
		default:
			return BoolVal(c >= 0)
		}
	case OpAdd:
		if l.K == Str || r.K == Str {
			if l.K == Str && r.K == Str {
				return StrVal(l.S + r.S)
			}
			panic(&TypeError{Op: "+", A: l, B: r})
		}
		return IntVal(l.I + r.I)
	}
	li, lok := l.AsInt()
	ri, rok := r.AsInt()
	if !lok || !rok {
		panic(&TypeError{Op: b.Op.String(), A: l, B: r})
	}
	switch b.Op {
	case OpSub:
		return IntVal(li - ri)
	case OpMul:
		return IntVal(li * ri)
	case OpDiv:
		return IntVal(FloorDiv(li, ri))
	case OpMod:
		return IntVal(FloorMod(li, ri))
	}
	panic(fmt.Sprintf("expr: bad binary op %v", b.Op))
}

func (b *Binary) CollectDeps(deps map[string]struct{}) {
	b.L.CollectDeps(deps)
	b.R.CollectDeps(deps)
}

func (b *Binary) Fold(consts map[string]Value) Expr {
	l, r := b.L.Fold(consts), b.R.Fold(consts)
	ll, lconst := l.(*Lit)
	rl, rconst := r.(*Lit)
	if lconst && rconst {
		return &Lit{V: (&Binary{Op: b.Op, L: ll, R: rl}).Eval(nil)}
	}
	// Short-circuit folding: a constant left operand of and/or decides the
	// result or vanishes, preserving the language's evaluation order.
	if lconst {
		switch b.Op {
		case OpAnd:
			if !ll.V.Truthy() {
				return ll
			}
			return r
		case OpOr:
			if ll.V.Truthy() {
				return ll
			}
			return r
		}
	}
	return &Binary{Op: b.Op, L: l, R: r}
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Ternary is the conditional expression `a if cond else b`. Python forbids
// overloading it, which is one reason the paper introduces deferred
// iterators; embedding in Go we can provide it as a first-class node.
type Ternary struct {
	Cond, Then, Else Expr
}

// If returns the conditional expression: then if cond else els.
func If(cond, then, els Expr) Expr { return &Ternary{Cond: cond, Then: then, Else: els} }

func (t *Ternary) Eval(env *Env) Value {
	if t.Cond.Eval(env).Truthy() {
		return t.Then.Eval(env)
	}
	return t.Else.Eval(env)
}

func (t *Ternary) CollectDeps(deps map[string]struct{}) {
	t.Cond.CollectDeps(deps)
	t.Then.CollectDeps(deps)
	t.Else.CollectDeps(deps)
}

func (t *Ternary) Fold(consts map[string]Value) Expr {
	c := t.Cond.Fold(consts)
	if lc, ok := c.(*Lit); ok {
		if lc.V.Truthy() {
			return t.Then.Fold(consts)
		}
		return t.Else.Fold(consts)
	}
	return &Ternary{Cond: c, Then: t.Then.Fold(consts), Else: t.Else.Fold(consts)}
}

func (t *Ternary) String() string {
	return fmt.Sprintf("(%s if %s else %s)", t.Then, t.Cond, t.Else)
}

// Call invokes a pure builtin: min, max, abs. Variadic min/max mirror the
// Python builtins the paper overloads for iterators (Figure 11 uses
// min(max_threads_dim_x, max_threads_dim_y)).
type Call struct {
	Fn   string
	Args []Expr
}

// MinOf returns the variadic minimum of args.
func MinOf(args ...Expr) Expr { return &Call{Fn: "min", Args: args} }

// MaxOf returns the variadic maximum of args.
func MaxOf(args ...Expr) Expr { return &Call{Fn: "max", Args: args} }

// Abs returns the absolute value of x.
func Abs(x Expr) Expr { return &Call{Fn: "abs", Args: []Expr{x}} }

func (c *Call) Eval(env *Env) Value {
	switch c.Fn {
	case "min", "max":
		best, ok := c.Args[0].Eval(env).AsInt()
		if !ok {
			panic(&TypeError{Op: c.Fn, A: c.Args[0].Eval(env), Unary: true})
		}
		for _, a := range c.Args[1:] {
			v, ok := a.Eval(env).AsInt()
			if !ok {
				panic(&TypeError{Op: c.Fn, A: a.Eval(env), Unary: true})
			}
			if (c.Fn == "min" && v < best) || (c.Fn == "max" && v > best) {
				best = v
			}
		}
		return IntVal(best)
	case "abs":
		v, ok := c.Args[0].Eval(env).AsInt()
		if !ok {
			panic(&TypeError{Op: "abs", A: c.Args[0].Eval(env), Unary: true})
		}
		if v < 0 {
			v = -v
		}
		return IntVal(v)
	}
	panic(fmt.Sprintf("expr: unknown builtin %q", c.Fn))
}

// KnownBuiltin reports whether name is a callable builtin of the expression
// language (used by the spec-language front end for early diagnostics).
func KnownBuiltin(name string) bool {
	switch name {
	case "min", "max", "abs":
		return true
	}
	return false
}

func (c *Call) CollectDeps(deps map[string]struct{}) {
	for _, a := range c.Args {
		a.CollectDeps(deps)
	}
}

func (c *Call) Fold(consts map[string]Value) Expr {
	out := &Call{Fn: c.Fn, Args: make([]Expr, len(c.Args))}
	all := true
	for i, a := range c.Args {
		out.Args[i] = a.Fold(consts)
		if _, ok := out.Args[i].(*Lit); !ok {
			all = false
		}
	}
	if all && len(out.Args) > 0 {
		return &Lit{V: out.Eval(nil)}
	}
	return out
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(parts, ", "))
}

// Table2D looks up a constant two-dimensional integer table, the shape of
// the compute-capability tables in Figure 9 of the paper
// (MaxBlocksPerMultiProcessor[cudamajor][cudaminor]). Out-of-range indices
// yield Default, matching the paper's use of -1 for undefined capability
// combinations.
type Table2D struct {
	Name     string
	Data     [][]int64
	Row, Col Expr
	Default  int64
}

func (t *Table2D) Eval(env *Env) Value {
	r, ok1 := t.Row.Eval(env).AsInt()
	c, ok2 := t.Col.Eval(env).AsInt()
	if !ok1 || !ok2 {
		panic(&TypeError{Op: "[]", A: t.Row.Eval(env), B: t.Col.Eval(env)})
	}
	if r < 0 || r >= int64(len(t.Data)) {
		return IntVal(t.Default)
	}
	row := t.Data[r]
	if c < 0 || c >= int64(len(row)) {
		return IntVal(t.Default)
	}
	return IntVal(row[c])
}

func (t *Table2D) CollectDeps(deps map[string]struct{}) {
	t.Row.CollectDeps(deps)
	t.Col.CollectDeps(deps)
}

func (t *Table2D) Fold(consts map[string]Value) Expr {
	out := &Table2D{Name: t.Name, Data: t.Data, Row: t.Row.Fold(consts), Col: t.Col.Fold(consts), Default: t.Default}
	if _, ok := out.Row.(*Lit); ok {
		if _, ok := out.Col.(*Lit); ok {
			return &Lit{V: out.Eval(nil)}
		}
	}
	return out
}

func (t *Table2D) String() string {
	return fmt.Sprintf("%s[%s][%s]", t.Name, t.Row, t.Col)
}

// Deps returns the sorted free-variable names of e.
func Deps(e Expr) []string {
	set := make(map[string]struct{})
	e.CollectDeps(set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
