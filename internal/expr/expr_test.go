package expr

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	if IntVal(5).String() != "5" || StrVal("x").String() != `"x"` {
		t.Error("String renderings wrong")
	}
	if BoolVal(true).String() != "True" || BoolVal(false).String() != "False" {
		t.Error("bool renderings wrong")
	}
	// Only the spec lexer's four escapes; every other byte raw.
	if got, want := StrVal("q\"b\\n\nt\t\xff\r\x00é").String(), `"q\"b\\n\nt\t`+"\xff\r\x00é\""; got != want {
		t.Errorf("string rendering = %q, want %q", got, want)
	}
	if !IntVal(1).Equal(BoolVal(true)) {
		t.Error("Python equality: 1 == True")
	}
	if IntVal(0).Truthy() || !IntVal(-3).Truthy() || StrVal("").Truthy() || !StrVal("a").Truthy() {
		t.Error("truthiness wrong")
	}
	if StrVal("1").Equal(IntVal(1)) {
		t.Error("string must not equal number")
	}
	if _, ok := StrVal("a").Compare(IntVal(1)); ok {
		t.Error("ordering string against int must fail")
	}
	if c, ok := StrVal("a").Compare(StrVal("b")); !ok || c != -1 {
		t.Error("string ordering wrong")
	}
	if v, ok := BoolVal(true).AsInt(); !ok || v != 1 {
		t.Error("bool AsInt wrong")
	}
	if _, ok := StrVal("z").AsInt(); ok {
		t.Error("string AsInt must fail")
	}
}

// Python floor-division identities: (a//b)*b + a%b == a, and the result
// sign follows the divisor.
func TestFloorDivModProperties(t *testing.T) {
	f := func(a, b int64) bool {
		if b == 0 {
			return FloorDiv(a, b) == 0 && FloorMod(a, b) == 0
		}
		// Avoid the single overflow case.
		if a == math.MinInt64 && b == -1 {
			return true
		}
		q, r := FloorDiv(a, b), FloorMod(a, b)
		if q*b+r != a {
			return false
		}
		if r != 0 && (r < 0) != (b < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestFloorDivExamples(t *testing.T) {
	cases := []struct{ a, b, q, r int64 }{
		{7, 2, 3, 1},
		{-7, 2, -4, 1},
		{7, -2, -4, -1},
		{-7, -2, 3, -1},
		{6, 3, 2, 0},
		{0, 5, 0, 0},
		{5, 0, 0, 0}, // total semantics
	}
	for _, c := range cases {
		if q := FloorDiv(c.a, c.b); q != c.q {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, q, c.q)
		}
		if r := FloorMod(c.a, c.b); r != c.r {
			t.Errorf("FloorMod(%d,%d) = %d, want %d", c.a, c.b, r, c.r)
		}
	}
}

func evalWith(t *testing.T, e Expr, vars map[string]Value) Value {
	t.Helper()
	sc := NewScope()
	for n := range vars {
		sc.Declare(n)
	}
	b, err := Bind(e, sc)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	env := NewEnv(sc.Len())
	for n, v := range vars {
		slot, _ := sc.Slot(n)
		env.Slots[slot] = v
	}
	return b.Eval(env)
}

func TestOperatorSemantics(t *testing.T) {
	x, y := NewRef("x"), NewRef("y")
	vars := map[string]Value{"x": IntVal(7), "y": IntVal(-3)}
	cases := []struct {
		e    Expr
		want Value
	}{
		{Add(x, y), IntVal(4)},
		{Sub(x, y), IntVal(10)},
		{Mul(x, y), IntVal(-21)},
		{Div(x, y), IntVal(-3)}, // floor
		{Mod(x, y), IntVal(-2)}, // sign of divisor
		{Neg(x), IntVal(-7)},
		{Eq(x, IntLit(7)), BoolVal(true)},
		{Ne(x, y), BoolVal(true)},
		{Lt(y, x), BoolVal(true)},
		{Le(x, x), BoolVal(true)},
		{Gt(x, y), BoolVal(true)},
		{Ge(y, x), BoolVal(false)},
		{Not(Eq(x, y)), BoolVal(true)},
		{If(Gt(x, IntLit(0)), x, y), IntVal(7)},
		{MinOf(x, y, IntLit(2)), IntVal(-3)},
		{MaxOf(x, y, IntLit(2)), IntVal(7)},
		{Abs(y), IntVal(3)},
	}
	for _, c := range cases {
		got := evalWith(t, c.e, vars)
		if !got.Equal(c.want) || got.K != c.want.K {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// x != 0 and (10/x) > 1 must not divide when x == 0... division is
	// total here, but short-circuit must return the *left* value, as in
	// Python (0 and anything == 0).
	e := And(NewRef("x"), Div(IntLit(10), NewRef("x")))
	got := evalWith(t, e, map[string]Value{"x": IntVal(0)})
	if got.I != 0 {
		t.Errorf("and short-circuit = %v", got)
	}
	// Python `or` returns the first truthy operand itself.
	e2 := Or(NewRef("s"), StrLit("fallback"))
	got2 := evalWith(t, e2, map[string]Value{"s": StrVal("hit")})
	if got2.S != "hit" {
		t.Errorf("or returned %v", got2)
	}
	got3 := evalWith(t, e2, map[string]Value{"s": StrVal("")})
	if got3.S != "fallback" {
		t.Errorf("or fallback returned %v", got3)
	}
}

func TestStringSemantics(t *testing.T) {
	e := Add(StrLit("ab"), StrLit("cd"))
	if got := evalWith(t, e, nil); got.S != "abcd" {
		t.Errorf("string concat = %v", got)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected TypeError for str+int")
		} else if _, ok := r.(*TypeError); !ok {
			t.Errorf("wrong panic type %T", r)
		}
	}()
	evalWith(t, Add(StrLit("a"), IntLit(1)), nil)
}

// Folding with a full constant assignment must agree with evaluation.
func TestFoldEquivalence(t *testing.T) {
	x, y, z := NewRef("x"), NewRef("y"), NewRef("z")
	exprs := []Expr{
		Add(Mul(x, y), Div(z, IntLit(3))),
		If(Gt(x, y), Mod(z, x), Neg(y)),
		And(Lt(x, y), Or(Eq(z, IntLit(0)), Ne(x, z))),
		MinOf(x, MaxOf(y, z), Abs(Sub(x, z))),
		Mod(Mul(Add(x, y), Sub(y, z)), IntLit(97)),
	}
	f := func(xv, yv, zv int16) bool {
		vars := map[string]Value{
			"x": IntVal(int64(xv)), "y": IntVal(int64(yv)), "z": IntVal(int64(zv)),
		}
		for _, e := range exprs {
			folded := e.Fold(vars)
			lit, ok := folded.(*Lit)
			if !ok {
				return false
			}
			direct := func() Value {
				defer func() { recover() }()
				return evalWith(t, e, vars)
			}()
			if !lit.V.Equal(direct) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartialFold(t *testing.T) {
	// Folding a setting-dependent conditional selects a branch and drops
	// the dead side's dependencies (the hoisting precision case).
	e := If(Eq(NewRef("precision"), StrLit("double")),
		Mul(NewRef("a"), IntLit(2)),
		NewRef("b"))
	folded := e.Fold(map[string]Value{"precision": StrVal("double")})
	deps := Deps(folded)
	if !reflect.DeepEqual(deps, []string{"a"}) {
		t.Errorf("folded deps = %v, want [a]", deps)
	}
	// Short-circuit folding: False and X folds to False without X.
	e2 := And(Eq(NewRef("mode"), IntLit(1)), Gt(NewRef("big"), IntLit(0)))
	folded2 := e2.Fold(map[string]Value{"mode": IntVal(0)})
	if lit, ok := folded2.(*Lit); !ok || lit.V.Truthy() {
		t.Errorf("short-circuit fold = %v", folded2)
	}
}

func TestBindErrorsAndIsolation(t *testing.T) {
	e := Add(NewRef("known"), NewRef("unknown"))
	sc := NewScope()
	sc.Declare("known")
	if _, err := Bind(e, sc); err == nil {
		t.Error("expected UnboundNameError")
	} else if !strings.Contains(err.Error(), "unknown") {
		t.Errorf("error %v does not name the unbound ref", err)
	}
	// Bind must not mutate the original tree.
	sc.Declare("unknown")
	b1, err := Bind(e, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc2 := NewScope()
	sc2.Declare("unknown")
	sc2.Declare("known")
	b2, err := Bind(e, sc2)
	if err != nil {
		t.Fatal(err)
	}
	env1 := NewEnv(2)
	env1.Slots[0], env1.Slots[1] = IntVal(10), IntVal(1) // known, unknown
	env2 := NewEnv(2)
	env2.Slots[0], env2.Slots[1] = IntVal(1), IntVal(10) // unknown, known
	if b1.Eval(env1).I != 11 || b2.Eval(env2).I != 11 {
		t.Error("slot assignment mixed up between scopes")
	}
	if orig := e.(*Binary).L.(*Ref); orig.Slot != -1 {
		t.Error("Bind mutated the source tree")
	}
}

func TestTable2D(t *testing.T) {
	tab := &Table2D{
		Name:    "T",
		Data:    [][]int64{{1, 2}, {3, 4}},
		Row:     NewRef("r"),
		Col:     NewRef("c"),
		Default: -1,
	}
	cases := []struct{ r, c, want int64 }{
		{0, 0, 1}, {1, 1, 4}, {2, 0, -1}, {-1, 0, -1}, {0, 5, -1},
	}
	for _, tc := range cases {
		got := evalWith(t, tab, map[string]Value{"r": IntVal(tc.r), "c": IntVal(tc.c)})
		if got.I != tc.want {
			t.Errorf("T[%d][%d] = %d, want %d", tc.r, tc.c, got.I, tc.want)
		}
	}
	folded := tab.Fold(map[string]Value{"r": IntVal(1), "c": IntVal(0)})
	if lit, ok := folded.(*Lit); !ok || lit.V.I != 3 {
		t.Errorf("table fold = %v", folded)
	}
}

func TestDepsAndString(t *testing.T) {
	e := If(Gt(NewRef("b"), IntLit(0)), Add(NewRef("a"), NewRef("b")), NewRef("c"))
	if got := Deps(e); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Deps = %v", got)
	}
	if s := e.String(); !strings.Contains(s, "if") || !strings.Contains(s, "else") {
		t.Errorf("String = %q", s)
	}
}

func TestEvalClosed(t *testing.T) {
	v, err := EvalClosed(Add(IntLit(2), Mul(IntLit(3), IntLit(4))))
	if err != nil || v.I != 14 {
		t.Errorf("EvalClosed = %v, %v", v, err)
	}
	if _, err := EvalClosed(NewRef("x")); err == nil {
		t.Error("expected error for open expression")
	}
	if _, err := EvalClosed(Lt(StrLit("a"), IntLit(1))); err == nil {
		t.Error("expected TypeError surfaced as error")
	}
}

func TestScope(t *testing.T) {
	sc := NewScope()
	a := sc.Declare("a")
	b := sc.Declare("b")
	if a2 := sc.Declare("a"); a2 != a {
		t.Error("redeclare must return the same slot")
	}
	if sc.Len() != 2 || sc.Name(a) != "a" || sc.Name(b) != "b" {
		t.Error("scope bookkeeping wrong")
	}
	if got := sc.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v", got)
	}
	if _, ok := sc.Slot("zzz"); ok {
		t.Error("unknown name resolved")
	}
}
