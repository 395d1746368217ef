package expr

import (
	"fmt"
	"maps"
	"slices"
)

// Scope assigns a stable slot number to every name that may appear free in a
// bound expression. Engines size their Env from Scope and index it by slot;
// name lookup happens once, at plan time, never during enumeration — this is
// the difference the paper measures between Python's per-access associative
// lookup (§XI.B) and the generated C's direct variable access.
type Scope struct {
	slots map[string]int
	names []string
}

// NewScope returns an empty scope.
func NewScope() *Scope {
	return &Scope{slots: make(map[string]int)}
}

// Declare adds name to the scope if absent and returns its slot.
func (s *Scope) Declare(name string) int {
	if i, ok := s.slots[name]; ok {
		return i
	}
	i := len(s.names)
	s.slots[name] = i
	s.names = append(s.names, name)
	return i
}

// Clone returns a copy of s that declares names independently of s.
func (s *Scope) Clone() *Scope {
	return &Scope{slots: maps.Clone(s.slots), names: slices.Clone(s.names)}
}

// Slot returns the slot of name, if declared.
func (s *Scope) Slot(name string) (int, bool) {
	i, ok := s.slots[name]
	return i, ok
}

// Len returns the number of declared names.
func (s *Scope) Len() int { return len(s.names) }

// Name returns the name declared at slot i.
func (s *Scope) Name(i int) string { return s.names[i] }

// Names returns all declared names in slot order.
func (s *Scope) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// UnboundNameError reports a reference to a name the scope does not declare.
type UnboundNameError struct{ Name string }

func (e *UnboundNameError) Error() string {
	return fmt.Sprintf("expr: unbound name %q", e.Name)
}

// Bind returns a deep copy of e with every Ref resolved to its slot in sc.
// The input tree is not modified, so one AST may be bound into any number of
// scopes (e.g. the same GEMM constraint specialized for several devices).
func Bind(e Expr, sc *Scope) (Expr, error) {
	switch n := e.(type) {
	case *Lit:
		return n, nil
	case *Ref:
		slot, ok := sc.Slot(n.Name)
		if !ok {
			return nil, &UnboundNameError{Name: n.Name}
		}
		return &Ref{Name: n.Name, Slot: slot}, nil
	case *Unary:
		x, err := Bind(n.X, sc)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: n.Op, X: x}, nil
	case *Binary:
		l, err := Bind(n.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := Bind(n.R, sc)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: n.Op, L: l, R: r}, nil
	case *Ternary:
		c, err := Bind(n.Cond, sc)
		if err != nil {
			return nil, err
		}
		t, err := Bind(n.Then, sc)
		if err != nil {
			return nil, err
		}
		f, err := Bind(n.Else, sc)
		if err != nil {
			return nil, err
		}
		return &Ternary{Cond: c, Then: t, Else: f}, nil
	case *Call:
		out := &Call{Fn: n.Fn, Args: make([]Expr, len(n.Args))}
		for i, a := range n.Args {
			b, err := Bind(a, sc)
			if err != nil {
				return nil, err
			}
			out.Args[i] = b
		}
		return out, nil
	case *Table2D:
		r, err := Bind(n.Row, sc)
		if err != nil {
			return nil, err
		}
		c, err := Bind(n.Col, sc)
		if err != nil {
			return nil, err
		}
		return &Table2D{Name: n.Name, Data: n.Data, Row: r, Col: c, Default: n.Default}, nil
	default:
		return nil, fmt.Errorf("expr: cannot bind node of type %T", e)
	}
}

// EvalClosed evaluates an expression that has no free variables (or whose
// free variables were all folded away) without allocating an environment.
// It returns an error instead of panicking on type errors.
func EvalClosed(e Expr) (v Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if te, ok := r.(*TypeError); ok {
				err = te
				return
			}
			panic(r)
		}
	}()
	deps := Deps(e)
	if len(deps) != 0 {
		return Value{}, &UnboundNameError{Name: deps[0]}
	}
	return e.Eval(nil), nil
}
