// Package expr implements the value model and expression trees that underlie
// the BEAST declarative search-space notation.
//
// The paper embeds its notation in Python, where iterator variables overload
// the standard operators (__add__, __lt__, ...) so that ordinary-looking
// expressions build a deferred computation over tuning parameters. Go has no
// operator overloading, so this package provides the equivalent machinery
// explicitly: a small tagged Value type (integers, booleans, strings), an
// expression AST with Python-compatible semantics, name→slot resolution, and
// plan-time partial evaluation (constant folding) that specializes a search
// space for fixed settings such as precision="double".
//
// Expressions are pure: evaluating one never mutates the environment. All
// engine backends (tree-walking interpreter, bytecode VM, closure compiler,
// and the C/Go code generators) consume the same AST, which is what makes the
// cross-backend equivalence properties testable.
package expr

import (
	"fmt"
	"strconv"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

// The value kinds of the BEAST expression language.
const (
	Int Kind = iota // 64-bit signed integer
	Bool
	Str
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Bool:
		return "bool"
	case Str:
		return "str"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a tagged union holding one scalar of the expression language.
// The zero Value is the integer 0.
//
// Following Python 2 — the host language of the paper's implementation —
// booleans are freely usable in arithmetic (True == 1, False == 0) and
// integers are freely usable in boolean context (nonzero is truthy). Strings
// support equality, ordering, and concatenation but no mixed-type arithmetic.
type Value struct {
	K Kind
	I int64  // payload when K is Int or Bool (0 or 1)
	S string // payload when K is Str
}

// IntVal returns an integer Value.
func IntVal(i int64) Value { return Value{K: Int, I: i} }

// BoolVal returns a boolean Value.
func BoolVal(b bool) Value {
	if b {
		return Value{K: Bool, I: 1}
	}
	return Value{K: Bool}
}

// StrVal returns a string Value.
func StrVal(s string) Value { return Value{K: Str, S: s} }

// AsInt coerces v to an integer following Python semantics: booleans map to
// 0/1 and integers pass through. Strings are not coercible; the boolean
// result reports success.
func (v Value) AsInt() (int64, bool) {
	if v.K == Str {
		return 0, false
	}
	return v.I, true
}

// Truthy reports whether v is true in boolean context: nonzero for numbers,
// nonempty for strings.
func (v Value) Truthy() bool {
	if v.K == Str {
		return v.S != ""
	}
	return v.I != 0
}

// Equal reports Python-style equality: numeric kinds compare by value
// (so IntVal(1) equals BoolVal(true)); strings compare by content; a string
// never equals a number.
func (v Value) Equal(w Value) bool {
	if v.K == Str || w.K == Str {
		return v.K == Str && w.K == Str && v.S == w.S
	}
	return v.I == w.I
}

// Compare returns -1, 0, or +1 ordering v relative to w. Numeric kinds order
// by value; strings order lexicographically. Ordering a string against a
// number is a type error, reported via ok=false.
func (v Value) Compare(w Value) (c int, ok bool) {
	if v.K == Str || w.K == Str {
		if v.K != Str || w.K != Str {
			return 0, false
		}
		switch {
		case v.S < w.S:
			return -1, true
		case v.S > w.S:
			return 1, true
		}
		return 0, true
	}
	switch {
	case v.I < w.I:
		return -1, true
	case v.I > w.I:
		return 1, true
	}
	return 0, true
}

// String renders the value as it would appear in spec source.
func (v Value) String() string {
	switch v.K {
	case Bool:
		if v.I != 0 {
			return "True"
		}
		return "False"
	case Str:
		return quoteSpec(v.S)
	default:
		return strconv.FormatInt(v.I, 10)
	}
}

// quoteSpec renders s as a double-quoted spec string literal. It uses only
// the escapes the spec lexer reads (\\, \", \n and \t) and writes every
// other byte raw, so the literal lexes back to s even when s is not UTF-8.
func quoteSpec(s string) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// FloorDiv implements Python's integer floor division. Division by zero is
// total in this language: it yields 0. The search-space DSL uses division
// only for positive occupancy/divisibility arithmetic, where a zero divisor
// can arise transiently while outer iterators are still small; making the
// operation total keeps every backend (including generated C, which guards
// the same way) bit-identical without error plumbing in the hot loop.
func FloorDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// FloorMod implements Python's modulo, whose result has the sign of the
// divisor. A zero divisor yields 0 (see FloorDiv).
func FloorMod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	r := a % b
	if r != 0 && ((r < 0) != (b < 0)) {
		r += b
	}
	return r
}
