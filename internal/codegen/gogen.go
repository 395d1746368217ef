package codegen

import (
	"fmt"
	"go/format"
	"strings"

	"repro/internal/plan"
)

// GoOptions control Go emission.
type GoOptions struct {
	// Package is the emitted package name (default "sweep").
	Package string
	// FuncName is the enumeration function name (default "Enumerate").
	FuncName string
	// Comment is prepended to the generation header, e.g. the space's
	// configuration.
	Comment string
	// StatsType names the emitted counter struct (default "Stats").
	StatsType string
	// OmitShared skips the shared helpers (beast_div, beast_mod, ...) so
	// several generated files can share one package; exactly one file in
	// the package must emit them.
	OmitShared bool
	// ChunkSize > 1 emits the innermost loop in chunked form: lane values
	// fill fixed-size beast_v_* arrays, each residual step evaluates over
	// the whole block, and a survivor mask word short-circuits killed
	// lanes (clamped to 64 so one uint64 covers the mask). Counter
	// semantics are identical to scalar emission. Falls back to scalar
	// when the plan marks the innermost loop ineligible.
	ChunkSize int
}

// Go renders prog as a self-contained Go source file exposing
//
//	func FuncName(onTuple func(vals []int64) bool) Stats
//
// The same translation rules as C apply. Emitted files are what this
// repository commits for its "generated code" benchmark backend — the
// ahead-of-time-compiled analogue of the paper's generated C, with no
// closure indirection left in the hot loop.
func Go(prog *plan.Program, opts GoOptions) (string, error) {
	if opts.Package == "" {
		opts.Package = "sweep"
	}
	if opts.FuncName == "" {
		opts.FuncName = "Enumerate"
	}
	if opts.StatsType == "" {
		opts.StatsType = "Stats"
	}
	e := newEmitter(prog, goDialect{opts.FuncName + "_"}, opts.ChunkSize)
	e.w("// Code generated by the BEAST search-space translator. DO NOT EDIT.")
	if opts.Comment != "" {
		e.w("//")
		for _, line := range strings.Split(opts.Comment, "\n") {
			e.w("// %s", line)
		}
	}
	e.w("//")
	e.w("// Loop nest order: %s", strings.Join(prog.IterNames(), ", "))
	e.w("// Tuple emission order: %s", strings.Join(prog.TupleNames(), ", "))
	e.blank()
	e.w("package %s", opts.Package)
	e.blank()
	e.w("// %s mirrors engine.Stats for the generated sweep.", opts.StatsType)
	e.w("type %s struct {", opts.StatsType)
	e.w("Visits [%d]int64", max(len(prog.Loops), 1))
	e.w("Checks [%d]int64", max(len(prog.Constraints), 1))
	e.w("Kills [%d]int64", max(len(prog.Constraints), 1))
	e.w("Survivors int64")
	e.w("}")
	e.blank()
	if !opts.OmitShared {
		e.b.WriteString(goHelpers)
	}
	e.goTables()
	e.w("// %s runs the generated sweep. onTuple may be nil; returning false", opts.FuncName)
	e.w("// stops enumeration early.")
	e.w("func %s(onTuple func(vals []int64) bool) %s {", opts.FuncName, opts.StatsType)
	e.indent++
	e.w("var st %s", opts.StatsType)
	if err := e.body(false); err != nil {
		return "", err
	}
	e.w("return st")
	e.indent--
	e.w("}")
	src, err := format.Source([]byte(e.b.String()))
	if err != nil {
		// A formatting failure means the generator emitted invalid Go;
		// surface the raw text to make that debuggable.
		return "", fmt.Errorf("codegen: generated Go does not parse: %w\n%s", err, e.b.String())
	}
	return string(src), nil
}

var goKeywords = map[string]bool{
	"break": true, "default": true, "func": true, "interface": true,
	"select": true, "case": true, "defer": true, "go": true, "map": true,
	"struct": true, "chan": true, "else": true, "goto": true, "package": true,
	"switch": true, "const": true, "fallthrough": true, "if": true,
	"range": true, "type": true, "continue": true, "for": true,
	"import": true, "return": true, "var": true,
}

// goTypes maps the emitter's C type names to Go types.
var goTypes = map[string]string{"const i64": "int64", "i64": "int64", "int": "int64", "uint64_t": "uint64"}

// goDialect is Go syntax; gofmt later drops the C-shaped semicolons and
// parentheses. Table names carry the enumeration function's name so
// several generated files can share one package.
type goDialect struct{ fn string }

func (goDialect) keywords() map[string]bool { return goKeywords }

// decl converts every value to the declared type, so untyped constants
// become int64. Go rejects unused locals, so constants are also kept.
func (goDialect) decl(typ string, nv ...string) string {
	var names, vals []string
	for i := 0; i < len(nv); i += 2 {
		names = append(names, nv[i])
		vals = append(vals, goTypes[typ]+"("+nv[i+1]+")")
	}
	s := strings.Join(names, ", ") + " := " + strings.Join(vals, ", ")
	if typ == "const i64" {
		s += "; _ = " + strings.Join(names, "; _ = ")
	}
	return s
}

func (goDialect) array(name string, n int, elems string) string {
	if elems == "" {
		return fmt.Sprintf("var %s [%d]int64", name, n)
	}
	return fmt.Sprintf("%s := [...]int64{%s}", name, elems)
}

func (goDialect) keep(name string) string { return "_ = " + name }

func (goDialect) loop(init, cond, post string) string {
	if init == "" && post == "" {
		return "for " + cond
	}
	return fmt.Sprintf("for %s; %s; %s", init, cond, post)
}

func (goDialect) ifc(cond string) string     { return "if " + cond }
func (goDialect) one(stmt string) string     { return " { " + stmt + " }" }
func (goDialect) truth(x string) string      { return x + " != 0" }
func (goDialect) falsy(x string) string      { return x + " == 0" }
func (goDialect) boolInt(cond string) string { return "beast_bool(" + cond + ")" }

// ternary picks between conditions with && and ||; values need a closure,
// which the compiler inlines.
func (goDialect) ternary(typ, cond, t, f string) string {
	if typ == "bool" {
		return fmt.Sprintf("(%s && %s) || (!(%s) && %s)", cond, t, cond, f)
	}
	return fmt.Sprintf("func() %s { if %s { return %s }; return %s }()", goTypes[typ], cond, t, f)
}

func (goDialect) u64(x string) string        { return "uint64(" + x + ")" }
func (goDialect) complement(x string) string { return "^" + x }
func (goDialect) stat(field string) string   { return "st." + strings.ToUpper(field[:1]) + field[1:] }
func (g goDialect) prefix() string           { return g.fn }
func (goDialect) ret() string                { return "return st" }

func (g goDialect) tabWindow(ti, words int, binary bool) string {
	if binary {
		return fmt.Sprintf("beast_%stab_window(beast_%stab%d[beast_row*%d:(beast_row+1)*%d], beast_base)", g.fn, g.fn, ti, words, words)
	}
	return fmt.Sprintf("beast_%stab_window(beast_%stab%d[:], beast_base)", g.fn, g.fn, ti)
}

func (goDialect) deliver(names []string) string {
	return fmt.Sprintf("if onTuple != nil && !onTuple([]int64{%s}) { return st }", strings.Join(names, ", "))
}

const goHelpers = `// beast_div and beast_mod are Python floor division and modulo, total on
// zero divisors.
func beast_div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func beast_mod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	r := a % b
	if r != 0 && (r < 0) != (b < 0) {
		r += b
	}
	return r
}

func beast_min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func beast_max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func beast_abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func beast_bool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// beast_popcount counts set bits (SWAR), sized for the chunked inner
// loop's 64-lane survivor mask.
func beast_popcount(x uint64) int64 {
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int64((x * 0x0101010101010101) >> 56)
}

`

// goTables writes the Table2D arrays and the plan-tabulated pass bitsets
// with the window reader the chunked body ANDs against the survivor mask.
func (e *emitter) goTables() {
	p := e.d.prefix()
	for ti, t := range e.tables {
		rows, cols := tableRows(t)
		e.w("var beast_%stable%d = [%d][%d]int64{", p, ti, len(rows), cols)
		for _, r := range rows {
			e.w("{%s},", r)
		}
		e.w("}")
		e.blank()
		e.w("func beast_%stable%d_at(r, c int64) int64 {", p, ti)
		e.w("if r < 0 || r >= %d || c < 0 || c >= %d { return %s }", len(rows), cols, intLit(t.Default, false))
		e.w("return beast_%stable%d[r][c]", p, ti)
		e.w("}")
		e.blank()
	}
	idx := emittableTabs(e.prog, e.chunk)
	if len(idx) == 0 {
		return
	}
	tab := e.prog.Tab
	e.w("// Plan-tabulated constraint checks: bit i of a row is 1 when inner")
	e.w("// value %d + i*%d passes the check.", tab.Base, tab.Step)
	for _, ti := range idx {
		t := tab.Tables[ti]
		if t.Kind == plan.UnaryTable {
			e.w("// %s: unary over %s", t.Name, tab.InnerName)
			e.w("var beast_%stab%d = [%d]uint64{%s}", p, ti, len(t.Bits), tabRows(tab, ti, "")[0])
			continue
		}
		e.w("// %s: %s x %s, %d rows of %d words", t.Name, t.OuterName, tab.InnerName, t.OuterN, t.RowWords)
		e.w("var beast_%stab%d = [%d]uint64{", p, ti, t.OuterN*t.RowWords)
		for _, row := range tabRows(tab, ti, "") {
			e.w("%s,", row)
		}
		e.w("}")
	}
	e.blank()
	e.w("// beast_%stab_window reads a 64-bit window of a pass bitset at bit", p)
	e.w("// offset off; bits beyond the row read as zero and map only to dead")
	e.w("// lanes.")
	e.w("func beast_%stab_window(row []uint64, off int64) uint64 {", p)
	e.w("wi, sh := int(off>>6), uint(off&63)")
	e.w("var w uint64")
	e.w("if wi >= 0 && wi < len(row) { w = row[wi] >> sh }")
	e.w("if sh != 0 && wi+1 >= 0 && wi+1 < len(row) { w |= row[wi+1] << (64 - sh) }")
	e.w("return w")
	e.w("}")
	e.blank()
}
