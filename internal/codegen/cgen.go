package codegen

import (
	"fmt"
	"strings"

	"repro/internal/plan"
)

// COptions control C emission.
type COptions struct {
	// FuncName is the enumeration function name (default beast_enumerate).
	FuncName string
	// Main also emits a main() that runs the sweep and prints statistics.
	Main bool
	// Threads also emits a pthreads variant (FuncName + "_mt") that splits
	// the outermost loop across worker threads.
	Threads bool
	// ChunkSize > 1 emits the innermost loop in chunked form: lane values
	// fill fixed-size beast_v_* arrays, each residual step evaluates over
	// the whole block, and a survivor mask word short-circuits killed
	// lanes (clamped to 64 so one uint64_t covers the mask). Counter
	// semantics are identical to scalar emission. Falls back to scalar
	// when the plan marks the innermost loop ineligible, and inside the
	// threaded worker when the tid-striped outermost loop is itself the
	// innermost one.
	ChunkSize int
}

// C renders prog as standard C source.
func C(prog *plan.Program, opts COptions) (string, error) {
	if opts.FuncName == "" {
		opts.FuncName = "beast_enumerate"
	}
	e := newEmitter(prog, cDialect{}, opts.ChunkSize)
	e.cPreamble(opts.Threads)
	if err := e.cEnumerate(opts.FuncName, false); err != nil {
		return "", err
	}
	if opts.Threads {
		if err := e.cThreaded(opts.FuncName); err != nil {
			return "", err
		}
	}
	if opts.Main {
		e.cMain(opts)
	}
	return e.cDefineHelpers(), nil
}

// cDefineHelpers returns the emitted source with the definitions of the
// helpers the program calls spliced in after the typedef.
func (e *emitter) cDefineHelpers() string {
	var defs strings.Builder
	for _, h := range cHelpers {
		if e.calls[h.name] {
			defs.WriteString(h.src)
		}
	}
	src := e.b.String()
	return src[:e.helpersAt] + defs.String() + src[e.helpersAt:]
}

var cKeywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true, "const": true,
	"continue": true, "default": true, "do": true, "double": true, "else": true,
	"enum": true, "extern": true, "float": true, "for": true, "goto": true,
	"if": true, "inline": true, "int": true, "long": true, "register": true,
	"restrict": true, "return": true, "short": true, "signed": true,
	"sizeof": true, "static": true, "struct": true, "switch": true,
	"typedef": true, "union": true, "unsigned": true, "void": true,
	"volatile": true, "while": true, "main": true,
}

// cDialect is C99 syntax.
type cDialect struct{}

func (cDialect) keywords() map[string]bool { return cKeywords }

func (cDialect) decl(typ string, nv ...string) string {
	inits := make([]string, 0, len(nv)/2)
	for i := 0; i < len(nv); i += 2 {
		inits = append(inits, nv[i]+" = "+nv[i+1])
	}
	return typ + " " + strings.Join(inits, ", ")
}

func (cDialect) array(name string, n int, elems string) string {
	if elems == "" {
		return fmt.Sprintf("i64 %s[%d]", name, n)
	}
	return fmt.Sprintf("const i64 %s[] = {%s}", name, elems)
}

func (cDialect) keep(name string) string { return "(void)" + name }

func (cDialect) loop(init, cond, post string) string {
	if init == "" && post == "" {
		return "while (" + cond + ")"
	}
	return fmt.Sprintf("for (%s; %s; %s)", init, cond, post)
}

func (cDialect) ifc(cond string) string              { return "if (" + cond + ")" }
func (cDialect) one(stmt string) string              { return " " + stmt + ";" }
func (cDialect) truth(x string) string               { return x }
func (cDialect) falsy(x string) string               { return "!" + x }
func (cDialect) boolInt(cond string) string          { return cond }
func (cDialect) ternary(_, cond, t, f string) string { return cond + " ? " + t + " : " + f }
func (cDialect) u64(x string) string                 { return "(uint64_t)" + x }
func (cDialect) complement(x string) string          { return "~" + x }
func (cDialect) stat(field string) string            { return "st->" + field }
func (cDialect) prefix() string                      { return "" }
func (cDialect) ret() string                         { return "return" }

func (cDialect) tabWindow(ti, words int, binary bool) string {
	if binary {
		return fmt.Sprintf("beast_tab_window(beast_tab%d + beast_row * %d, %d, beast_base)", ti, words, words)
	}
	return fmt.Sprintf("beast_tab_window(beast_tab%d, %d, beast_base)", ti, words)
}

func (cDialect) deliver(names []string) string {
	if len(names) == 0 {
		// C99 has no empty initializer; the empty tuple has no values.
		return "if (on_tuple) on_tuple(NULL, 0, ctx);"
	}
	return fmt.Sprintf("if (on_tuple) { const i64 beast_tuple[] = {%s}; on_tuple(beast_tuple, %d, ctx); }",
		strings.Join(names, ", "), len(names))
}

// cHelpers defines the shared helpers in the order the preamble writes
// them, each with the blank line and comment that precede it, if any. A
// program gets only the helpers its code calls (emitter.call), so the
// emitted C builds clean with -Werror=unused-function.
var cHelpers = []struct{ name, src string }{
	{"beast_div", `
/* Python floor division, total on a zero divisor. */
static i64 beast_div(i64 a, i64 b) {
    if (b == 0) return 0;
    if (b == -1) return a == INT64_MIN ? a : -a; /* wraps like Go */
    i64 q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q--;
    return q;
}
`},
	{"beast_mod", `
/* Python modulo, total on a zero divisor. */
static i64 beast_mod(i64 a, i64 b) {
    if (b == 0 || b == -1) return 0;
    i64 r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
`},
	{"beast_min", "static i64 beast_min(i64 a, i64 b) { return a < b ? a : b; }\n"},
	{"beast_max", "static i64 beast_max(i64 a, i64 b) { return a > b ? a : b; }\n"},
	{"beast_abs", "static i64 beast_abs(i64 a) { return a < 0 && a != INT64_MIN ? -a : a; }\n"},
	{"beast_count", `
/* Loop-entry narrowing over the ascending range lo, lo+step, ... < hi,
 * in uint64_t because hi - lo may exceed INT64_MAX: beast_count is the
 * number of values, beast_nth value i (i < the count). */
static uint64_t beast_count(i64 lo, i64 hi, i64 step) {
    return hi > lo ? ((uint64_t)hi - (uint64_t)lo - 1) / (uint64_t)step + 1 : 0;
}
`},
	{"beast_nth", "static i64 beast_nth(i64 lo, i64 step, uint64_t i) { return (i64)((uint64_t)lo + i * (uint64_t)step); }\n"},
	{"beast_pin", `
/* Pin narrowing: num / den when den >= 1 divides num and the value lies
 * on the range lo, lo+step, ... < hi; hi when no value does. */
static i64 beast_pin(i64 num, i64 den, i64 lo, i64 hi, i64 step) {
    if (den < 1) return hi;
    const i64 q = num / den, r = num % den;
    if (r != 0 || q < lo || q >= hi) return hi;
    return step == 1 || ((uint64_t)q - (uint64_t)lo) % (uint64_t)step == 0 ? q : hi;
}
`},
	{"beast_popcount", `
/* Set-bit count (SWAR) for the chunked inner loop's survivor mask. */
static i64 beast_popcount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (i64)((x * 0x0101010101010101ULL) >> 56);
}
`},
}

const cTabWindow = `/* 64-bit window of a pass bitset at bit offset off; bits beyond the
 * row read as zero and map only to dead lanes. */
static uint64_t beast_tab_window(const uint64_t *row, int nwords, i64 off) {
    const i64 beast_wi = off >> 6;
    const unsigned beast_sh = (unsigned)(off & 63);
    uint64_t w = 0;
    if (beast_wi >= 0 && beast_wi < nwords) w = row[beast_wi] >> beast_sh;
    if (beast_sh != 0 && beast_wi + 1 >= 0 && beast_wi + 1 < nwords) w |= row[beast_wi + 1] << (64 - beast_sh);
    return w;
}

`

// cPreamble writes everything before the enumeration function: the
// header, table data and the stats and callback types. The helpers go
// after the typedef once the program's code is written (cDefineHelpers).
func (e *emitter) cPreamble(threads bool) {
	prog := e.prog
	e.w("/* Generated by the BEAST search-space translator (Go reproduction).")
	e.w(" * Loop nest order: %s", strings.Join(prog.IterNames(), ", "))
	e.w(" * Tuple emission order: %s", strings.Join(prog.TupleNames(), ", "))
	e.w(" * %d constraints, %d folded constants. Do not edit. */", len(prog.Constraints), len(prog.Folded))
	e.w("#include <stdint.h>")
	e.w("#include <stdio.h>")
	e.w("#include <stdlib.h>")
	e.w("#include <string.h>")
	if threads {
		e.w("#include <pthread.h>")
	}
	e.blank()
	e.w("typedef int64_t i64;")
	e.helpersAt = e.b.Len()
	e.blank()
	for ti, t := range e.tables {
		rows, cols := tableRows(t)
		e.w("static const i64 beast_table%d[%d][%d] = {", ti, len(rows), cols)
		for _, r := range rows {
			e.w("    {%s},", r)
		}
		e.w("};")
		e.w("static i64 beast_table%d_at(i64 r, i64 c) {", ti)
		e.w("    if (r < 0 || r >= %d || c < 0 || c >= %d) return %s;", len(rows), cols, intLit(t.Default, false))
		e.w("    return beast_table%d[r][c];", ti)
		e.w("}")
	}
	e.blank()
	if idx := emittableTabs(prog, e.chunk); len(idx) > 0 {
		tab := prog.Tab
		e.w("/* Plan-tabulated constraint checks: bit i of a row is 1 when inner")
		e.w(" * value %d + i*%d passes the check. */", tab.Base, tab.Step)
		for _, ti := range idx {
			t := tab.Tables[ti]
			rows := tabRows(tab, ti, "ULL")
			if t.Kind == plan.UnaryTable {
				e.w("/* %s: unary over %s */", t.Name, tab.InnerName)
				e.w("static const uint64_t beast_tab%d[%d] = {", ti, len(t.Bits))
				e.w("    %s", rows[0])
			} else {
				e.w("/* %s: %s x %s, %d rows of %d words */", t.Name, t.OuterName, tab.InnerName, t.OuterN, t.RowWords)
				e.w("static const uint64_t beast_tab%d[%d] = {", ti, t.OuterN*t.RowWords)
				for _, row := range rows {
					e.w("    %s,", row)
				}
			}
			e.w("};")
		}
		e.b.WriteString(cTabWindow)
	}
	e.w("typedef struct {")
	e.w("    i64 visits[%d];", max(len(prog.Loops), 1))
	e.w("    i64 checks[%d];", max(len(prog.Constraints), 1))
	e.w("    i64 kills[%d];", max(len(prog.Constraints), 1))
	e.w("    i64 survivors;")
	e.w("} beast_stats;")
	e.blank()
	e.w("typedef void (*beast_on_tuple)(const i64 *vals, int n, void *ctx);")
	e.blank()
}

// cEnumerate writes the sequential enumeration function, or with striped
// the pthreads worker that takes every nthreads-th outermost value.
func (e *emitter) cEnumerate(name string, striped bool) error {
	if striped {
		e.w("static void %s(beast_stats *st, beast_on_tuple on_tuple, void *ctx, int tid, int nthreads) {", name)
	} else {
		e.w("void %s(beast_stats *st, beast_on_tuple on_tuple, void *ctx) {", name)
	}
	e.indent++
	e.w("(void)on_tuple; (void)ctx;")
	if err := e.body(striped); err != nil {
		return err
	}
	e.indent--
	e.w("}")
	e.blank()
	return nil
}

func (e *emitter) cThreaded(name string) error {
	if err := e.cEnumerate(name+"_worker", true); err != nil {
		return err
	}
	e.w("typedef struct {")
	e.w("    beast_stats stats;")
	e.w("    beast_on_tuple on_tuple;")
	e.w("    void *ctx;")
	e.w("    int tid, nthreads;")
	e.w("} beast_mt_arg;")
	e.blank()
	e.w("static void *beast_mt_trampoline(void *p) {")
	e.w("    beast_mt_arg *a = (beast_mt_arg *)p;")
	e.w("    %s_worker(&a->stats, a->on_tuple, a->ctx, a->tid, a->nthreads);", name)
	e.w("    return NULL;")
	e.w("}")
	e.blank()
	e.w("void %s_mt(beast_stats *st, beast_on_tuple on_tuple, void *ctx, int nthreads) {", name)
	e.indent++
	e.w("if (nthreads < 1) nthreads = 1;")
	e.w("beast_mt_arg *args = (beast_mt_arg *)calloc((size_t)nthreads, sizeof(beast_mt_arg));")
	e.w("pthread_t *tids = (pthread_t *)calloc((size_t)nthreads, sizeof(pthread_t));")
	e.w("for (int t = 0; t < nthreads; t++) {")
	e.w("    args[t].on_tuple = on_tuple; args[t].ctx = ctx;")
	e.w("    args[t].tid = t; args[t].nthreads = nthreads;")
	e.w("    pthread_create(&tids[t], NULL, beast_mt_trampoline, &args[t]);")
	e.w("}")
	e.w("for (int t = 0; t < nthreads; t++) {")
	e.w("    pthread_join(tids[t], NULL);")
	e.w("    for (int i = 0; i < %d; i++) st->visits[i] += args[t].stats.visits[i];", max(len(e.prog.Loops), 1))
	e.w("    for (int i = 0; i < %d; i++) {", max(len(e.prog.Constraints), 1))
	e.w("        st->checks[i] += args[t].stats.checks[i];")
	e.w("        st->kills[i] += args[t].stats.kills[i];")
	e.w("    }")
	e.w("    st->survivors += args[t].stats.survivors;")
	e.w("}")
	e.w("free(args); free(tids);")
	e.indent--
	e.w("}")
	e.blank()
	return nil
}

func (e *emitter) cMain(opts COptions) {
	e.w("int main(int argc, char **argv) {")
	e.indent++
	e.w("beast_stats st;")
	e.w("memset(&st, 0, sizeof st);")
	if opts.Threads {
		e.w("int nthreads = argc > 1 ? atoi(argv[1]) : 1;")
		e.w("if (nthreads > 1) %s_mt(&st, NULL, NULL, nthreads);", opts.FuncName)
		e.w("else %s(&st, NULL, NULL);", opts.FuncName)
	} else {
		e.w("(void)argc; (void)argv;")
		e.w("%s(&st, NULL, NULL);", opts.FuncName)
	}
	e.w(`printf("survivors %%lld\n", (long long)st.survivors);`)
	e.w("i64 visits = 0;")
	e.w("for (int i = 0; i < %d; i++) visits += st.visits[i];", max(len(e.prog.Loops), 1))
	e.w(`printf("visits %%lld\n", (long long)visits);`)
	for i, c := range e.prog.Constraints {
		e.w(`printf("kill %s %%lld\n", (long long)st.kills[%d]);`, c.Name, i)
	}
	e.w("return 0;")
	e.indent--
	e.w("}")
}
