// Package codegen translates a planned search-space program into standard C
// (the paper's §X translation system: "conversion to a standard C code for
// fast and multithreaded, as necessary, evaluation") and into Go source for
// ahead-of-time compilation into this repository's own benchmarks.
//
// The emitted C is self-contained C99: no dependencies beyond libc (and
// pthreads for the multithreaded variant). Loops follow the planner's nest
// order; derived variables and constraints appear at their hoisted depths;
// settings are burned in as constants, exactly as the paper's translator
// specializes per precision and transpose case.
//
// Translatable programs are the declarative subset: expression iterators
// and expression constraints. Deferred/closure iterators are translatable
// only when closed over settings (their value lists are frozen at
// generation time); deferred constraints are rejected with an error, since
// their logic lives in host code the generator cannot see.
//
// One nest emitter (this file) writes loops, hoisted steps, narrowing, the
// chunked innermost block, tuple delivery and expressions for both
// languages. It writes C-shaped statements and asks a dialect only for the
// syntax where C and Go differ; Go output goes through gofmt, which
// removes C's semicolons and redundant parentheses.
package codegen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// NotTranslatableError reports a program feature the C generator cannot
// express (host-code constraints, open deferred iterators).
type NotTranslatableError struct{ Reason string }

func (e *NotTranslatableError) Error() string {
	return "codegen: not translatable to C: " + e.Reason
}

// dialect supplies a target language's surface syntax to the emitter.
// Types are named as in C: "const i64", "i64", "int" or "uint64_t".
type dialect interface {
	// keywords lists the space names that need a trailing underscore.
	keywords() map[string]bool
	// decl declares locals of one type from name, value pairs.
	decl(typ string, nv ...string) string
	// array declares an i64 array: n zeros when elems is empty, otherwise
	// a constant holding elems.
	array(name string, n int, elems string) string
	// keep marks a local as used.
	keep(name string) string
	// loop is a for header; without init and post it is a while header.
	loop(init, cond, post string) string
	// ifc is an if header; one is the one-statement body of an if, else
	// or loop header.
	ifc(cond string) string
	one(stmt string) string
	// truth and falsy test an i64 as a condition; boolInt turns a
	// condition into 0 or 1; ternary picks t or f of type typ, a C type
	// or "bool".
	truth(x string) string
	falsy(x string) string
	boolInt(cond string) string
	ternary(typ, cond, t, f string) string
	// u64 converts to uint64_t; complement is bitwise not.
	u64(x string) string
	complement(x string) string
	// stat names a field of the emitted counter struct.
	stat(field string) string
	// prefix scopes the names of the emitted tables.
	prefix() string
	// tabWindow reads the 64-lane pass window of plan table ti at bit
	// offset beast_base (of row beast_row when binary).
	tabWindow(ti, words int, binary bool) string
	// deliver hands a survivor tuple to the callback; ret is the statement
	// that ends the sweep when the loop-free prelude kills it.
	deliver(names []string) string
	ret() string
}

// emitter writes one program in one dialect.
type emitter struct {
	prog   *plan.Program
	d      dialect
	b      strings.Builder
	indent int
	tables []*expr.Table2D
	// chunk is the resolved innermost chunk size (0 = scalar emission);
	// laneSub rewrites lane-resident references to beast_v_*[beast_i]
	// while a chunked step body is being emitted.
	chunk   int
	laneSub map[string]string
	// calls records the shared helpers the code calls (call); the C
	// preamble defines only those, at byte helpersAt.
	calls     map[string]bool
	helpersAt int
	// reads records the names the current body's expressions read; the
	// body declares only the settings among them. unread names the
	// assignments only table-replaced checks read, which the body skips.
	reads, unread map[string]bool
}

func newEmitter(prog *plan.Program, d dialect, chunk int) *emitter {
	e := &emitter{prog: prog, d: d, chunk: genChunkSize(chunk, prog), calls: make(map[string]bool)}
	e.collectTables()
	return e
}

// call returns a call of the shared helper fn on args and records that
// the program uses it.
func (e *emitter) call(fn string, args ...string) string {
	e.calls[fn] = true
	return fn + "(" + strings.Join(args, ", ") + ")"
}

func (e *emitter) w(format string, args ...any) {
	e.b.WriteString(strings.Repeat("    ", e.indent))
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

func (e *emitter) blank() { e.b.WriteByte('\n') }

// ident maps a space name to an identifier. Optimizer temps ("$t0",
// "$t1", ...) carry a '$' that keeps them out of the speclang identifier
// space; it maps to a reserved beast_ prefix here.
func (e *emitter) ident(name string) string {
	if strings.HasPrefix(name, "$t") {
		return "beast_" + name[1:]
	}
	if e.d.keywords()[name] {
		return name + "_"
	}
	return name
}

// lanename maps an emitted identifier to its lane array: the optimizer
// temps' beast_ prefix folds into the beast_v_ namespace instead of
// stacking.
func lanename(id string) string {
	return "beast_v_" + strings.TrimPrefix(id, "beast_")
}

// genChunkSize resolves a requested chunk size for code emission: 0 or 1
// mean scalar, larger sizes clamp to 64 so the survivor mask is a single
// word, and programs that have no loops fall back to scalar silently —
// the emitted code is semantically identical either way.
func genChunkSize(n int, prog *plan.Program) int {
	if n <= 1 || prog.Vector == nil {
		return 0
	}
	return min(n, 64)
}

// intLit renders an int64 literal, parenthesized when negative and paren
// is set so it nests in any operand position. MinInt64 is spelt as an
// expression: C reads -9223372036854775808 as the negation of a constant
// too large for int64.
func intLit(v int64, paren bool) string {
	switch {
	case v == math.MinInt64:
		return "(-9223372036854775807 - 1)"
	case v < 0 && paren:
		return fmt.Sprintf("(%d)", v)
	}
	return fmt.Sprint(v)
}

// body writes the enumeration function's body: settings as constants, the
// prelude steps and the loop nest. When striped is true the outermost loop
// iterates only values with index % nthreads == tid (the C pthreads work
// division).
func (e *emitter) body(striped bool) error {
	e.reads, e.unread = make(map[string]bool), nil
	// The chunked innermost body reads a tabulated check's window, not its
	// expression — except in the striped worker of a one-loop program,
	// which stays scalar.
	if tabs := tabByStats(e.prog, e.chunk); len(tabs) > 0 && !(striped && len(e.prog.Loops) == 1) {
		inner := len(e.prog.Loops) - 1
		e.unread = e.prog.UnreadAssigns(func(st *plan.Step) bool {
			_, tabbed := tabs[st.StatsID]
			return st.Kind == plan.CheckStep && st.Depth == inner && tabbed
		})
	}
	at := e.b.Len()
	if err := e.nest(striped); err != nil {
		return err
	}
	// The settings the code reads go ahead of it as constants; strings
	// fold away, so they are all ints.
	src := e.b.String()
	e.b.Reset()
	e.b.WriteString(src[:at])
	for _, s := range e.prog.IntSettings() {
		if e.reads[s.Name] {
			e.w("%s;", e.d.decl("const i64", e.ident(s.Name), intLit(s.V.I, false)))
		}
	}
	e.blank()
	e.b.WriteString(src[at:])
	return nil
}

// nest writes the prelude steps and the loop nest.
func (e *emitter) nest(striped bool) error {
	for _, st := range e.prog.Prelude {
		if err := e.emitStep(st, e.d.ret()); err != nil {
			return err
		}
	}
	if len(e.prog.Loops) == 0 {
		// A loop-free program has one survivor, the empty tuple.
		e.survive()
		return nil
	}
	return e.emitLoop(0, striped)
}

// survive counts a survivor and delivers its tuple. Tuple values are
// emitted in source declaration order, so decoders stay valid under
// plan-time loop reordering.
func (e *emitter) survive() {
	var names []string
	for _, n := range e.prog.TupleNames() {
		if sub, ok := e.laneSub[n]; ok {
			names = append(names, sub)
		} else {
			names = append(names, e.ident(n))
		}
	}
	e.w("%s++;", e.d.stat("survivors"))
	e.w("%s", e.d.deliver(names))
}

// rangeParts renders a range domain's bounds. step is the literal step
// when lit is nonzero, otherwise the step expression.
func (e *emitter) rangeParts(n *space.RangeDomain) (start, stop, step string, lit int64, err error) {
	if start, err = e.expr(n.Start); err != nil {
		return
	}
	if stop, err = e.expr(n.Stop); err != nil {
		return
	}
	if l, ok := n.Step.(*expr.Lit); ok && l.V.I != 0 {
		return start, stop, intLit(l.V.I, false), l.V.I, nil
	}
	step, err = e.expr(n.Step)
	return
}

// loHi declares loop d's step and its narrowable [beast_lo_d, beast_hi_d).
func (e *emitter) loHi(d int, start, stop, step string) {
	e.w("%s;", e.d.decl("const i64", fmt.Sprintf("beast_step_%d", d), step))
	e.w("%s;", e.d.decl("i64", fmt.Sprintf("beast_lo_%d", d), start, fmt.Sprintf("beast_hi_%d", d), "("+stop+")"))
}

// runs is the condition that v has not passed hi under loop d's run-time
// step.
func (e *emitter) runs(d int, v, hi string) string {
	return e.d.ternary("bool", fmt.Sprintf("beast_step_%d > 0", d), fmt.Sprintf("%s < %s", v, hi),
		fmt.Sprintf("(beast_step_%d < 0 && %s > %s)", d, v, hi))
}

// list declares loop d's value list.
func (e *emitter) list(d int, n *space.ListDomain) error {
	elems := make([]string, len(n.Elems))
	for i, x := range n.Elems {
		s, err := e.expr(x)
		if err != nil {
			return err
		}
		elems[i] = s
	}
	e.w("%s;", e.d.array(fmt.Sprintf("beast_list_%d", d), 0, strings.Join(elems, ", ")))
	return nil
}

func (e *emitter) emitLoop(d int, striped bool) error {
	lp := e.prog.Loops[d]
	v := e.ident(lp.Iter.Name)
	last := d == len(e.prog.Loops)-1
	if striped && d == 0 {
		e.w("%s;", e.d.decl("i64", "beast_outer_idx", "-1"))
	}
	dom, err := e.normalizeDomain(lp)
	if err != nil {
		return fmt.Errorf("iterator %s: %w", lp.Iter.Name, err)
	}
	// Chunked innermost loop — except when the tid-striped outermost loop
	// is itself the innermost one: the stripe guard needs per-iteration
	// control there, so that worker shape stays scalar.
	if e.chunk > 1 && last && !(striped && d == 0) {
		return e.emitChunkLoop(d, dom)
	}
	blocks := 1 // braces to close after the body
	open := func() {
		e.w("{")
		e.indent++
		blocks++
	}
	var bind string // binds v to the current list element
	switch n := dom.(type) {
	case *space.RangeDomain:
		start, stop, step, lit, err := e.rangeParts(n)
		if err != nil {
			return err
		}
		switch {
		case lp.Bounds != nil:
			// Narrowed loop (plan bounds pass): evaluate the absorbed
			// constraint groups once at loop entry, then iterate the
			// tightened [lo, hi).
			open()
			e.loHi(d, start, stop, step)
			if err := e.emitNarrow(d, lp, lit == 0, striped && d == 0); err != nil {
				return err
			}
			cond := fmt.Sprintf("%s < beast_hi_%d", v, d)
			if lit == 0 {
				cond = e.runs(d, v, fmt.Sprintf("beast_hi_%d", d))
			}
			e.w("%s {", e.d.loop(e.d.decl("i64", v, fmt.Sprintf("beast_lo_%d", d)), cond, fmt.Sprintf("%s += beast_step_%d", v, d)))
		case lit != 0:
			cmp := "<"
			if lit < 0 {
				cmp = ">"
			}
			e.w("%s {", e.d.loop(e.d.decl("i64", v, start), fmt.Sprintf("%s %s (%s)", v, cmp, stop), v+" += "+step))
		default:
			open()
			e.w("%s;", e.d.decl("const i64", fmt.Sprintf("beast_stop_%d", d), stop, fmt.Sprintf("beast_step_%d", d), step))
			e.w("%s {", e.d.loop(e.d.decl("i64", v, start), e.runs(d, v, fmt.Sprintf("beast_stop_%d", d)), fmt.Sprintf("%s += beast_step_%d", v, d)))
		}
	case *space.ListDomain:
		open()
		if err := e.list(d, n); err != nil {
			return err
		}
		i := fmt.Sprintf("beast_i_%d", d)
		e.w("%s {", e.d.loop(e.d.decl("int", i, "0"), fmt.Sprintf("%s < %d", i, len(n.Elems)), i+"++"))
		bind = e.d.decl("const i64", v, fmt.Sprintf("beast_list_%d[%s]", d, i))
	default:
		return &NotTranslatableError{Reason: fmt.Sprintf("domain %T of iterator %s", dom, lp.Iter.Name)}
	}
	e.indent++
	if bind != "" {
		e.w("%s;", bind)
	}
	if striped && d == 0 {
		e.w("beast_outer_idx++; %s%s", e.d.ifc("beast_outer_idx % nthreads != tid"), e.d.one("continue"))
	}
	e.w("%s[%d]++;", e.d.stat("visits"), d)
	for _, st := range lp.Steps {
		if err := e.emitStep(st, "continue"); err != nil {
			return err
		}
	}
	if last {
		e.survive()
	} else if err := e.emitLoop(d+1, false); err != nil {
		return err
	}
	for ; blocks > 0; blocks-- {
		e.indent--
		e.w("}")
	}
	return nil
}

// emitChunkLoop writes the innermost loop in chunked form: lane values
// fill fixed-size beast_v_* arrays in blocks of e.chunk, every residual
// step evaluates over the whole block (a per-lane loop the compiler can
// auto-vectorize), and a 64-bit survivor mask short-circuits killed
// lanes. Counters follow the engines' chunk discipline — each step is
// credited once per lane still live when it runs — so visits, checks,
// kills, and survivors are bit-identical to scalar emission.
func (e *emitter) emitChunkLoop(d int, dom space.DomainExpr) error {
	lp := e.prog.Loops[d]
	// cursor declares the position in the domain, more holds while values
	// remain, fill gates the block fill, and next is the next value
	// followed by the statement that advances past it.
	var cursor, more, fill, next string
	e.w("{ /* chunked innermost loop (chunk=%d) */", e.chunk)
	e.indent++
	switch n := dom.(type) {
	case *space.RangeDomain:
		start, stop, step, lit, err := e.rangeParts(n)
		if err != nil {
			return err
		}
		e.loHi(d, start, stop, step)
		if lp.Bounds != nil {
			if err := e.emitNarrow(d, lp, lit == 0, false); err != nil {
				return err
			}
		}
		cur, hi := fmt.Sprintf("beast_cur_%d", d), fmt.Sprintf("beast_hi_%d", d)
		switch {
		case lit > 0:
			more = cur + " < " + hi
		case lit < 0:
			more = cur + " > " + hi
		default:
			more = e.runs(d, cur, hi)
		}
		cursor = e.d.decl("i64", cur, fmt.Sprintf("beast_lo_%d", d))
		fill = "(" + more + ")"
		next = fmt.Sprintf("%s; %s += beast_step_%d", cur, cur, d)
	case *space.ListDomain:
		if err := e.list(d, n); err != nil {
			return err
		}
		pos := fmt.Sprintf("beast_pos_%d", d)
		cursor = e.d.decl("int", pos, "0")
		more = fmt.Sprintf("%s < %d", pos, len(n.Elems))
		fill = more
		next = fmt.Sprintf("beast_list_%d[%s]; %s++", d, pos, pos)
	default:
		return &NotTranslatableError{Reason: fmt.Sprintf("domain %T of iterator %s", dom, lp.Iter.Name)}
	}
	lane := lanename(e.ident(lp.Iter.Name))
	e.w("%s;", e.d.array(lane, e.chunk, ""))
	seen := map[string]bool{lane: true}
	for _, st := range lp.Steps {
		if arr := lanename(e.ident(st.Name)); st.Kind == plan.AssignStep && !e.unread[st.Name] && !seen[arr] {
			seen[arr] = true
			e.w("%s;", e.d.array(arr, e.chunk, ""))
		}
	}
	e.w("%s;", cursor)
	e.w("%s {", e.d.loop("", more, ""))
	e.indent++
	e.w("%s;", e.d.decl("int", "beast_k", "0"))
	e.w("%s { %s[beast_k] = %s; }", e.d.loop("", fmt.Sprintf("beast_k < %d && %s", e.chunk, fill), "beast_k++"), lane, next)
	if err := e.emitChunkBody(d); err != nil {
		return err
	}
	e.indent--
	e.w("}")
	e.indent--
	e.w("}")
	return nil
}

// emitChunkBody writes one block's evaluation: visit crediting, mask
// initialization, the vectorized steps, and the survivor sweep. Runs
// with beast_k lanes filled; lane-resident references are substituted
// only inside this body — narrowing probes outside it keep the scalar
// loop variable.
func (e *emitter) emitChunkBody(d int) error {
	prog, x := e.prog, e.d
	lp := prog.Loops[d]
	tabs := tabByStats(prog, e.chunk)
	e.laneSub = map[string]string{lp.Iter.Name: lanename(e.ident(lp.Iter.Name)) + "[beast_i]"}
	for _, st := range lp.Steps {
		if st.Kind == plan.AssignStep {
			e.laneSub[st.Name] = lanename(e.ident(st.Name)) + "[beast_i]"
		}
	}
	defer func() { e.laneSub = nil }()
	lanes := x.loop(x.decl("int", "beast_i", "0"), "beast_i < beast_k", "beast_i++")
	e.w("%s[%d] += beast_k;", x.stat("visits"), d)
	e.w("%s;", x.decl("uint64_t", "beast_mask",
		x.ternary("uint64_t", "beast_k == 64", x.complement(x.u64("0")), "(("+x.u64("1")+" << beast_k) - 1)")))
	e.w("%s;", x.decl("i64", "beast_live", "beast_k"))
	e.w("%s;", x.keep("beast_live"))
	for _, st := range lp.Steps {
		if st.Kind == plan.AssignStep {
			if e.unread[st.Name] {
				continue
			}
			val, err := e.expr(st.Expr)
			if err != nil {
				return err
			}
			e.w("%s%s", lanes, x.one(e.laneSub[st.Name]+" = "+val))
			continue
		}
		if st.Constraint.Deferred() {
			return &NotTranslatableError{Reason: fmt.Sprintf("deferred constraint %q is host code", st.Name)}
		}
		if ti, tabbed := tabs[st.StatsID]; tabbed {
			// Tabulated check: one window of the pass bitset replaces the
			// per-lane kill loop; the tail below is shared, so counters
			// stay bit-identical to expression emission.
			t := prog.Tab.Tables[ti]
			e.w("%s[%d] += beast_live; /* %s (%s): tabulated */", x.stat("checks"), st.StatsID, st.Name, st.Constraint.Class)
			e.w("{")
			e.indent++
			e.w("%s;", x.decl("const i64", "beast_base",
				fmt.Sprintf("(%s[0] - (%d)) / (%d)", lanename(e.ident(prog.Tab.InnerName)), prog.Tab.Base, prog.Tab.Step)))
			if t.Kind == plan.BinaryTable {
				e.w("%s;", x.decl("const i64", "beast_row",
					fmt.Sprintf("(%s - (%d)) / (%d)", e.ident(t.OuterName), t.OuterBase, t.OuterStep)))
			}
			e.w("%s;", x.decl("uint64_t", "beast_kill", "beast_mask & "+x.complement(x.tabWindow(ti, t.RowWords, t.Kind == plan.BinaryTable))))
		} else {
			val, err := e.expr(st.Expr)
			if err != nil {
				return err
			}
			e.w("%s[%d] += beast_live; /* %s (%s) */", x.stat("checks"), st.StatsID, st.Name, st.Constraint.Class)
			e.w("{")
			e.indent++
			e.w("%s;", x.decl("uint64_t", "beast_kill", "0"))
			e.w("%s {", lanes)
			e.w("    %s%s", x.ifc(x.truth(val)), x.one("beast_kill |= "+x.u64("1")+" << beast_i"))
			e.w("}")
			e.w("beast_kill &= beast_mask;")
		}
		e.w("%s {", x.ifc(x.truth("beast_kill")))
		e.indent++
		e.w("%s;", x.decl("const i64", "beast_kc", e.call("beast_popcount", "beast_kill")))
		e.w("%s[%d] += beast_kc;", x.stat("kills"), st.StatsID)
		e.w("beast_mask &= %s;", x.complement("beast_kill"))
		e.w("beast_live -= beast_kc;")
		e.w("%s%s /* whole block killed: next chunk */", x.ifc("beast_live == 0"), x.one("continue"))
		e.indent--
		e.w("}")
		e.indent--
		e.w("}")
	}
	e.w("%s {", lanes)
	e.indent++
	e.w("%s%s", x.ifc(x.falsy("((beast_mask >> beast_i) & 1)")), x.one("continue"))
	e.survive()
	e.indent--
	e.w("}")
	return nil
}

// emitNarrow writes the loop-entry narrowing block of a bounded loop: the
// mirror of the engines' range narrowing. Each absorbed constraint group
// tightens [beast_lo_d, beast_hi_d) — symbolic Lo bounds align up to the
// step grid, Hi bounds clamp, pins keep at most their one value
// (beast_pin), monotone probes binary-search the feasible boundary — and
// the values a group skips are credited to its
// constraint's checks/kills counters, so the funnel matches a
// non-narrowed sweep. As in the engines, the count beast_n_d of values
// left is kept as the bounds move, and counts and trial values are taken
// in uint64 (beast_count, beast_nth), so a range wider than MaxInt64
// narrows exactly. dynStep guards the whole block on a positive runtime
// step; tid0 restricts the crediting to thread 0 in the striped variant,
// where every thread narrows the outer loop but the skips must be counted
// once.
func (e *emitter) emitNarrow(d int, lp *plan.Loop, dynStep, tid0 bool) error {
	x := e.d
	lo, hi, step := fmt.Sprintf("beast_lo_%d", d), fmt.Sprintf("beast_hi_%d", d), fmt.Sprintf("beast_step_%d", d)
	b, sl, sh, mid := fmt.Sprintf("beast_b_%d", d), fmt.Sprintf("beast_sl_%d", d), fmt.Sprintf("beast_sh_%d", d), fmt.Sprintf("beast_mid_%d", d)
	n, k, before := fmt.Sprintf("beast_n_%d", d), fmt.Sprintf("beast_k_%d", d), fmt.Sprintf("beast_before_%d", d)
	count := func(to string) string { return e.call("beast_count", lo, to, step) }
	nth := func(i string) string { return e.call("beast_nth", lo, step, i) }
	// dropFirst drops the first i values: the range empties when i
	// reaches the count.
	dropFirst := func(i string) string {
		return fmt.Sprintf("%s { %s = %s; %s -= %s; } else { %s = %s; %s = 0; }", x.ifc(i+" < "+n), lo, nth(i), n, i, lo, hi, n)
	}
	if dynStep {
		e.w("%s {", x.ifc(step+" > 0"))
		e.indent++
	}
	e.w("%s;", x.decl("uint64_t", n, count(hi)))
	v := e.ident(lp.Iter.Name)
	for gi := range lp.Bounds.Groups {
		grp := &lp.Bounds.Groups[gi]
		e.w("{ /* narrow: %s (%s) */", grp.Name, e.prog.Constraints[grp.StatsID].Class)
		e.indent++
		e.w("%s;", x.decl("uint64_t", before, n))
		for _, bound := range grp.Lo {
			val, err := e.expr(bound)
			if err != nil {
				return err
			}
			e.w("{ %s; %s { %s; %s } }", x.decl("const i64", b, val), x.ifc(b+" > "+lo), x.decl("uint64_t", k, count(b)), dropFirst(k))
		}
		for _, bound := range grp.Hi {
			val, err := e.expr(bound)
			if err != nil {
				return err
			}
			e.w("{ %s; %s { %s = %s; %s = %s; } }", x.decl("const i64", b, val), x.ifc(b+" < "+hi), hi, b, n, count(hi))
		}
		for _, pin := range grp.Pins {
			num, err := e.expr(pin.Num)
			if err != nil {
				return err
			}
			den, err := e.expr(pin.Den)
			if err != nil {
				return err
			}
			e.w("{ %s; %s { %s = %s; %s = %s + 1; %s = 1; } else { %s = %s; %s = 0; } }",
				x.decl("const i64", b, e.call("beast_pin", num, den, lo, hi, step)), x.ifc(b+" < "+hi), lo, b, hi, b, n, lo, hi, n)
		}
		for pi := range grp.Probes {
			p := &grp.Probes[pi]
			pred, err := e.expr(p.Pred)
			if err != nil {
				return err
			}
			e.w("{")
			e.indent++
			e.w("%s;", x.decl("uint64_t", sl, "0", sh, n))
			e.w("%s {", x.loop("", sl+" < "+sh, ""))
			e.indent++
			e.w("%s;", x.decl("uint64_t", mid, fmt.Sprintf("%s + (%s - %s) / 2", sl, sh, sl)))
			e.w("%s;", x.decl("const i64", v, nth(mid)))
			// A suffix-feasible probe finds the first passing value, a
			// prefix-feasible one the first failing value.
			cond := x.truth(pred)
			if p.SuffixFeasible {
				cond = x.falsy("(" + pred + ")")
			}
			e.w("%s%s else%s", x.ifc(cond), x.one(sh+" = "+mid), x.one(sl+" = "+mid+" + 1"))
			e.indent--
			e.w("}")
			if p.SuffixFeasible {
				e.w("%s", dropFirst(sl))
			} else {
				e.w("%s { %s = %s; %s = %s; }", x.ifc(sl+" < "+n), hi, nth(sl), n, sl)
			}
			e.indent--
			e.w("}")
		}
		skip := fmt.Sprintf("beast_skip_%d", d)
		e.w("%s;", x.decl("const i64", skip, before+" - "+n))
		credit := skip + " > 0"
		if tid0 {
			credit += " && tid == 0"
		}
		e.w("%s { %s[%d] += %s; %s[%d] += %s; }", x.ifc(credit), x.stat("checks"), grp.StatsID, skip, x.stat("kills"), grp.StatsID, skip)
		e.indent--
		e.w("}")
	}
	if dynStep {
		e.indent--
		e.w("}")
	}
	return nil
}

func (e *emitter) emitStep(st plan.Step, killStmt string) error {
	if st.Kind == plan.AssignStep && e.unread[st.Name] {
		return nil
	}
	if st.Kind != plan.AssignStep && st.Constraint.Deferred() {
		return &NotTranslatableError{Reason: fmt.Sprintf("deferred constraint %q is host code", st.Name)}
	}
	val, err := e.expr(st.Expr)
	if err != nil {
		return err
	}
	if st.Kind == plan.AssignStep {
		e.w("%s;", e.d.decl("const i64", e.ident(st.Name), val))
		return nil
	}
	e.w("%s[%d]++; /* %s (%s) */", e.d.stat("checks"), st.StatsID, st.Name, st.Constraint.Class)
	e.w("%s { %s[%d]++; %s; }", e.d.ifc(e.d.truth(val)), e.d.stat("kills"), st.StatsID, killStmt)
	return nil
}

// binOps are the binary operators both languages spell alike; comparisons
// yield a condition the dialect turns back into 0 or 1.
var binOps = map[expr.Op]string{
	expr.OpAdd: "+", expr.OpSub: "-", expr.OpMul: "*",
	expr.OpEq: "==", expr.OpNe: "!=", expr.OpLt: "<",
	expr.OpLe: "<=", expr.OpGt: ">", expr.OpGe: ">=",
}

// expr renders a bound expression as an i64 value. Comparisons and boolean
// operators produce 0/1, matching the engines' semantics.
func (e *emitter) expr(x expr.Expr) (string, error) {
	args := func(xs ...expr.Expr) ([]string, error) {
		out := make([]string, len(xs))
		for i, a := range xs {
			s, err := e.expr(a)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	switch n := x.(type) {
	case *expr.Lit:
		return intLit(n.V.I, true), nil
	case *expr.Ref:
		e.reads[n.Name] = true
		if sub, ok := e.laneSub[n.Name]; ok {
			return sub, nil
		}
		return e.ident(n.Name), nil
	case *expr.Unary:
		a, err := e.expr(n.X)
		if err != nil {
			return "", err
		}
		if n.Op == expr.OpNeg {
			return "(-" + a + ")", nil
		}
		return e.d.boolInt("(" + e.d.falsy(a) + ")"), nil
	case *expr.Binary:
		a, err := args(n.L, n.R)
		if err != nil {
			return "", err
		}
		switch n.Op {
		case expr.OpDiv:
			return e.call("beast_div", a[0], a[1]), nil
		case expr.OpMod:
			return e.call("beast_mod", a[0], a[1]), nil
		case expr.OpAnd:
			return e.d.boolInt(fmt.Sprintf("(%s && %s)", e.d.truth(a[0]), e.d.truth(a[1]))), nil
		case expr.OpOr:
			return e.d.boolInt(fmt.Sprintf("(%s || %s)", e.d.truth(a[0]), e.d.truth(a[1]))), nil
		case expr.OpAdd, expr.OpSub, expr.OpMul:
			return fmt.Sprintf("(%s %s %s)", a[0], binOps[n.Op], a[1]), nil
		}
		if op := binOps[n.Op]; op != "" {
			return e.d.boolInt(fmt.Sprintf("(%s %s %s)", a[0], op, a[1])), nil
		}
		return "", fmt.Errorf("codegen: bad binary op %v", n.Op)
	case *expr.Ternary:
		a, err := args(n.Cond, n.Then, n.Else)
		if err != nil {
			return "", err
		}
		return "(" + e.d.ternary("i64", e.d.truth(a[0]), a[1], a[2]) + ")", nil
	case *expr.Call:
		a, err := args(n.Args...)
		if err != nil {
			return "", err
		}
		switch n.Fn {
		case "abs":
			return e.call("beast_abs", a[0]), nil
		case "min", "max":
			out := a[0]
			for _, b := range a[1:] {
				out = e.call("beast_"+n.Fn, out, b)
			}
			return out, nil
		}
		return "", fmt.Errorf("codegen: unknown builtin %q", n.Fn)
	case *expr.Table2D:
		idx := e.tableIndex(n)
		a, err := args(n.Row, n.Col)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("beast_%stable%d_at(%s, %s)", e.d.prefix(), idx, a[0], a[1]), nil
	default:
		return "", fmt.Errorf("codegen: unsupported expression type %T", x)
	}
}

// collectTables walks every expression in the program registering Table2D
// nodes so they emit exactly once.
func (e *emitter) collectTables() {
	var walkE func(x expr.Expr)
	walkE = func(x expr.Expr) {
		switch n := x.(type) {
		case *expr.Unary:
			walkE(n.X)
		case *expr.Binary:
			walkE(n.L)
			walkE(n.R)
		case *expr.Ternary:
			walkE(n.Cond)
			walkE(n.Then)
			walkE(n.Else)
		case *expr.Call:
			for _, a := range n.Args {
				walkE(a)
			}
		case *expr.Table2D:
			e.tableIndex(n)
			walkE(n.Row)
			walkE(n.Col)
		}
	}
	var walkD func(d space.DomainExpr)
	walkD = func(d space.DomainExpr) {
		switch n := d.(type) {
		case *space.RangeDomain:
			walkE(n.Start)
			walkE(n.Stop)
			walkE(n.Step)
		case *space.ListDomain:
			for _, x := range n.Elems {
				walkE(x)
			}
		case *space.CondDomain:
			walkE(n.Cond)
			walkD(n.Then)
			walkD(n.Else)
		case *space.AlgebraDomain:
			walkD(n.L)
			walkD(n.R)
		}
	}
	for _, st := range e.prog.Prelude {
		if st.Expr != nil {
			walkE(st.Expr)
		}
	}
	for _, lp := range e.prog.Loops {
		if lp.Domain != nil {
			walkD(lp.Domain)
		}
		for _, st := range lp.Steps {
			if st.Expr != nil {
				walkE(st.Expr)
			}
		}
		lp.Bounds.EachExpr(walkE)
	}
}

func (e *emitter) tableIndex(t *expr.Table2D) int {
	for i, have := range e.tables {
		if have == t || (have.Name == t.Name && sameTable(have.Data, t.Data)) {
			return i
		}
	}
	e.tables = append(e.tables, t)
	return len(e.tables) - 1
}

func sameTable(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// tableRows renders a Table2D's rows padded with its default to the
// width of the longest row.
func tableRows(t *expr.Table2D) (rows []string, cols int) {
	for _, r := range t.Data {
		cols = max(cols, len(r))
	}
	for _, r := range t.Data {
		vals := make([]string, cols)
		for i := range vals {
			vals[i] = intLit(t.Default, false)
			if i < len(r) {
				vals[i] = intLit(r[i], false)
			}
		}
		rows = append(rows, strings.Join(vals, ", "))
	}
	return rows, cols
}

// emittableTabs returns the plan table indices the code generators can
// emit as static data, in table order. Empty for scalar emission: the
// scalar paths keep the expression form.
//
// Only value-indexed tabulations are emittable: their bit positions
// derive from lane values with plan constants ((value − Base)/Step),
// which stays valid whatever form the domain normalizes to and under
// loop-entry narrowing. Binary tables are emitted only in Full form (the
// outer domain materialized whole); lazily cached binary tables and
// position-indexed tabulations keep the expression path, which computes
// identical kill bits.
func emittableTabs(prog *plan.Program, chunk int) []int {
	if chunk <= 1 || prog.Tab == nil || !prog.Tab.ValueIndexed {
		return nil
	}
	var idx []int
	for ti, t := range prog.Tab.Tables {
		if t.Kind == plan.UnaryTable || t.Full {
			idx = append(idx, ti)
		}
	}
	return idx
}

// tabByStats maps a constraint's StatsID to its emittable table index.
func tabByStats(prog *plan.Program, chunk int) map[int]int {
	m := make(map[int]int)
	for _, ti := range emittableTabs(prog, chunk) {
		m[prog.Tab.Tables[ti].StatsID] = ti
	}
	return m
}

// tabRows returns the words of emittable table ti, one row per outer
// value (a single row for unary tables), as hex literals with suffix.
func tabRows(tab *plan.Tabulation, ti int, suffix string) []string {
	t := tab.Tables[ti]
	rows := [][]uint64{t.Bits}
	if t.Kind != plan.UnaryTable {
		rows = tab.FullRows(t)
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, w := range row {
			parts[j] = fmt.Sprintf("0x%016x%s", w, suffix)
		}
		out[i] = strings.Join(parts, ", ")
	}
	return out
}

// normalizeDomain reduces a loop's domain to a Range or List:
//   - Cond(Range, Range) with identical literal steps merges into a Range
//     with ternary bounds;
//   - Cond(List, List) of equal length merges element-wise with ternaries;
//   - closed deferred/closure iterators (dependencies are settings only)
//     freeze to the literal value list they produce;
//   - algebra over closed operands freezes to its value list.
func (e *emitter) normalizeDomain(lp *plan.Loop) (space.DomainExpr, error) {
	if lp.Iter.Kind != space.ExprIter {
		if len(lp.ArgSlots) != 0 && !e.argsAreSettings(lp.ArgSlots) {
			return nil, &NotTranslatableError{Reason: fmt.Sprintf(
				"%s iterator %q depends on other iterators; host logic cannot be frozen",
				lp.Iter.Kind, lp.Iter.Name)}
		}
		env := e.prog.NewEnv()
		var vals []int64
		lp.Iter.Iterate(env, lp.ArgSlots, func(v int64) bool {
			vals = append(vals, v)
			return true
		})
		return space.NewIntList(vals...), nil
	}
	return normalizeExprDomain(lp.Domain)
}

func (e *emitter) argsAreSettings(slots []int) bool {
	bySlot := e.prog.SettingBySlot()
	for _, s := range slots {
		if _, ok := bySlot[s]; !ok {
			return false
		}
	}
	return true
}

func normalizeExprDomain(d space.DomainExpr) (space.DomainExpr, error) {
	switch n := d.(type) {
	case *space.RangeDomain, *space.ListDomain:
		return n, nil
	case *space.CondDomain:
		thenD, err := normalizeExprDomain(n.Then)
		if err != nil {
			return nil, err
		}
		elseD, err := normalizeExprDomain(n.Else)
		if err != nil {
			return nil, err
		}
		tr, trOK := asRange(thenD)
		er, erOK := asRange(elseD)
		if trOK && erOK {
			return &space.RangeDomain{
				Start: expr.If(n.Cond, tr.Start, er.Start),
				Stop:  expr.If(n.Cond, tr.Stop, er.Stop),
				Step:  expr.If(n.Cond, tr.Step, er.Step),
			}, nil
		}
		tl, tok := thenD.(*space.ListDomain)
		el, eok := elseD.(*space.ListDomain)
		if tok && eok && len(tl.Elems) == len(el.Elems) {
			elems := make([]expr.Expr, len(tl.Elems))
			for i := range elems {
				elems[i] = expr.If(n.Cond, tl.Elems[i], el.Elems[i])
			}
			return space.NewList(elems...), nil
		}
		// Mixed shapes: translatable only when the condition is constant
		// (the planner folds those before we get here).
		return nil, &NotTranslatableError{Reason: "conditional domain with branches of different shapes; " +
			"specialize the settings so the condition folds"}
	case *space.AlgebraDomain:
		if deps := space.DomainDeps(n); len(deps) > 0 {
			return nil, &NotTranslatableError{Reason: "iterator-algebra domain depending on " + strings.Join(deps, ", ")}
		}
		return space.NewIntList(space.Materialize(n, &expr.Env{})...), nil
	default:
		return nil, &NotTranslatableError{Reason: fmt.Sprintf("domain type %T", d)}
	}
}

// asRange views a domain as a range when possible: ranges directly, and
// literal lists forming an arithmetic progression (Figure 11's vec_mul
// mixes the scalar `0` with range(0, 2); the scalar is range(0, 1)).
func asRange(d space.DomainExpr) (*space.RangeDomain, bool) {
	if r, ok := d.(*space.RangeDomain); ok {
		return r, true
	}
	l, ok := d.(*space.ListDomain)
	if !ok || len(l.Elems) == 0 {
		return nil, false
	}
	vals := make([]int64, len(l.Elems))
	for i, e := range l.Elems {
		lit, ok := e.(*expr.Lit)
		if !ok {
			return nil, false
		}
		vals[i] = lit.V.I
	}
	step := int64(1)
	if len(vals) > 1 {
		step = vals[1] - vals[0]
		if step == 0 {
			return nil, false
		}
		for i := 2; i < len(vals); i++ {
			if vals[i]-vals[i-1] != step {
				return nil, false
			}
		}
	}
	return &space.RangeDomain{
		Start: expr.IntLit(vals[0]),
		Stop:  expr.IntLit(vals[len(vals)-1] + step),
		Step:  expr.IntLit(step),
	}, true
}
