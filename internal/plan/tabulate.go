package plan

import (
	"repro/internal/expr"
	"repro/internal/space"
)

// Constraint tabulation: at plan time, pruning checks hoisted to the
// innermost loop are classified by free-variable arity. A check whose
// free iterators reduce to {inner} becomes a dense bitset over the inner
// domain's value positions (one pass bit per candidate value, built
// eagerly); a check over {inner, outer} becomes a row-indexed bitset
// table whose rows — one per outer value — are built lazily into a
// bounded, memoized per-worker row cache so huge cross products never
// fully materialize. The chunked evaluators then replace per-lane
// expression evaluation with one word-wise AND of precomputed mask words
// against the survivor bitmask; scalar paths index single bits. Anything
// host-deferred, multi-outer, over-budget, or over a non-enumerable inner
// domain keeps the existing expression path. Pass bits are defined as the
// negation of the kill predicate, so kill counts are bit-identical to the
// untabulated run by construction.

// DefaultTabulateBudget bounds the bytes committed to constraint tables
// (unary bitsets plus binary row-cache capacity) when Options leaves
// TabulateBudget zero.
const DefaultTabulateBudget = 8 << 20

// maxTabVals caps the plan-time enumeration of the inner (and outer)
// domains: beyond this many values the table would dwarf any budget and
// the enumeration itself would dominate plan time.
const maxTabVals = 1 << 20

// TableKind discriminates unary (inner-only) from binary (inner×outer)
// constraint tables.
type TableKind uint8

// Table kinds.
const (
	// UnaryTable is a dense bitset over the inner domain positions,
	// built eagerly at plan time.
	UnaryTable TableKind = iota
	// BinaryTable is a row-per-outer-value bitset table, built lazily
	// into a bounded memoized row cache at run time.
	BinaryTable
)

// Table is one tabulated pruning check. Bit i of a row is 1 when the
// inner value at position i PASSES the check (the kill predicate is
// falsy), so evaluators AND rows straight into the survivor mask.
type Table struct {
	Kind TableKind

	// Name and StatsID identify the source constraint (plan order).
	Name    string
	StatsID int

	// Pred is the bound kill predicate the table was built from; the
	// scalar fallback paths still evaluate it when a position cannot be
	// derived.
	Pred expr.Expr

	// InnerSupport and OuterSupport are the assignment steps in the
	// predicate's dependency cone: OuterSupport (outer depths, nest
	// order) runs once per row, InnerSupport (innermost depth, step
	// order) runs once per bit.
	InnerSupport []Step
	OuterSupport []Step

	// Bits is the eagerly built pass bitset of a unary table.
	Bits []uint64

	// Binary tables: the outer iterator, its environment slot, and the
	// row-cache capacity the budget granted. RowWords is the row length
	// in 64-bit words (shared with unary, where it is len(Bits)).
	OuterName string
	OuterSlot int
	MaxRows   int
	RowWords  int

	// Full marks a binary table whose outer domain is a statically
	// enumerable range small enough to materialize every row — the form
	// the code generators can emit as a flat constant array, with row
	// index (outer − OuterBase)/OuterStep.
	Full      bool
	OuterBase int64
	OuterStep int64
	OuterN    int
}

// Tabulation is the plan's constraint-table set: the inner-domain
// geometry shared by every table plus the tables themselves. It is
// immutable after planning; run-time row caches live in the engines.
type Tabulation struct {
	// Depth is the innermost loop index; InnerName/InnerSlot its
	// iterator.
	Depth     int
	InnerName string
	InnerSlot int

	// ValueIndexed marks a static range inner domain: position =
	// (value − Base)/Step, which survives bounds narrowing because
	// narrowed ranges stay on the step grid. Position-indexed domains
	// (static lists, conditionals, algebra) use the fill cursor instead
	// and are consumed only by the chunked evaluators.
	ValueIndexed bool
	Base, Step   int64

	// Vals is the inner domain in iteration order; N = len(Vals) is the
	// bits-per-row count.
	Vals []int64

	// Tables lists the tabulated checks in innermost step order.
	Tables []*Table

	// ByStats maps a constraint's StatsID to its Tables index.
	ByStats map[int]int

	// TableBytes is the committed budget: unary bitset bytes plus
	// binary row-cache capacity.
	TableBytes int64

	prog *Program
}

// N returns the bits-per-row count (the inner domain cardinality).
func (tb *Tabulation) N() int { return len(tb.Vals) }

// NewBuildEnv returns a fresh environment for row building: settings
// prefilled and prelude assignments applied. Each call returns an
// independent environment, so concurrent workers can build rows without
// sharing mutable state.
func (tb *Tabulation) NewBuildEnv() *expr.Env {
	env := tb.prog.NewEnv()
	runPreludeAssigns(tb.prog, env)
	return env
}

// BuildRow fills dst with the pass bits of t for the given outer value
// (ignored for unary tables): bit i is 1 when the kill predicate is
// falsy at inner value Vals[i]. env must come from NewBuildEnv and is
// clobbered.
func (tb *Tabulation) BuildRow(t *Table, outer int64, env *expr.Env, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	if t.Kind == BinaryTable {
		env.Slots[t.OuterSlot] = expr.IntVal(outer)
		for i := range t.OuterSupport {
			st := &t.OuterSupport[i]
			env.Slots[st.Slot] = st.Expr.Eval(env)
		}
	}
	for i, v := range tb.Vals {
		env.Slots[tb.InnerSlot] = expr.IntVal(v)
		for j := range t.InnerSupport {
			st := &t.InnerSupport[j]
			env.Slots[st.Slot] = st.Expr.Eval(env)
		}
		if !t.Pred.Eval(env).Truthy() {
			dst[i>>6] |= 1 << uint(i&63)
		}
	}
}

// FullRows materializes every row of a Full binary table in outer value
// order — the code generators' emission path.
func (tb *Tabulation) FullRows(t *Table) [][]uint64 {
	env := tb.NewBuildEnv()
	rows := make([][]uint64, t.OuterN)
	for r := range rows {
		rows[r] = make([]uint64, t.RowWords)
		tb.BuildRow(t, t.OuterBase+int64(r)*t.OuterStep, env, rows[r])
	}
	return rows
}

// dynamicNames returns the names bound inside the nest — loop variables
// and loop-level assignments. A domain referencing any of them cannot be
// enumerated at plan time.
func dynamicNames(prog *Program) map[string]bool {
	dynamic := make(map[string]bool)
	for _, lp := range prog.Loops {
		dynamic[lp.Iter.Name] = true
		for i := range lp.Steps {
			if lp.Steps[i].Kind == AssignStep {
				dynamic[lp.Steps[i].Name] = true
			}
		}
	}
	return dynamic
}

// staticLen sizes a domain against the prelude environment when none of
// its dependencies are nest-bound. ok is false for dynamic, panicking, or
// oversized (more than maxTabVals values) domains.
func staticLen(d space.DomainExpr, dynamic map[string]bool, env *expr.Env) (n int, ok bool) {
	for _, dep := range space.DomainDeps(d) {
		if dynamic[dep] {
			return 0, false
		}
	}
	m, ok := domainLen(d, env, maxTabVals+1)
	if !ok || m > maxTabVals {
		return 0, false
	}
	return int(m), true
}

// staticVals enumerates a domain that staticLen sizes.
func staticVals(d space.DomainExpr, dynamic map[string]bool, env *expr.Env) (vals []int64, ok bool) {
	n, ok := staticLen(d, dynamic, env)
	if !ok {
		return nil, false
	}
	vals = make([]int64, 0, n)
	d.Iterate(env, func(v int64) bool {
		vals = append(vals, v)
		return true
	})
	return vals, true
}

// tabulate classifies the innermost pruning checks and attaches the
// resulting table set to prog. Called at the end of compile, after the
// chunk layout, so Step.Vec marks reflect the final step expressions.
func tabulate(prog *Program, budget int64) {
	if budget <= 0 {
		budget = DefaultTabulateBudget
	}
	if len(prog.Loops) == 0 {
		return
	}
	depth := len(prog.Loops) - 1
	inner := prog.Loops[depth]
	if inner.Iter.Kind != space.ExprIter {
		return
	}
	dynamic := dynamicNames(prog)
	env := prog.NewEnv()
	runPreludeAssigns(prog, env)
	vals, ok := staticVals(inner.Domain, dynamic, env)
	if !ok || len(vals) == 0 {
		return
	}
	tb := &Tabulation{
		Depth:     depth,
		InnerName: inner.Iter.Name,
		InnerSlot: inner.Slot,
		Vals:      vals,
		ByStats:   make(map[int]int),
		prog:      prog,
	}
	if r, isRange := inner.Domain.(*space.RangeDomain); isRange {
		if start, _, step, sok := r.Span(env); sok {
			tb.ValueIndexed = true
			tb.Base, tb.Step = start, step
		}
	}
	rowWords := (len(vals) + 63) / 64
	rowBytes := int64(rowWords) * 8

	settings := make(map[string]bool, len(prog.Settings))
	for _, s := range prog.Settings {
		settings[s.Name] = true
	}
	iterDepth := make(map[string]int, len(prog.Loops))
	for d, lp := range prog.Loops {
		iterDepth[lp.Iter.Name] = d
	}
	assignOf := make(map[string]*Step)
	for i := range prog.Prelude {
		if st := &prog.Prelude[i]; st.Kind == AssignStep {
			assignOf[st.Name] = st
		}
	}
	for _, lp := range prog.Loops {
		for i := range lp.Steps {
			if st := &lp.Steps[i]; st.Kind == AssignStep {
				assignOf[st.Name] = st
			}
		}
	}

	// coneOf expands a predicate's dependencies through assignment steps
	// to terminal iterators, collecting the loop-level assignments that
	// must replay during row building. ok is false when a dependency is
	// out of scope for tabulation.
	coneOf := func(pred expr.Expr) (iters map[string]bool, support map[string]*Step, ok bool) {
		iters = make(map[string]bool)
		support = make(map[string]*Step)
		visited := make(map[string]bool)
		var walk func(name string) bool
		walk = func(name string) bool {
			if visited[name] {
				return true
			}
			visited[name] = true
			if settings[name] {
				return true
			}
			if _, isIter := iterDepth[name]; isIter {
				iters[name] = true
				return true
			}
			st, found := assignOf[name]
			if !found {
				return false
			}
			if st.Depth >= 0 {
				support[name] = st
			}
			for _, dep := range expr.Deps(st.Expr) {
				if !walk(dep) {
					return false
				}
			}
			return true
		}
		for _, dep := range expr.Deps(pred) {
			if !walk(dep) {
				return nil, nil, false
			}
		}
		return iters, support, true
	}

	// collectSupport splits a cone's assignments into outer (once per
	// row) and inner (once per bit) lists, preserving nest and step
	// order.
	collectSupport := func(support map[string]*Step) (outerSup, innerSup []Step) {
		for _, lp := range prog.Loops {
			for i := range lp.Steps {
				st := &lp.Steps[i]
				if st.Kind != AssignStep || support[st.Name] == nil {
					continue
				}
				if st.Depth == depth {
					innerSup = append(innerSup, *st)
				} else {
					outerSup = append(outerSup, *st)
				}
			}
		}
		return outerSup, innerSup
	}

	type candidate struct {
		t     *Table
		outer string // "" for unary
	}
	var cands []candidate
	for i := range inner.Steps {
		st := &inner.Steps[i]
		if st.Kind != CheckStep || st.Constraint.Deferred() || st.Expr == nil || !st.Vec {
			continue
		}
		iters, support, cok := coneOf(st.Expr)
		if !cok || !iters[inner.Iter.Name] {
			continue
		}
		var outer string
		switch len(iters) {
		case 1:
		case 2:
			for name := range iters {
				if name != inner.Iter.Name {
					outer = name
				}
			}
			// A binary row costs one predicate evaluation per bit to
			// build, so it must be reused to pay off: either middle
			// loops between the outer and the inner replay the row, or
			// an enclosing loop above the outer revisits its value and
			// hits the row cache. A top-level outer directly parenting
			// the inner offers neither — every row serves exactly one
			// inner sweep — so the expression path is strictly cheaper.
			if iterDepth[outer] == 0 && depth == 1 {
				continue
			}
		default:
			continue
		}
		outerSup, innerSup := collectSupport(support)
		t := &Table{
			Name:         st.Name,
			StatsID:      st.StatsID,
			Pred:         st.Expr,
			InnerSupport: innerSup,
			OuterSupport: outerSup,
			RowWords:     rowWords,
		}
		if outer == "" {
			t.Kind = UnaryTable
		} else {
			t.Kind = BinaryTable
			t.OuterName = outer
			slot, _ := prog.Scope.Slot(outer)
			t.OuterSlot = slot
		}
		cands = append(cands, candidate{t: t, outer: outer})
	}
	if len(cands) == 0 {
		return
	}

	// Budget pass one: unary bitsets, charged eagerly in step order.
	var spent int64
	var binary []*Table
	for _, c := range cands {
		if c.t.Kind == BinaryTable {
			binary = append(binary, c.t)
			continue
		}
		if spent+rowBytes > budget {
			continue
		}
		bits := make([]uint64, rowWords)
		built := func() (ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			tb.BuildRow(c.t, 0, tb.NewBuildEnv(), bits)
			return true
		}()
		if !built {
			continue
		}
		c.t.Bits = bits
		spent += rowBytes
		tb.ByStats[c.t.StatsID] = len(tb.Tables)
		tb.Tables = append(tb.Tables, c.t)
	}

	// Budget pass two: the remainder is split evenly across binary
	// candidates as row-cache capacity. A statically enumerable range
	// outer small enough to fit entirely marks the table Full, the form
	// the code generators can emit whole.
	if len(binary) > 0 {
		maxRows := (budget - spent) / (int64(len(binary)) * rowBytes)
		for _, t := range binary {
			rows := maxRows
			od := prog.Loops[iterDepth[t.OuterName]]
			if od.Iter.Kind == space.ExprIter {
				if r, isRange := od.Domain.(*space.RangeDomain); isRange {
					if on, ook := staticLen(r, dynamic, env); ook && on > 0 {
						if start, _, step, sok := r.Span(env); sok {
							t.OuterBase, t.OuterStep = start, step
							t.OuterN = on
							if int64(t.OuterN) <= rows {
								rows = int64(t.OuterN)
								t.Full = true
							}
						}
					}
				}
			}
			if rows < 1 {
				continue
			}
			t.MaxRows = int(rows)
			spent += rows * rowBytes
			tb.ByStats[t.StatsID] = len(tb.Tables)
			tb.Tables = append(tb.Tables, t)
		}
	}
	if len(tb.Tables) == 0 {
		return
	}
	tb.TableBytes = spent
	prog.Tab = tb
}
