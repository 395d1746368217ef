package plan

import (
	"slices"

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
// against the survivor bitmask; scalar paths index single bits. Tables
// are indexed by value: the inner domain must be a range whose span
// depends only on settings and prelude values, so every value the loop
// binds, narrowed or not, lies on the table's grid. Anything host-deferred,
// multi-outer, over-budget, or over another inner domain (a list, a
// condition, set algebra) keeps the existing expression path. Pass bits
// are defined as the negation of the kill predicate, so kill counts are
// bit-identical to the untabulated run by construction.

// DefaultTabulateBudget bounds the bytes committed to constraint tables
// (unary bitsets plus binary row-cache capacity) when Options leaves
// TabulateBudget zero.
const DefaultTabulateBudget = 8 << 20

// maxTabVals caps the inner (and outer) range sizes: beyond this many
// values a table would dwarf any budget and building its rows would
// dominate plan time.
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

	// Pred is the bound kill predicate the table was built from.
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

	// kill, inner and outer are Pred, InnerSupport and OuterSupport
	// compiled to int64 closures (expr.CompileInt). Rows are built from
	// them.
	kill         expr.IntFn
	inner, outer []intAssign
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

	// Base, Step and N describe the inner range: the value at bit
	// position i is Base + i*Step, and N, the bits-per-row count, is the
	// number of values. Bounds narrowing keeps a range on its step grid,
	// so every value the loop binds has a position.
	Base, Step int64
	N          int

	// Tables lists the tabulated checks in innermost step order.
	Tables []*Table

	// ByStats maps a constraint's StatsID to its Tables index.
	ByStats map[int]int

	// TableBytes is the committed budget: unary bitset bytes plus
	// binary row-cache capacity.
	TableBytes int64

	regs []int64 // register image of the settings and the prelude
}

// TabPricing is tabulation's record of its budget: the candidates the
// budget left on the expression path and the bytes the whole candidate
// set needs.
type TabPricing struct {
	// PricedOut names the candidates the budget left on the expression
	// path: unary ones, then binary ones, each in innermost step order.
	PricedOut []string

	// NeedBytes is what the candidate set commits with every table
	// whole: every unary bitset and every binary table over a static outer
	// range. RowCached counts the binary candidates it leaves out: their
	// outer domain follows another loop, so they only ever get a row
	// cache, whose size is the budget's choice.
	NeedBytes int64
	RowCached int
}

// NewBuildRegs returns a fresh int64 register file for row building:
// settings prefilled and prelude assignments applied. Each call returns an
// independent register file, so concurrent workers can build rows without
// sharing mutable state.
func (tb *Tabulation) NewBuildRegs() []int64 { return slices.Clone(tb.regs) }

// BuildRow fills dst with the pass bits of t for the given outer value
// (ignored for unary tables): bit i is 1 when the kill predicate is
// falsy at inner value Base + i*Step. r must come from NewBuildRegs and
// is clobbered.
func (tb *Tabulation) BuildRow(t *Table, outer int64, r []int64, dst []uint64) {
	clear(dst)
	if t.Kind == BinaryTable {
		r[t.OuterSlot] = outer
		runIntAssigns(t.outer, r)
	}
	for i := range tb.N {
		r[tb.InnerSlot] = tb.Base + int64(i)*tb.Step
		runIntAssigns(t.inner, r)
		if t.kill(r) == 0 {
			dst[i>>6] |= 1 << uint(i&63)
		}
	}
}

// FullRows materializes every row of a Full binary table in outer value
// order — the code generators' emission path.
func (tb *Tabulation) FullRows(t *Table) [][]uint64 {
	r := tb.NewBuildRegs()
	rows := make([][]uint64, t.OuterN)
	for i := range rows {
		rows[i] = make([]uint64, t.RowWords)
		tb.BuildRow(t, t.OuterBase+int64(i)*t.OuterStep, r, rows[i])
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

// staticRange sizes a range domain against the prelude environment when
// none of its dependencies are nest-bound: its first value, step and
// value count. ok is false for any other domain and for dynamic, empty or
// oversized (more than maxTabVals values) ranges.
func staticRange(d space.DomainExpr, dynamic map[string]bool, env *expr.Env) (base, step int64, n int, ok bool) {
	r, isRange := d.(*space.RangeDomain)
	if !isRange {
		return 0, 0, 0, false
	}
	for _, dep := range space.DomainDeps(r) {
		if dynamic[dep] {
			return 0, 0, 0, false
		}
	}
	m := envDomainLen(r, env, maxTabVals+1)
	base, _, step, ok = r.Span(env)
	if !ok || m == 0 || m > maxTabVals {
		return 0, 0, 0, false
	}
	return base, step, int(m), true
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
	dynamic := dynamicNames(prog)
	env := prog.NewEnv()
	runPreludeAssigns(prog, env)
	base, step, n, ok := staticRange(inner.Domain, dynamic, env)
	if !ok {
		return
	}
	ic := newIntCompiler(env)
	tb := &Tabulation{
		Depth:     depth,
		InnerName: inner.Iter.Name,
		InnerSlot: inner.Slot,
		Base:      base,
		Step:      step,
		N:         n,
		ByStats:   make(map[int]int),
		regs:      ic.regs,
	}
	rowWords := (n + 63) / 64
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

	var unary, binary []*Table
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
			kill:         compileInt(st.Expr),
			inner:        ic.compileAssigns(innerSup),
			outer:        ic.compileAssigns(outerSup),
		}
		if outer == "" {
			t.Kind = UnaryTable
			unary = append(unary, t)
			continue
		}
		t.Kind = BinaryTable
		t.OuterName = outer
		t.OuterSlot, _ = prog.Scope.Slot(outer)
		// A statically enumerable range outer is recorded whole: a
		// budget that fits all of its rows makes the table Full.
		t.OuterBase, t.OuterStep, t.OuterN, _ = staticRange(prog.Loops[iterDepth[outer]].Domain, dynamic, env)
		binary = append(binary, t)
	}
	if len(unary)+len(binary) == 0 {
		return
	}
	pricing := &TabPricing{}
	prog.TabPricing = pricing

	// Budget pass one: unary bitsets, charged eagerly in step order.
	var spent int64
	for _, t := range unary {
		if spent+rowBytes > budget {
			pricing.PricedOut = append(pricing.PricedOut, t.Name)
			continue
		}
		bits := make([]uint64, rowWords)
		tb.BuildRow(t, 0, tb.NewBuildRegs(), bits)
		t.Bits = bits
		spent += rowBytes
		tb.ByStats[t.StatsID] = len(tb.Tables)
		tb.Tables = append(tb.Tables, t)
	}
	pricing.NeedBytes = int64(len(unary)) * rowBytes

	// Budget pass two: the remainder is split evenly across binary
	// candidates as row-cache capacity. A table whose static outer range
	// fits its share whole is Full, the form the code generators can emit
	// whole.
	if len(binary) > 0 {
		rows := func(t *Table, share int64) int64 {
			if t.OuterN > 0 && int64(t.OuterN) <= share {
				return int64(t.OuterN)
			}
			return share
		}
		share := (budget - spent) / (int64(len(binary)) * rowBytes)
		for _, t := range binary {
			if t.OuterN > 0 {
				pricing.NeedBytes += int64(t.OuterN) * rowBytes
			} else {
				pricing.RowCached++
			}
			n := rows(t, share)
			if n < 1 {
				pricing.PricedOut = append(pricing.PricedOut, t.Name)
				continue
			}
			t.Full = t.OuterN > 0 && int64(t.OuterN) <= share
			t.MaxRows = int(n)
			spent += n * rowBytes
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
