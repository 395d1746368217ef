package engine

import (
	"math/bits"

	"repro/internal/plan"
)

// Run-time side of plan-time constraint tabulation (plan/tabulate.go).
// Each engine state owns one tabExec: the immutable plan tables plus the
// state's private binary row caches, so parallel workers never share
// mutable table state. The chunker ANDs a 64-bit window of the
// pass bitset into the survivor mask per mask word; the scalar paths of
// value-indexed tabulations test single bits.

// tabExec is one state's view of the plan's constraint tables.
type tabExec struct {
	tab    *plan.Tabulation
	regs   []int64 // lazily built row-construction register file
	tables []tabRT
}

// tabRT is the mutable run-time half of one table: the memoized row
// cache of a binary table (bounded by plan.Table.MaxRows), the scratch
// row used once the cache is full, and a last-row memo that short-
// circuits the map in the hot paths — loop iteration changes the outer
// value only when its loop advances, so consecutive lookups hit the
// same row almost always.
type tabRT struct {
	rows      map[int64][]uint64
	scratch   []uint64
	lastOuter int64
	lastRow   []uint64
}

func newTabExec(tab *plan.Tabulation) *tabExec {
	return &tabExec{tab: tab, tables: make([]tabRT, len(tab.Tables))}
}

// tabStepIndex maps the steps of the loop at depth d to plan table
// indices: tabIdx[i] is the table of step i, -1 for steps that keep the
// expression path.
func tabStepIndex(prog *plan.Program, d int) []int {
	steps := prog.Loops[d].Steps
	idx := make([]int, len(steps))
	for i := range idx {
		idx[i] = -1
	}
	if tab := prog.Tab; tab != nil && d == tab.Depth {
		for i := range steps {
			if steps[i].Kind != plan.CheckStep {
				continue
			}
			if ti, ok := tab.ByStats[steps[i].StatsID]; ok {
				idx[i] = ti
			}
		}
	}
	return idx
}

// row returns the pass bits of table ti for the given outer value
// (ignored for unary tables). Binary rows are built on first use into a
// bounded memo; once MaxRows rows are cached further misses rebuild into
// a per-table scratch row.
func (tx *tabExec) row(ti int, outer int64, stats *Stats) []uint64 {
	t := tx.tab.Tables[ti]
	if t.Kind == plan.UnaryTable {
		return t.Bits
	}
	rt := &tx.tables[ti]
	if rt.lastRow != nil && rt.lastOuter == outer {
		stats.RowCacheHits++
		return rt.lastRow
	}
	if r, ok := rt.rows[outer]; ok {
		stats.RowCacheHits++
		rt.lastOuter, rt.lastRow = outer, r
		return r
	}
	if tx.regs == nil {
		tx.regs = tx.tab.NewBuildRegs()
	}
	if len(rt.rows) < t.MaxRows {
		if rt.rows == nil {
			rt.rows = make(map[int64][]uint64)
		}
		r := make([]uint64, t.RowWords)
		tx.tab.BuildRow(t, outer, tx.regs, r)
		rt.rows[outer] = r
		rt.lastOuter, rt.lastRow = outer, r
		return r
	}
	if rt.scratch == nil {
		rt.scratch = make([]uint64, t.RowWords)
	}
	tx.tab.BuildRow(t, outer, tx.regs, rt.scratch)
	rt.lastOuter, rt.lastRow = outer, rt.scratch
	return rt.scratch
}

// basePos maps the current chunk's first lane to its table bit position:
// value-indexed tabulations derive it from the lane value (robust under
// bounds narrowing, which keeps ranges on the step grid), position-
// indexed ones from the fill cursor (pushed values so far minus the k
// lanes of this chunk).
func (tx *tabExec) basePos(v0 int64, pushed, k int) int {
	if tx.tab.ValueIndexed {
		return int((v0 - tx.tab.Base) / tx.tab.Step)
	}
	return pushed - k
}

// andMaskRow ANDs the pass-bit window of row starting at bit basePos
// into the first k lanes of mask and returns the newly killed lane
// count. Window bits beyond the row map only to lanes that are already
// dead (every live lane is a real domain position), so out-of-range
// words read as zero harmlessly.
func andMaskRow(mask laneMask, k int, row []uint64, basePos int) int64 {
	var killed int64
	for w := 0; w*64 < k; w++ {
		m := mask[w]
		if m == 0 {
			continue
		}
		pw := tabWindow(row, basePos+w*64)
		killed += int64(bits.OnesCount64(m &^ pw))
		mask[w] = m & pw
	}
	return killed
}

// tabWindow extracts 64 bits of row starting at bit off.
func tabWindow(row []uint64, off int) uint64 {
	wi, sh := off>>6, uint(off&63)
	var w uint64
	if wi >= 0 && wi < len(row) {
		w = row[wi] >> sh
	}
	if sh != 0 && wi+1 >= 0 && wi+1 < len(row) {
		w |= row[wi+1] << (64 - sh)
	}
	return w
}

// scalarKill tests the single pass bit for (inner, outer) in table ti.
// Only valid for value-indexed tabulations (the scalar paths have no
// fill cursor); ok is false when the value falls off the table, in
// which case the caller keeps the expression path.
func (tx *tabExec) scalarKill(ti int, inner, outer int64, stats *Stats) (kill, ok bool) {
	tab := tx.tab
	if !tab.ValueIndexed {
		return false, false
	}
	var pos int
	if tab.Step == 1 {
		// Unit step is the common case; skip the divide and grid check.
		pos = int(inner - tab.Base)
		if pos < 0 || pos >= tab.N() {
			return false, false
		}
	} else {
		pos = int((inner - tab.Base) / tab.Step)
		if pos < 0 || pos >= tab.N() || tab.Base+int64(pos)*tab.Step != inner {
			return false, false
		}
	}
	row := tx.row(ti, outer, stats)
	stats.TabulatedChecks++
	return row[pos>>6]>>(uint(pos&63))&1 == 0, true
}

// predKill evaluates table ti's compiled kill predicate directly over the
// register file (plan slots and registers share numbering) — the cold
// fallback when scalarKill declines a value.
func (tx *tabExec) predKill(ti int, reg []int64) bool {
	return tx.tab.Tables[ti].Kills(reg)
}
