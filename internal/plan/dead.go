// Dead-assignment removal. Bounds compilation takes the checks it absorbs
// out of the loop bodies but leaves the assignments that fed them; when a
// narrowing bound or probe inlined those values (boundsCtx.substSlots), no
// step reads them any more. GEMM's shmem_per_block, max_blocks_by_shmem
// and max_threads_by_shmem are such steps: only the low_occupancy_shmem
// probe needs their values, and it recomputes them.
package plan

import (
	"slices"

	"repro/internal/expr"
)

// slotSet is a bitset over environment slots; slots outside it read as
// absent and are never added.
type slotSet []uint64

func newSlotSet(n int) slotSet { return make(slotSet, (n+63)/64) }

func (s slotSet) has(slot int) bool {
	return slot >= 0 && slot/64 < len(s) && s[slot/64]&(1<<(slot%64)) != 0
}

func (s slotSet) add(slot int) {
	if slot >= 0 && slot/64 < len(s) {
		s[slot/64] |= 1 << (slot % 64)
	}
}

// sweepDead walks prog once in reverse execution order — the innermost
// body's last step first, each loop's entry (domain, host argument
// slots, bounds, pins and probes) after its body, the prelude last —
// keeping the set of slots that something later reads. Prefilled
// setting slots start in the set, and a step for which skip (if non-nil)
// reports true reads nothing. Every assignment step whose slot is not in
// the set when the walk reaches it is dead: dead(depth, i) is called for
// it, with i descending within a depth, and its own reads are not added,
// so a chain of assignments that only feed dead steps is found in the
// same pass.
func sweepDead(prog *Program, skip func(*Step) bool, dead func(depth, i int)) {
	live := newSlotSet(prog.NumSlots())
	for _, s := range prog.Settings {
		live.add(s.Slot)
	}
	readExpr := func(e expr.Expr) { eachRefSlot(e, live.add) }
	body := func(depth int, steps []Step) {
		for i := len(steps) - 1; i >= 0; i-- {
			st := &steps[i]
			if st.Kind == AssignStep && !live.has(st.Slot) {
				dead(depth, i)
				continue
			}
			if skip != nil && skip(st) {
				continue
			}
			if st.Expr != nil {
				readExpr(st.Expr)
			}
			for _, a := range st.ArgSlots {
				live.add(a)
			}
		}
	}
	for d := len(prog.Loops) - 1; d >= 0; d-- {
		lp := prog.Loops[d]
		body(d, lp.Steps)
		if lp.Domain != nil {
			eachDomainExpr(lp.Domain, readExpr)
		}
		for _, a := range lp.ArgSlots {
			live.add(a)
		}
		lp.Bounds.EachExpr(readExpr)
	}
	body(-1, prog.Prelude)
}

// dropDeadAssigns removes the assignment steps sweepDead finds dead. It
// runs before the optimizer makes any temp (runPasses, optimizer.run), so
// every step it removes comes from the space.
func dropDeadAssigns(prog *Program) {
	sweepDead(prog, nil, func(depth, i int) {
		steps := &prog.Prelude
		if depth >= 0 {
			steps = &prog.Loops[depth].Steps
		}
		*steps = slices.Delete(*steps, i, i+1)
	})
}

// UnreadAssigns returns the names of the assignment steps nothing reads
// once the check steps for which skip reports true read nothing: the
// values a code generator that replaces those checks with precomputed
// tables need not compute.
func (p *Program) UnreadAssigns(skip func(*Step) bool) map[string]bool {
	out := make(map[string]bool)
	sweepDead(p, skip, func(depth, i int) {
		steps := p.Prelude
		if depth >= 0 {
			steps = p.Loops[depth].Steps
		}
		out[steps[i].Name] = true
	})
	return out
}
