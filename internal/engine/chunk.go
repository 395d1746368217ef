package engine

import (
	"fmt"
	"math/bits"

	"repro/internal/expr"
	"repro/internal/plan"
)

// maxChunk bounds Options.ChunkSize; larger requests are clamped. The
// generators cap at 64 (one mask word); the engines allow wider blocks
// for the chunk-size sweep benchmarks.
const maxChunk = 1024

// normChunk normalizes a requested chunk size: 0 and 1 mean scalar
// (returns 1), anything above maxChunk is clamped.
func normChunk(n int) int {
	if n <= 1 {
		return 1
	}
	if n > maxChunk {
		return maxChunk
	}
	return n
}

// laneMask is the survivor bitmask of one innermost chunk: bit i live
// means lane i has not been killed by a residual check yet.
type laneMask []uint64

// setFirst marks lanes [0, k) live and every other lane dead.
func (m laneMask) setFirst(k int) {
	for w := range m {
		switch {
		case k >= 64:
			m[w] = ^uint64(0)
			k -= 64
		case k > 0:
			m[w] = (uint64(1) << uint(k)) - 1
			k = 0
		default:
			m[w] = 0
		}
	}
}

// laneEval is a backend's half of chunked execution: how it evaluates
// expressions over lanes and where it keeps bindings. Everything else
// about a chunk belongs to the chunker.
type laneEval interface {
	// evalStep evaluates innermost step i, an assignment or an
	// expression check, over lanes [0, k) and returns the k results:
	// the assigned values, or nonzero where the check rejects.
	evalStep(i, k int) []int64
	// bindLane makes lane j's values the current bindings, for a host
	// check to read.
	bindLane(j int)
	// tabOuter returns the current value of binary table t's outer
	// variable.
	tabOuter(t *plan.Table) int64
}

// chunkStep is the chunker's view of one innermost step.
type chunkStep struct {
	check    bool
	lane     int         // assign target lane
	statsID  int         // check's constraint counters
	tab      int         // check's plan table index, -1 for the expression path
	host     func() bool // deferred check over the bound lane, set by the backend
	temp     bool
	level    int // Stats temp-counter index (step depth + 1)
	tempRefs int64
}

// chunker runs the innermost loop in blocks of lanes for every backend,
// one instance per run state or tile worker. It owns the lane arrays,
// the survivor mask and its rewind trace, the counters, the
// tabulated-window AND, host checks and survivor emission; the backend
// supplies only ev. Counters are bit-identical to scalar stepping: each
// step is credited once per lane still live when it runs.
type chunker struct {
	ev   laneEval
	out  *sink // the state's survivor path, counters and run control
	tabx *tabExec

	depth    int
	size     int
	steps    []chunkStep
	lane     [][]int64 // per lane-resident slot, plan.VectorLayout order; lane[0] is the fill buffer
	n        int       // fill cursor
	pushed   int       // values pushed since loop entry (position-indexed tables)
	mask     laneMask
	trace    []uint64         // the mask before each step, then before emission
	innerPos int              // tuple position of the innermost loop variable
	yield    func(int64) bool // push, bound once so domain walks do not allocate
}

// newChunker returns the chunker of prog's innermost loop, or nil when
// opts asks for scalar stepping or the program has no loops.
// The backend sets ev, and host on deferred checks, before the first
// push.
func newChunker(prog *plan.Program, opts Options, out *sink, tabx *tabExec) *chunker {
	v := prog.Vector
	size := normChunk(opts.ChunkSize)
	if size == 1 || v == nil {
		return nil
	}
	c := &chunker{
		out:   out,
		tabx:  tabx,
		depth: v.Depth,
		size:  size,
		lane:  make([][]int64, len(v.LaneSlots)),
		mask:  make(laneMask, (size+63)/64),
	}
	lanes := make([]int64, size*len(c.lane))
	for i := range c.lane {
		c.lane[i] = lanes[i*size : (i+1)*size : (i+1)*size]
	}
	steps := prog.Loops[v.Depth].Steps
	tabIdx := tabStepIndex(prog, v.Depth)
	c.steps = make([]chunkStep, len(steps))
	for i := range steps {
		st := &steps[i]
		c.steps[i] = chunkStep{
			check: st.Kind == plan.CheckStep, statsID: st.StatsID, tab: tabIdx[i],
			temp: st.Temp, level: st.Depth + 1, tempRefs: int64(st.TempRefs),
		}
		if st.Kind == plan.AssignStep {
			c.steps[i].lane = v.LaneOf[st.Slot]
		}
	}
	c.trace = make([]uint64, 0, len(c.mask)*(len(steps)+1))
	inner := prog.Loops[v.Depth].Iter
	for i, it := range prog.Source.Iterators() {
		if it == inner {
			c.innerPos = i
		}
	}
	c.yield = c.push
	return c
}

// begin starts one entry of the innermost loop.
func (c *chunker) begin() { c.n, c.pushed = 0, 0 }

// push appends one innermost value, flushing a full block. It returns
// false when enumeration must stop.
func (c *chunker) push(v int64) bool {
	c.lane[0][c.n] = v
	c.n++
	c.pushed++
	if c.n == c.size {
		return c.flush()
	}
	return true
}

// pushRange pushes the range start, start+step, ... short of stop.
func (c *chunker) pushRange(start, stop, step int64) bool {
	if step > 0 {
		for v := start; v < stop; v += step {
			if !c.push(v) {
				return false
			}
		}
	} else if step < 0 {
		for v := start; v > stop; v += step {
			if !c.push(v) {
				return false
			}
		}
	}
	return true
}

// flush evaluates the buffered lanes through every innermost step under
// the survivor mask, then emits the survivors in lane order. It returns
// false when enumeration must stop.
func (c *chunker) flush() bool {
	k := c.n
	c.n = 0
	if k == 0 {
		return true
	}
	if c.out.ctl.cancelled() {
		return false
	}
	st := c.out.stats
	st.LoopVisits[c.depth] += int64(k)
	st.ChunksEvaluated++
	c.mask.setFirst(k)
	c.trace = c.trace[:0]
	live := int64(k)
	for i := range c.steps {
		s := &c.steps[i]
		c.trace = append(c.trace, c.mask...)
		st.TempHits[s.level] += s.tempRefs * live
		if !s.check {
			copy(c.lane[s.lane][:k], c.ev.evalStep(i, k))
			if s.temp {
				st.TempEvals[s.level] += live
			}
			continue
		}
		st.Checks[s.statsID] += live
		var kills int64
		switch {
		case s.tab >= 0:
			st.TabulatedChecks += live
			kills = c.tabCheck(s.tab, k)
		case s.host != nil:
			kills = c.hostCheck(s.host)
		default:
			kills = c.killNonzero(c.ev.evalStep(i, k))
		}
		if kills > 0 {
			st.Kills[s.statsID] += kills
			st.LanesMasked += kills
			live -= kills
			if live == 0 {
				return true
			}
		}
	}
	c.trace = append(c.trace, c.mask...)
	if c.out.onTuple != nil {
		c.out.fill()
	}
	for w, word := range c.mask {
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			c.out.tuple[c.innerPos] = c.lane[0][j]
			if !c.out.deliver() {
				c.rewind(k, j)
				return false
			}
		}
	}
	return true
}

// killNonzero clears the live lanes whose result is nonzero and returns
// how many it cleared.
func (c *chunker) killNonzero(res []int64) int64 {
	var n int
	for w, word := range c.mask {
		var dead uint64
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &= word - 1
			if res[w<<6|i] != 0 {
				dead |= 1 << uint(i)
			}
		}
		c.mask[w] &^= dead
		n += bits.OnesCount64(dead)
	}
	return int64(n)
}

// hostCheck runs a deferred check on each live lane in turn.
func (c *chunker) hostCheck(host func() bool) int64 {
	var n int64
	for w, word := range c.mask {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &= word - 1
			c.ev.bindLane(w<<6 | i)
			if host() {
				c.mask[w] &^= 1 << uint(i)
				n++
			}
		}
	}
	return n
}

// tabCheck ANDs table ti's pass bits for this block into the mask.
func (c *chunker) tabCheck(ti, k int) int64 {
	tx := c.tabx
	var outer int64
	if t := tx.tab.Tables[ti]; t.Kind == plan.BinaryTable {
		outer = c.ev.tabOuter(t)
	}
	row := tx.row(ti, outer, c.out.stats)
	return andMaskRow(c.mask, k, row, tx.basePos(c.lane[0][0], c.pushed, k))
}

// rewind subtracts the counter contributions of the lanes past stopLane
// after a stop inside the block: the iterations a scalar run stopping at
// the same survivor would never have reached. The trace holds the mask
// before each step plus the one before emission, so a check's kills are
// the bits its snapshot has and the next one lacks. After the rewind a
// Stopped run's Stats match the scalar run's, except for the
// schedule-dependent ChunksEvaluated/LanesMasked pair.
func (c *chunker) rewind(k, stopLane int) {
	st := c.out.stats
	st.LoopVisits[c.depth] -= int64(k - stopLane - 1)
	w := len(c.mask)
	for i := range c.steps {
		s := &c.steps[i]
		before := c.trace[i*w : (i+1)*w]
		live := liveAbove(before, stopLane)
		st.TempHits[s.level] -= s.tempRefs * live
		if !s.check {
			if s.temp {
				st.TempEvals[s.level] -= live
			}
			continue
		}
		st.Checks[s.statsID] -= live
		if killed := killedAbove(before, c.trace[(i+1)*w:(i+2)*w], stopLane); killed > 0 {
			st.Kills[s.statsID] -= killed
			st.LanesMasked -= killed
		}
	}
}

// liveAbove counts live lanes strictly above lane in mask words w.
func liveAbove(w []uint64, lane int) int64 {
	start := lane + 1
	first := start >> 6
	var n int
	for i := first; i < len(w); i++ {
		word := w[i]
		if i == first {
			word &= ^uint64(0) << uint(start&63)
		}
		n += bits.OnesCount64(word)
	}
	return int64(n)
}

// killedAbove counts lanes strictly above lane that are live in before but
// dead in after.
func killedAbove(before, after []uint64, lane int) int64 {
	start := lane + 1
	first := start >> 6
	var n int
	for i := first; i < len(before); i++ {
		word := before[i] &^ after[i]
		if i == first {
			word &= ^uint64(0) << uint(start&63)
		}
		n += bits.OnesCount64(word)
	}
	return int64(n)
}

// regLanes is the binding half of laneEval for the backends with a
// register file (compiled and VM).
type regLanes struct {
	reg   []int64
	slots []int // lane-resident slots, plan.VectorLayout order
	lane  [][]int64
}

// newRegLanes returns the binding half for a register backend and sets
// ch's host checks to run over reg.
func newRegLanes(prog *plan.Program, ch *chunker, reg []int64, settings map[int]expr.Value) regLanes {
	v := prog.Vector
	steps := prog.Loops[v.Depth].Steps
	for i := range steps {
		if st := &steps[i]; st.Kind == plan.CheckStep && st.Constraint.Deferred() {
			fn := deferredCheck(st, settings)
			ch.steps[i].host = func() bool { return fn(reg) }
		}
	}
	return regLanes{reg: reg, slots: v.LaneSlots, lane: ch.lane}
}

func (r *regLanes) bindLane(j int) {
	for li, slot := range r.slots {
		r.reg[slot] = r.lane[li][j]
	}
}

func (r *regLanes) tabOuter(t *plan.Table) int64 { return r.reg[t.OuterSlot] }

// Lane kernels: the lane-wise arithmetic of every backend's evaluator.
// Expression arithmetic is total (floor division by zero yields zero,
// table lookups have defaults), so short-circuit operators become
// selects and dead lanes evaluate harmlessly. out may alias an operand:
// each kernel reads lane i before writing it.

// vecBinary sets out[i] = l[i] op r[i]; And and Or return an operand, as
// the scalar forms do.
func vecBinary(op expr.Op, out, l, r []int64) {
	l, r = l[:len(out)], r[:len(out)]
	switch op {
	case expr.OpAdd:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case expr.OpSub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case expr.OpMul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	case expr.OpDiv:
		for i := range out {
			out[i] = expr.FloorDiv(l[i], r[i])
		}
	case expr.OpMod:
		for i := range out {
			out[i] = expr.FloorMod(l[i], r[i])
		}
	case expr.OpEq:
		for i := range out {
			out[i] = b2i(l[i] == r[i])
		}
	case expr.OpNe:
		for i := range out {
			out[i] = b2i(l[i] != r[i])
		}
	case expr.OpLt:
		for i := range out {
			out[i] = b2i(l[i] < r[i])
		}
	case expr.OpLe:
		for i := range out {
			out[i] = b2i(l[i] <= r[i])
		}
	case expr.OpGt:
		for i := range out {
			out[i] = b2i(l[i] > r[i])
		}
	case expr.OpGe:
		for i := range out {
			out[i] = b2i(l[i] >= r[i])
		}
	case expr.OpAnd:
		for i := range out {
			if l[i] == 0 {
				out[i] = 0
			} else {
				out[i] = r[i]
			}
		}
	case expr.OpOr:
		for i := range out {
			if l[i] != 0 {
				out[i] = l[i]
			} else {
				out[i] = r[i]
			}
		}
	default:
		panic(fmt.Sprintf("engine: bad binary op %v", op))
	}
}

// vecUnary sets out[i] = op x[i] for OpNeg and OpNot.
func vecUnary(op expr.Op, out, x []int64) {
	x = x[:len(out)]
	if op == expr.OpNot {
		for i := range out {
			out[i] = b2i(x[i] == 0)
		}
		return
	}
	for i := range out {
		out[i] = -x[i]
	}
}

// vecBuiltin folds argument x into out for min and max (out already
// holds the first argument) and sets out = |x| for abs.
func vecBuiltin(fn string, out, x []int64) {
	x = x[:len(out)]
	switch fn {
	case "min":
		for i := range out {
			out[i] = min(out[i], x[i])
		}
	case "max":
		for i := range out {
			out[i] = max(out[i], x[i])
		}
	case "abs":
		for i := range out {
			if x[i] < 0 {
				out[i] = -x[i]
			} else {
				out[i] = x[i]
			}
		}
	default:
		panic(fmt.Sprintf("engine: unknown builtin %q", fn))
	}
}

// vecSelect sets out[i] = c[i] != 0 ? t[i] : e[i].
func vecSelect(out, c, t, e []int64) {
	c, t, e = c[:len(out)], t[:len(out)], e[:len(out)]
	for i := range out {
		if c[i] != 0 {
			out[i] = t[i]
		} else {
			out[i] = e[i]
		}
	}
}

// vecTable sets out[i] = data[rows[i]][cols[i]], def when off the table.
func vecTable(out, rows, cols []int64, data [][]int64, def int64) {
	rows, cols = rows[:len(out)], cols[:len(out)]
	for i := range out {
		v := def
		if ri := rows[i]; ri >= 0 && ri < int64(len(data)) {
			if ci, rw := cols[i], data[ri]; ci >= 0 && ci < int64(len(rw)) {
				v = rw[ci]
			}
		}
		out[i] = v
	}
}

// broadcast fills out with v.
func broadcast(out []int64, v int64) []int64 {
	for i := range out {
		out[i] = v
	}
	return out
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
