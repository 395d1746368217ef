package plan

// VectorLayout describes how the innermost loop can be evaluated in
// chunks: which environment slots become per-lane arrays (the loop
// variable plus every value assigned at the innermost depth, including
// the optimizer's $t temps) and which stay scalar broadcasts. Engines
// running with a chunk size > 1 materialize the innermost variable in
// fixed-size blocks and evaluate each residual step over the whole block
// with a survivor bitmask; the layout is the contract all three backends
// and both code generators share, so their lane numbering agrees.
type VectorLayout struct {
	// Depth is the innermost loop index (len(Loops)-1).
	Depth int

	// LaneSlots lists the lane-resident slots: the innermost loop
	// variable first, then the target slot of each innermost AssignStep
	// in step order. Every other slot referenced by an innermost step is
	// loop-invariant across the chunk and is broadcast.
	LaneSlots []int

	// LaneOf maps environment slot -> lane index, -1 for slots that are
	// not lane-resident. Indexed by slot; len == Program.NumSlots().
	LaneOf []int
}

// computeVector builds the innermost-chunk layout and marks each
// innermost step that is evaluated over a whole chunk at once (Step.Vec):
// every step but a deferred (host) check, which runs per surviving lane
// inside the chunk. Called at the end of Compile, after bounds
// compilation and the expression optimizer, so CSE temps are included in
// the lane set.
func computeVector(prog *Program) {
	if len(prog.Loops) == 0 {
		return
	}
	depth := len(prog.Loops) - 1
	inner := prog.Loops[depth]
	v := &VectorLayout{
		Depth:  depth,
		LaneOf: make([]int, prog.NumSlots()),
	}
	for i := range v.LaneOf {
		v.LaneOf[i] = -1
	}
	addLane := func(slot int) {
		if v.LaneOf[slot] >= 0 {
			return
		}
		v.LaneOf[slot] = len(v.LaneSlots)
		v.LaneSlots = append(v.LaneSlots, slot)
	}
	addLane(inner.Slot)
	for i := range inner.Steps {
		st := &inner.Steps[i]
		st.Vec = st.Kind == AssignStep || !st.Constraint.Deferred()
		if st.Kind == AssignStep {
			addLane(st.Slot)
		}
	}
	prog.Vector = v
}
