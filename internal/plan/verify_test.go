package plan

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/speclang"
)

const verifySpec = `setting cap = 60
i = range(1, 20)
j = range(1, i + 5)
k = [1, 2, 4, 8]
let prod = i * j * k
constraint hard over: prod > cap
constraint hard ragged: i % 7 == 3
constraint soft odd: (i + j) % 2 != 0
`

func compileVerifySpec(t *testing.T, opts Options) *Program {
	t.Helper()
	s, err := speclang.Parse(verifySpec)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Compile(s, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// TestVerifyAcceptsCompiledPlans runs the checker over the option grid:
// every combination the ablation flags can produce must verify clean.
func TestVerifyAcceptsCompiledPlans(t *testing.T) {
	grid := []Options{
		{},
		{DisableCSE: true},
		{DisableNarrowing: true},
		{DisableReorder: true},
		{DisableTabulation: true},
		{DisableHoisting: true, DisableCSE: true},
		{DisableNarrowing: true, DisableTabulation: true},
		{TabulateBudget: 64},
		{Order: []string{"k", "i", "j"}},
	}
	for _, opts := range grid {
		prog := compileVerifySpec(t, opts)
		if err := prog.Verify(); err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

// TestVerifyViaOptions checks the Options.Verify wiring: a clean compile
// succeeds with it on.
func TestVerifyViaOptions(t *testing.T) {
	compileVerifySpec(t, Options{Verify: true})
}

func wantVerifyError(t *testing.T, prog *Program, fragment string) {
	t.Helper()
	err := prog.Verify()
	if err == nil {
		t.Fatalf("corrupted plan verified clean (want error containing %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not mention %q", err, fragment)
	}
}

func TestVerifyCatchesLoopOrderViolation(t *testing.T) {
	// j's domain depends on i; swapping the loops breaks both the DAG
	// order and def-before-use of the domain expression.
	prog := compileVerifySpec(t, Options{DisableReorder: true})
	var ii, jj = -1, -1
	for d, lp := range prog.Loops {
		switch lp.Iter.Name {
		case "i":
			ii = d
		case "j":
			jj = d
		}
	}
	if ii < 0 || jj < 0 {
		t.Fatal("loops i and j not found")
	}
	prog.Loops[ii], prog.Loops[jj] = prog.Loops[jj], prog.Loops[ii]
	wantVerifyError(t, prog, "opens before its dependency")
}

func TestVerifyCatchesUndefinedSlotRead(t *testing.T) {
	prog := compileVerifySpec(t, Options{})
	for _, lp := range prog.Loops {
		for i := range lp.Steps {
			if lp.Steps[i].Kind == CheckStep && lp.Steps[i].Expr != nil {
				lp.Steps[i].Expr = &expr.Binary{Op: expr.OpGt,
					L: &expr.Ref{Name: "ghost", Slot: prog.NumSlots() + 3}, R: expr.IntLit(0)}
				wantVerifyError(t, prog, "out of range")
				return
			}
		}
	}
	t.Fatal("no expression check step to corrupt")
}

func TestVerifyCatchesDepthMismatch(t *testing.T) {
	prog := compileVerifySpec(t, Options{})
	for _, lp := range prog.Loops {
		if len(lp.Steps) > 0 {
			lp.Steps[0].Depth++
			wantVerifyError(t, prog, "does not match location")
			return
		}
	}
	t.Fatal("no step to corrupt")
}

func TestVerifyCatchesStatsMismatch(t *testing.T) {
	prog := compileVerifySpec(t, Options{DisableNarrowing: true, DisableTabulation: true})
	for _, lp := range prog.Loops {
		for i := range lp.Steps {
			if lp.Steps[i].Kind == CheckStep {
				lp.Steps[i].StatsID = (lp.Steps[i].StatsID + 1) % len(prog.Constraints)
				wantVerifyError(t, prog, "does not match Constraints")
				return
			}
		}
	}
	t.Fatal("no check step to corrupt")
}

func TestVerifyCatchesVectorCorruption(t *testing.T) {
	prog := compileVerifySpec(t, Options{})
	if prog.Vector == nil || len(prog.Vector.LaneSlots) == 0 {
		t.Fatal("expected a vector layout")
	}
	prog.Vector.LaneOf[prog.Vector.LaneSlots[0]] = -1
	wantVerifyError(t, prog, "vector")
}

func TestVerifyCatchesTableCorruption(t *testing.T) {
	// A unary predicate on the innermost loop variable tabulates into a
	// bitset whose word count must match the domain window.
	s, err := speclang.Parse(`i = range(1, 20)
j = range(1, 1000)
constraint hard jr: j % 3 == 1
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(s, Options{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Tab == nil || len(prog.Tab.Tables) == 0 {
		t.Fatal("expected a tabulated constraint")
	}
	if err := prog.Verify(); err != nil {
		t.Fatalf("clean plan: %v", err)
	}
	prog.Tab.Tables[0].RowWords += 2
	wantVerifyError(t, prog, "RowWords")
}

func TestVerifyCatchesTempCorruption(t *testing.T) {
	// Two constraints share the i*j subexpression, so CSE introduces a
	// $t temp with a registered depth.
	s, err := speclang.Parse(`i = range(1, 50)
j = range(1, 50)
constraint hard a: i * j + i > 100
constraint hard b: i * j + j > 120
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(s, Options{DisableNarrowing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Temps) == 0 {
		t.Fatal("expected optimizer temps")
	}
	if err := prog.Verify(); err != nil {
		t.Fatalf("clean plan: %v", err)
	}
	prog.Temps[0].Depth += 7
	wantVerifyError(t, prog, "temp")
}

// TestVerifyCatchesDeadAssignment: an assignment step nothing reads is an
// error; the planner drops every such step before the optimizer runs.
func TestVerifyCatchesDeadAssignment(t *testing.T) {
	prog := compileVerifySpec(t, Options{})
	lp := prog.Loops[0]
	slot := prog.Scope.Declare("unread")
	lp.Steps = append(lp.Steps, Step{Kind: AssignStep, Name: "unread", Slot: slot,
		Expr: expr.Add(&expr.Ref{Name: lp.Iter.Name, Slot: lp.Slot}, expr.IntLit(1)), StatsID: -1})
	wantVerifyError(t, prog, "dead assignment")
}

// TestVerifyCatchesPinOnLoopVariable: a pin evaluates at loop entry, so
// it must not read the variable of the loop it narrows.
func TestVerifyCatchesPinOnLoopVariable(t *testing.T) {
	s, err := speclang.Parse(`i = range(1, 20)
j = range(1, 20)
constraint hard eq: i * j != 12
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(s, Options{DisableReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	lp := prog.Loops[1]
	if lp.Bounds == nil || len(lp.Bounds.Groups[0].Pins) == 0 {
		t.Fatalf("expected a pin on j:\n%s", prog.Describe())
	}
	if err := prog.Verify(); err != nil {
		t.Fatalf("clean plan: %v", err)
	}
	lp.Bounds.Groups[0].Pins[0].Num = &expr.Ref{Name: lp.Iter.Name, Slot: lp.Slot}
	wantVerifyError(t, prog, "pin references the loop variable")
}
