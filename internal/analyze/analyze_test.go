package analyze

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/space"
	"repro/internal/speclang"
)

// lintSpec parses src and runs the analyzer with default options.
func lintSpec(t testing.TB, src string) *Report {
	t.Helper()
	s, err := speclang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := Analyze(s, Options{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

// wantDiag pins one expected finding: code, entity name, and exact source
// span (line:col of the declaring token).
type wantDiag struct {
	code      string
	name      string
	line, col int
}

func checkDiags(t *testing.T, rep *Report, want []wantDiag) {
	t.Helper()
	if len(rep.Diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(rep.Diags), len(want), rep.Render("spec"))
	}
	for i, w := range want {
		d := rep.Diags[i]
		if d.Code != w.code || d.Name != w.name || d.Span.Line != w.line || d.Span.Col != w.col {
			t.Errorf("diag %d: got %s %s @%d:%d, want %s %s @%d:%d (message: %s)",
				i, d.Code, d.Name, d.Span.Line, d.Span.Col, w.code, w.name, w.line, w.col, d.Message)
		}
	}
}

func TestContradictorySpec(t *testing.T) {
	// The two constraints individually admit values but jointly empty the
	// i loop: feasible needs i >= 6 (from need_big) and i < 3 (from
	// need_small). Interval propagation over the compiled bound groups
	// proves it at plan time.
	rep := lintSpec(t, `i = range(1, 10)
constraint hard need_big:   i < 6
constraint hard need_small: i >= 3
`)
	checkDiags(t, rep, []wantDiag{
		{"E001", "need_big", 3, 17},
	})
	if rep.Errors() != 1 || !rep.Fails(false) {
		t.Fatalf("contradictory spec must fail lint: %s", rep.Render("spec"))
	}
}

// TestUnfoldedStringSpec: a string that does not fold away cannot be
// planned, so the analyzer reports it as the one E003 error at the
// declaration that holds it instead of failing.
func TestUnfoldedStringSpec(t *testing.T) {
	for src, want := range map[string]wantDiag{
		"x = range(0, 4)\ny = [\"p\", \"q\"]\nconstraint hard c: y == \"p\" and x > 1\n":        {"E003", "y", 2, 1},
		"setting mode = \"abc\"\nx = range(0, 4)\nlet y = mode + 1\nconstraint hard c: x > y\n": {"E003", "y", 3, 5},
		"setting mode = \"abc\"\nx = range(0, 4)\nconstraint hard c: mode < x\n":                {"E003", "c", 3, 17},
	} {
		rep := lintSpec(t, src)
		checkDiags(t, rep, []wantDiag{want})
		if !rep.Fails(false) {
			t.Errorf("E003 does not fail the lint:\n%s", rep.Render("spec"))
		}
	}
}

func TestTautologicalSpec(t *testing.T) {
	// The predicate can never be true over i in [1,9]: a dead constraint.
	rep := lintSpec(t, `i = range(1, 10)
constraint hard dead: i > 100
constraint hard live: i > 5
`)
	checkDiags(t, rep, []wantDiag{
		{"W101", "dead", 2, 17},
	})
	if rep.Fails(false) {
		t.Fatalf("warnings alone must not fail lint: %s", rep.Render("spec"))
	}
	if !rep.Fails(true) {
		t.Fatal("-Werror must promote W101 to a failure")
	}
}

func TestAlwaysRejectingConstraint(t *testing.T) {
	rep := lintSpec(t, `i = range(1, 10)
constraint hard wall: i < 100
`)
	checkDiags(t, rep, []wantDiag{
		{"E001", "wall", 2, 17},
	})
}

func TestUnusedIteratorSpec(t *testing.T) {
	rep := lintSpec(t, `i = range(1, 10)
j = range(1, 10)
constraint hard cap: i > 5
`)
	checkDiags(t, rep, []wantDiag{
		{"W104", "j", 2, 1},
	})
	d := rep.Diags[0]
	if !strings.Contains(d.Message, "~9") {
		t.Fatalf("W104 should estimate the multiplier: %s", d.Message)
	}
}

func TestEmptyDomain(t *testing.T) {
	rep := lintSpec(t, `i = range(10, 5)
constraint hard cap: i > 5
`)
	// The empty domain is the root cause; the constraint over it is
	// vacuously dead, which the predicate pass also reports.
	if rep.Errors() == 0 {
		t.Fatalf("want E002: %s", rep.Render("spec"))
	}
	d := rep.Diags[0]
	if d.Code != "E002" || d.Name != "i" || d.Span.Line != 1 || d.Span.Col != 1 {
		t.Fatalf("want E002 on i @1:1, got %s %s @%d:%d", d.Code, d.Name, d.Span.Line, d.Span.Col)
	}
}

func TestDuplicateAndSubsumed(t *testing.T) {
	rep := lintSpec(t, `i = range(1, 10)
j = range(1, 10)
constraint hard a: i + j > 12
constraint hard b: i + j > 12
constraint hard c: i + j > 12 or i * j > 50
`)
	checkDiags(t, rep, []wantDiag{
		{"W103", "a", 3, 17},
		{"W102", "b", 4, 17},
	})
	if !strings.Contains(rep.Diags[0].Message, "subsumed by c") {
		t.Fatalf("W103 should name the subsuming constraint: %s", rep.Diags[0].Message)
	}
	if !strings.Contains(rep.Diags[1].Message, "duplicates a") {
		t.Fatalf("W102 should name the first occurrence: %s", rep.Diags[1].Message)
	}
}

func TestCleanSpecIsQuiet(t *testing.T) {
	rep := lintSpec(t, `i = range(1, 10)
j = range(1, 10)
constraint hard cap: i * j > 50
`)
	checkDiags(t, rep, nil)
	if rep.Fails(true) {
		t.Fatal("clean spec must pass even under -Werror")
	}
}

func TestCardinalityOverflow(t *testing.T) {
	rep := lintSpec(t, `a = range(1, 4194304)
b = range(1, 4194304)
c = range(1, 4194304)
d = range(1, 4194304)
constraint hard cap: a + b + c + d > 8000000
`)
	var found bool
	for _, d := range rep.Diags {
		if d.Code == "W201" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want W201 for a ~2^88 space: %s", rep.Render("spec"))
	}
}

func TestTabulateBudgetBlowout(t *testing.T) {
	s, err := speclang.Parse(`i = range(1, 100000)
constraint hard ragged: i % 7 == 3
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(s, Options{TabulateBudget: 16})
	if err != nil {
		t.Fatal(err)
	}
	var found *Diagnostic
	for i, d := range rep.Diags {
		if d.Code == "W202" {
			found = &rep.Diags[i]
		}
	}
	if found == nil {
		t.Fatalf("want W202 under a 16-byte budget: %s", rep.Render("spec"))
	}
	if found.Name != "ragged" {
		t.Fatalf("W202 should name the priced-out constraint, got %q", found.Name)
	}
}

func TestDeferredInnermostWarning(t *testing.T) {
	// Deferred constraints only exist through the Go API: an opaque host
	// predicate the planner can neither narrow nor tabulate.
	s := space.New()
	s.Range("i", expr.IntLit(1), expr.IntLit(10))
	s.Range("j", expr.IntLit(1), expr.IntLit(10))
	s.DeferredConstraint("host_check", space.Hard, []string{"i", "j"},
		func(args []expr.Value) bool { return false })
	rep, err := Analyze(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, d := range rep.Diags {
		if d.Code == "W203" && d.Name == "host_check" {
			found = true
			if d.Span.Known() {
				t.Fatalf("Go-API constraint has no source span, got %v", d.Span)
			}
		}
	}
	if !found {
		t.Fatalf("want W203 for an innermost deferred constraint: %s", rep.Render("space"))
	}
}

func TestRenderFormat(t *testing.T) {
	d := Diagnostic{Code: "E001", Severity: Error, Name: "x", Span: space.Pos{Line: 3, Col: 7}, Message: "boom"}
	if got, want := d.Render("s.bst"), "s.bst:3:7: error[E001] boom"; got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
	d.Span = space.Pos{}
	if got, want := d.Render("s.bst"), "s.bst: error[E001] boom"; got != want {
		t.Fatalf("span-less Render = %q, want %q", got, want)
	}
}

// BenchmarkLintContradiction times the full analyze run on a contradictory
// spec: the EXPERIMENTS.md claim that a doomed sweep is caught in well
// under a millisecond.
func BenchmarkLintContradiction(b *testing.B) {
	const src = `i = range(1, 10)
j = range(1, 100)
constraint hard need_big:   i < 6
constraint hard need_small: i >= 3
`
	s, err := speclang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Analyze(s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors() == 0 {
			b.Fatal("contradiction not detected")
		}
	}
}
