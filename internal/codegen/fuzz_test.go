package codegen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
)

// randomTranslatableSpace builds a pseudo-random space restricted to the
// constructs the C generator accepts: expression iterators (ranges with
// literal and dynamic steps, lists, conditionals over range/list shapes,
// closed algebra) and expression constraints.
func randomTranslatableSpace(rng *rand.Rand) *space.Space {
	s := space.New()
	s.IntSetting("s0", int64(rng.Intn(6)+2))
	avail := []string{"s0"}
	randRef := func() expr.Expr { return expr.NewRef(avail[rng.Intn(len(avail))]) }
	var randE func(d int) expr.Expr
	randE = func(d int) expr.Expr {
		if d <= 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return expr.IntLit(int64(rng.Intn(9) - 2))
			}
			return randRef()
		}
		a, b := randE(d-1), randE(d-1)
		switch rng.Intn(8) {
		case 0:
			return expr.Add(a, b)
		case 1:
			return expr.Sub(a, b)
		case 2:
			return expr.Mul(a, b)
		case 3:
			return expr.Div(a, b)
		case 4:
			return expr.Mod(a, b)
		case 5:
			return expr.MinOf(a, b)
		case 6:
			return expr.MaxOf(a, b)
		default:
			return expr.If(expr.Gt(a, expr.IntLit(0)), a, b)
		}
	}
	bound := func() expr.Expr {
		return expr.Add(expr.MaxOf(expr.Mod(randE(1), expr.IntLit(4)), expr.IntLit(0)), expr.IntLit(2))
	}
	nIters := rng.Intn(2) + 2
	for i := 0; i < nIters; i++ {
		name := fmt.Sprintf("i%d", i)
		switch rng.Intn(5) {
		case 0:
			s.Range(name, expr.IntLit(0), bound())
		case 1:
			s.RangeStep(name, bound(), expr.IntLit(0), expr.IntLit(-1))
		case 2:
			// Dynamic positive step.
			s.RangeStep(name, expr.IntLit(0), expr.IntLit(int64(rng.Intn(8)+4)),
				expr.Add(expr.MaxOf(expr.Mod(randE(1), expr.IntLit(3)), expr.IntLit(0)), expr.IntLit(1)))
		case 3:
			s.DomainIter(name, space.NewCond(
				expr.Gt(randE(1), expr.IntLit(1)),
				space.NewRange(expr.IntLit(0), bound()),
				space.NewRangeStep(expr.IntLit(1), bound(), expr.IntLit(2)),
			))
		default:
			s.DomainIter(name, space.Union(
				space.NewIntList(int64(rng.Intn(4)), int64(rng.Intn(4)+3)),
				space.NewRange(expr.IntLit(0), expr.IntLit(int64(rng.Intn(3)+1))),
			))
		}
		avail = append(avail, name)
	}
	if rng.Intn(2) == 0 {
		s.Derived("dv", randE(2))
		avail = append(avail, "dv")
	}
	classes := []space.Class{space.Hard, space.Soft, space.Correctness}
	for i := 0; i < rng.Intn(3); i++ {
		s.Constrain(fmt.Sprintf("c%d", i), classes[rng.Intn(3)],
			expr.Lt(randE(2), randE(2)))
	}
	return s
}

// fuzzSpaces returns the 40 random translatable spaces the codegen fuzz
// grids and the C emission digest share.
func fuzzSpaces() []*space.Space {
	rng := rand.New(rand.NewSource(1545)) // the paper's first page number
	out := make([]*space.Space, 40)
	for i := range out {
		out[i] = randomTranslatableSpace(rng)
	}
	return out
}

// TestFuzzGeneratedCAgainstEngine compiles random translatable spaces to C,
// builds them with the host compiler, runs them, and checks survivors,
// visits, and per-constraint kills against the native engine — the same
// cross-backend soundness property as the engine fuzz, extended through
// the paper's actual artifact (generated standard C).
func TestFuzzGeneratedCAgainstEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("C fuzz skipped in -short mode")
	}
	haveCC(t)
	for trial, s := range fuzzSpaces() {
		prog, err := plan.Compile(s, plan.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		comp, err := engine.NewCompiled(prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := comp.Run(engine.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Alternate scalar and chunked emission across trials (chunk 8
		// exercises remainder blocks; chunk 64 the full mask word).
		chunk := [3]int{0, 8, 64}[trial%3]
		src, err := C(prog, COptions{Main: true, ChunkSize: chunk})
		if err != nil {
			t.Fatalf("trial %d: C generation: %v\n%s", trial, err, prog.Describe())
		}
		survivors, visits, kills := runGeneratedC(t, src)
		if survivors != want.Survivors || visits != want.TotalVisits() {
			t.Fatalf("trial %d (chunk=%d): C survivors/visits = %d/%d, engine = %d/%d\nnest:\n%s",
				trial, chunk, survivors, visits, want.Survivors, want.TotalVisits(), prog.Describe())
		}
		for i, c := range prog.Constraints {
			if kills[c.Name] != want.Kills[i] {
				t.Fatalf("trial %d (chunk=%d): C kills[%s] = %d, engine = %d\nnest:\n%s",
					trial, chunk, c.Name, kills[c.Name], want.Kills[i], prog.Describe())
			}
		}
	}
}

// TestFuzzGeneratedGoAgainstEngine emits the fuzz grid's random spaces as
// Go at chunk 0, 8 and 64 into one package, builds it with a single go
// run, and checks survivors, per-loop visits and per-constraint kills of
// every generated sweep against the compiled engine.
func TestFuzzGeneratedGoAgainstEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("Go fuzz skipped in -short mode")
	}
	files := make(map[string]string)
	want := make(map[string]string)
	var main strings.Builder
	main.WriteString("package main\n\nimport \"fmt\"\n\nfunc main() {\n")
	for trial, s := range fuzzSpaces() {
		prog, err := plan.Compile(s, plan.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		comp, err := engine.NewCompiled(prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		st, err := comp.Run(engine.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, chunk := range []int{0, 8, 64} {
			fn := fmt.Sprintf("sweep%dChunk%d", trial, chunk)
			src, err := Go(prog, GoOptions{Package: "main", FuncName: fn, StatsType: fn + "Stats",
				ChunkSize: chunk, OmitShared: len(files) > 0})
			if err != nil {
				t.Fatalf("trial %d (chunk=%d): Go generation: %v\n%s", trial, chunk, err, prog.Describe())
			}
			files[fn+".go"] = src
			fmt.Fprintf(&main, "\t{\n\t\tst := %s(nil)\n\t\tfmt.Println(%q, st.Survivors, st.Visits[:%d], st.Kills[:%d])\n\t}\n",
				fn, fn, len(prog.Loops), len(prog.Constraints))
			want[fn] = fmt.Sprint(fn, " ", st.Survivors, " ", st.LoopVisits, " ", st.Kills)
		}
	}
	main.WriteString("}\n")
	files["main.go"] = main.String()
	out := runGeneratedGo(t, files)
	got := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		got[strings.Fields(line)[0]] = line
	}
	for fn, line := range want {
		if got[fn] != line {
			t.Errorf("generated Go %q, engine %q", got[fn], line)
		}
	}
}
