package plan_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/families"
	"repro/internal/plan"
	"repro/internal/space"
)

// reorderDigest pins the loop-order optimizer's decisions and the plans
// they produce over a fixed corpus of real spaces. Any change to the
// sampled selectivities, the cost model, the arbitration or the compiled
// nest moves it; a plan-time speedup that keeps every estimate must leave
// it alone.
const reorderDigest = "7050f593c5bc8ba14f7499a70d4c0171b9b385052cb1ef5d1281d1d56b301885"

// writeReorderDigest feeds one compiled program's reorder decision and
// plan text to h.
func writeReorderDigest(h hash.Hash, prog *plan.Program) {
	ri := prog.Reorder
	if ri == nil {
		fmt.Fprintln(h, "reorder: none")
	} else {
		fmt.Fprintf(h, "applied=%v chosen=%s\n", ri.Applied, strings.Join(ri.Chosen, ","))
		names := make([]string, 0, len(ri.Cards))
		for name := range ri.Cards {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "card %s=%d\n", name, ri.Cards[name])
		}
		for _, s := range ri.Selectivity {
			fmt.Fprintf(h, "sel %s deps=%s pass=%.17g samples=%d exact=%v\n",
				s.Name, strings.Join(s.Deps, ","), s.Pass, s.Samples, s.Exact)
		}
		fmt.Fprintf(h, "visits declared=%.17g estimated=%.17g\n", ri.DeclaredVisits, ri.EstimatedVisits)
	}
	fmt.Fprint(h, prog.Describe())
}

// corpusDigest compiles every corpus space with default options and
// returns the sha256 of the text write feeds for each compiled program
// (compile errors are hashed as text).
func corpusDigest(t *testing.T, write func(h hash.Hash, prog *plan.Program)) string {
	t.Helper()
	h := sha256.New()
	for _, c := range families.Corpus() {
		fmt.Fprintf(h, "== %s\n", c.Name)
		s, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		prog, err := plan.Compile(s, plan.Options{})
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			continue
		}
		write(h, prog)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReorderDecisionDigest compares the digest of every decision and plan
// in the corpus against the pinned value.
func TestReorderDecisionDigest(t *testing.T) {
	if got := corpusDigest(t, writeReorderDigest); got != reorderDigest {
		t.Errorf("reorder decision digest = %s, want %s", got, reorderDigest)
	}
}

// reorderChoiceDigest pins only which order each corpus space is compiled
// with: Applied and Chosen. Estimation changes that move selectivities or
// estimated visits without flipping a decision leave it alone.
const reorderChoiceDigest = "80fd763ea52cb89bbcf4899c5f3bf9a3d3d78f4d115d22177aa6856c5b2f79da"

// TestReorderChoiceDigest compares the digest of every space's Applied and
// Chosen against the pinned value.
func TestReorderChoiceDigest(t *testing.T) {
	got := corpusDigest(t, func(h hash.Hash, prog *plan.Program) {
		if ri := prog.Reorder; ri == nil {
			fmt.Fprintln(h, "reorder: none")
		} else {
			fmt.Fprintf(h, "applied=%v chosen=%s\n", ri.Applied, strings.Join(ri.Chosen, ","))
		}
	})
	if got != reorderChoiceDigest {
		t.Errorf("reorder choice digest = %s, want %s", got, reorderChoiceDigest)
	}
}

// censusShapeDigest pins the selectivity estimates, decisions and plans of
// censusShapeSpace, whose supports run over the domain shapes the corpus
// lacks. Like reorderDigest, a plan-time speedup that keeps every
// estimate must leave it alone.
const censusShapeDigest = "0c5e75902129e2fe5153bcd31ebfdd411ba5b44fdb63b27dd7f79a1f87f5a257"

// censusShapeSpace builds a space whose constraints' support sets run over
// conditional, list, algebra, negative-step and dynamic-step domains, as
// in the code generators' feature space. n scales the outer range, so the
// same shapes reach exact censuses (n = 10), Monte Carlo sampling chosen
// by the cardinality product (n = 40) and censuses sized past the walk cap
// (n = 200).
func censusShapeSpace(n int64) *space.Space {
	ref, lit := expr.NewRef, expr.IntLit
	s := space.New()
	s.IntSetting("n", n)
	s.IntSetting("mode", 1)
	s.Range("a", lit(1), expr.Add(ref("n"), lit(1)))
	s.RangeStep("down", ref("a"), lit(0), lit(-2))
	s.RangeStep("b", lit(0), ref("n"), ref("a"))
	s.DomainIter("c", space.NewCond(expr.Gt(ref("a"), lit(5)),
		space.NewRange(lit(0), lit(3)), space.NewRange(lit(1), lit(4))))
	s.DomainIter("cl", space.NewCond(expr.Eq(expr.Mod(ref("a"), lit(2)), lit(0)),
		space.NewList(lit(7), ref("a")), space.NewList(lit(9), lit(11))))
	s.DomainIter("alg", space.Union(space.NewIntList(1, 3), space.NewIntList(3, 5)))
	s.DomainIter("cat", space.Concat(space.NewRange(lit(0), ref("a")), space.NewList(expr.Mul(ref("a"), lit(2)))))
	s.DomainIter("dif", space.Difference(space.NewRange(lit(0), expr.Mul(ref("mode"), lit(12))), space.NewRange(lit(0), ref("c"))))
	s.DomainIter("isect", space.Intersect(space.NewRangeStep(lit(0), ref("n"), lit(3)), space.NewRangeStep(ref("b"), ref("n"), lit(2))))
	s.Derived("t", &expr.Table2D{
		Name: "T", Data: [][]int64{{1, 2}, {3, 4}}, Default: -1,
		Row: expr.Mod(ref("a"), lit(3)), Col: expr.Mod(ref("b"), lit(2)),
	})
	s.Derived("m", expr.MaxOf(ref("a"), ref("b"), expr.Abs(expr.Neg(ref("c")))))
	s.Derived("lim", expr.Add(expr.Mul(ref("n"), ref("mode")), lit(2)))
	s.Constrain("k1", space.Hard, expr.And(expr.Gt(ref("m"), lit(8)), expr.Ne(ref("t"), lit(-1))))
	s.Constrain("k2", space.Soft, expr.If(expr.Lt(ref("down"), lit(3)),
		expr.Eq(expr.Mod(expr.Add(ref("cl"), ref("alg")), lit(5)), lit(0)), expr.BoolLit(false)))
	s.Constrain("k3", space.Soft, expr.Eq(expr.Mod(expr.Add(ref("down"), ref("b")), lit(3)), lit(0)))
	s.Constrain("k4", space.Soft, expr.Eq(expr.Mod(expr.Add(expr.Mul(ref("cat"), lit(3)), ref("isect")), lit(7)), lit(1)))
	s.Constrain("k5", space.Soft, expr.Gt(ref("dif"), expr.Add(ref("c"), lit(4))))
	s.Constrain("k6", space.Soft, expr.Or(expr.Gt(expr.Sub(ref("cl"), ref("down")), lit(4)), expr.Not(ref("down"))))
	s.Constrain("k7", space.Soft, expr.Eq(expr.Mul(ref("alg"), ref("c")), lit(9)))
	s.Constrain("k8", space.Soft, expr.Gt(expr.Add(ref("b"), ref("down")), ref("lim")))
	s.Constrain("k9", space.Soft, expr.Eq(expr.Mod(expr.Add(ref("cat"), ref("a")), lit(11)), lit(3)))
	return s
}

// TestCensusShapeDigest compares the digest of censusShapeSpace's
// estimates and plans, folded and unfolded, against the pinned value.
func TestCensusShapeDigest(t *testing.T) {
	h := sha256.New()
	for _, n := range []int64{10, 40, 200} {
		for _, fold := range []bool{true, false} {
			fmt.Fprintf(h, "== n=%d fold=%v\n", n, fold)
			prog, err := plan.Compile(censusShapeSpace(n), plan.Options{DisableFolding: !fold})
			if err != nil {
				t.Fatalf("n=%d fold=%v: %v", n, fold, err)
			}
			writeReorderDigest(h, prog)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != censusShapeDigest {
		t.Errorf("census shape digest = %s, want %s", got, censusShapeDigest)
	}
}

// planText renders what a pass can change in a compiled program: the plan
// text, the reorder decision, the slot layout, the temps, the chunk
// layout, the tables and the tabulation record.
func planText(prog *plan.Program) string {
	var b strings.Builder
	h := sha256.New()
	writeReorderDigest(h, prog)
	fmt.Fprintf(&b, "%x\nslots %v\n", h.Sum(nil), prog.Scope.Names())
	for _, t := range prog.Temps {
		fmt.Fprintf(&b, "temp %s %d %d %d %s\n", t.Name, t.Slot, t.Depth, t.Uses, t.Expr)
	}
	if v := prog.Vector; v != nil {
		fmt.Fprintf(&b, "lanes %v\n", v.LaneSlots)
	}
	if tb := prog.Tab; tb != nil {
		fmt.Fprintf(&b, "tab %d bytes\n", tb.TableBytes)
		for _, t := range tb.Tables {
			fmt.Fprintf(&b, "table %s %d rows=%d full=%v bits=%v\n", t.Name, t.Kind, t.MaxRows, t.Full, t.Bits)
		}
	}
	if pr := prog.TabPricing; pr != nil {
		fmt.Fprintf(&b, "priced out %v, need %d\n", pr.PricedOut, pr.NeedBytes)
	}
	return b.String()
}

// TestCompileEachMatchesCompile plans a sample of the corpus under many
// option sets with one CompileEach call and requires every program to
// match the one Compile builds for its option set alone, once all of them
// are built: option sets that share a placement must not see each other's
// passes. Every program is verified.
func TestCompileEachMatchesCompile(t *testing.T) {
	sets := []plan.Options{
		{},
		{DisableReorder: true, DisableCSE: true, DisableNarrowing: true, DisableTabulation: true},
		{DisableReorder: true, DisableCSE: true, TabulateBudget: 64},
		{DisableHoisting: true},
		{DisableNarrowing: true},
		{DisableCSE: true},
		{DisableFolding: true},
		{DisableTabulation: true},
		{DisableReorder: true},
		{DisableHoisting: true, DisableNarrowing: true, DisableFolding: true},
		{TabulateBudget: 16},
		{},
	}
	for i := range sets {
		sets[i].Verify = true
	}
	spaces := []families.Named{
		{Name: "census/10", Build: func() (*space.Space, error) { return censusShapeSpace(10), nil }},
		{Name: "census/40", Build: func() (*space.Space, error) { return censusShapeSpace(40), nil }},
	}
	for i, c := range families.Corpus() {
		if i%16 == 0 || strings.HasPrefix(c.Name, "stencil/") || strings.HasPrefix(c.Name, "dense/") {
			spaces = append(spaces, c)
		}
	}
	for _, c := range spaces {
		s, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		progs, err := plan.CompileEach(s, sets...)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for i, o := range sets {
			alone, err := plan.Compile(s, o)
			if err != nil {
				t.Fatalf("%s, option set %d: %v", c.Name, i, err)
			}
			if got, want := planText(progs[i]), planText(alone); got != want {
				t.Errorf("%s, option set %d (%+v): CompileEach planned\n%s\nCompile planned\n%s", c.Name, i, o, got, want)
			}
		}
	}
}
