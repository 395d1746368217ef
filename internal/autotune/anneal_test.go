package autotune

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/naive"
	"repro/internal/space"
)

// A rugged objective with divisibility ridges: hill climbing from most
// seeds stalls on a local plateau, annealing should cross it.
func ruggedSpace(t *testing.T) (*space.Space, Objective) {
	t.Helper()
	s := space.New()
	s.Range("x", expr.IntLit(1), expr.IntLit(65))
	s.Range("y", expr.IntLit(1), expr.IntLit(65))
	obj := func(tu []int64) float64 {
		x, y := tu[0], tu[1]
		v := 0.0
		// Reward powers of two strongly (cliffy), with the global optimum
		// at (64, 64).
		for _, c := range []int64{x, y} {
			switch {
			case c == 64:
				v += 100
			case c%32 == 0:
				v += 60
			case c%16 == 0:
				v += 40
			case c%8 == 0:
				v += 25
			case c%4 == 0:
				v += 10
			case c%2 == 0:
				v += 3
			}
		}
		return v
	}
	return s, obj
}

func TestAnnealFindsOptimumOnRuggedSpace(t *testing.T) {
	s, obj := ruggedSpace(t)
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.RunAnneal(AnnealOptions{
		Options: Options{TopK: 1, Restarts: 10, Steps: 600, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Best) == 0 {
		t.Fatal("no results")
	}
	if rep.Best[0].Score < 160 {
		t.Errorf("anneal best %v score %.0f; expected to reach a near-global ridge (>=160)",
			rep.Best[0].Tuple, rep.Best[0].Score)
	}
	if rep.Evaluated == 0 || rep.Evaluated > 4096*2 {
		t.Errorf("evaluated = %d; budget must stay below exhaustive", rep.Evaluated)
	}
	t.Logf("anneal best %v score %.0f after %d evaluations (space 4096)",
		rep.Best[0].Tuple, rep.Best[0].Score, rep.Evaluated)
}

func TestAnnealDeterministicUnderSeed(t *testing.T) {
	s, obj := ruggedSpace(t)
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tuner.RunAnneal(AnnealOptions{Options: Options{TopK: 3, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tuner.RunAnneal(AnnealOptions{Options: Options{TopK: 3, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Best) != len(b.Best) {
		t.Fatalf("different result counts: %d vs %d", len(a.Best), len(b.Best))
	}
	for i := range a.Best {
		if a.Best[i].Score != b.Best[i].Score {
			t.Fatalf("result %d: %f vs %f", i, a.Best[i].Score, b.Best[i].Score)
		}
	}
}

func TestAnnealRespectsConstraints(t *testing.T) {
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(40))
	s.Range("y", expr.IntLit(0), expr.IntLit(40))
	s.Constrain("diag", space.Correctness,
		expr.Ne(expr.Mod(expr.Add(expr.NewRef("x"), expr.NewRef("y")), expr.IntLit(4)), expr.IntLit(0)))
	obj := func(tu []int64) float64 { return float64(tu[0] + tu[1]) }
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.RunAnneal(AnnealOptions{Options: Options{TopK: 5, Seed: 3, Steps: 300}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Best {
		if (r.Tuple[0]+r.Tuple[1])%4 != 0 {
			t.Fatalf("annealing returned an infeasible point %v", r.Tuple)
		}
	}
	if rep.Best[0].Score < 70 {
		t.Errorf("best %.0f; the feasible maximum is 78", rep.Best[0].Score)
	}
}

// TestLocalSearchRespectsAbsorbedConstraints runs hill climbing and
// annealing on spaces whose only constraint bounds narrowing absorbs, as
// an upper bound (cap) and as a pin (pin), and requires every tuple they
// report to be a survivor of the planner-free enumerator: an absorbed
// constraint leaves no check step behind for the point checker to run.
func TestLocalSearchRespectsAbsorbedConstraints(t *testing.T) {
	x, y := expr.NewRef("x"), expr.NewRef("y")
	for name, pred := range map[string]expr.Expr{
		"cap": expr.Gt(expr.Add(x, y), expr.IntLit(30)),
		"pin": expr.Ne(expr.Add(expr.Mul(x, expr.IntLit(2)), y), expr.IntLit(40)),
	} {
		s := space.New()
		s.Range("x", expr.IntLit(0), expr.IntLit(40))
		s.Range("y", expr.IntLit(0), expr.IntLit(40))
		s.Constrain(name, space.Hard, pred)
		survivors := make(map[string]bool)
		for _, tu := range naive.Survivors(t, s) {
			survivors[tu] = true
		}
		tuner, err := New(s, func(tu []int64) float64 { return float64(tu[0] + tu[1]) })
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{TopK: 3, Restarts: 4, Steps: 200, Seed: 1}
		for _, strategy := range []Strategy{HillClimb, Anneal} {
			opts.Strategy = strategy
			rep, err := tuner.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Best) == 0 {
				t.Fatalf("%s/%s: no results", name, strategy)
			}
			for _, r := range rep.Best {
				if key := naive.Canon([][]int64{r.Tuple})[0]; !survivors[key] {
					t.Errorf("%s/%s reported %v (score %.0f), which %s rejects", name, strategy, r.Tuple, r.Score, name)
				}
			}
		}
	}
}
