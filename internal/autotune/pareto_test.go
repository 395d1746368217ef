package autotune

import (
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/gemm"
	"repro/internal/kernelsim"
	"repro/internal/space"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{2, 2}, []float64{1, 1}, true},
		{[]float64{2, 1}, []float64{1, 1}, true},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict gain
		{[]float64{2, 0}, []float64{1, 1}, false}, // trade-off
		{[]float64{0, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// paretoSchedules are the enumeration settings every Pareto test runs
// under; the front must not depend on them.
var paretoSchedules = []Options{
	{Workers: 1}, {Workers: 1, ChunkSize: 64}, {Workers: 4}, {Workers: 4, ChunkSize: 64},
}

// runParetoSchedules runs RunPareto under every paretoSchedules entry,
// requires identical reports, and returns the first.
func runParetoSchedules(t *testing.T, tuner *Tuner, objectives map[string]Objective) *MultiReport {
	t.Helper()
	var first *MultiReport
	for _, opts := range paretoSchedules {
		rep, err := tuner.RunPareto(objectives, opts)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
			continue
		}
		if !reflect.DeepEqual(rep.Front, first.Front) || rep.Evaluated != first.Evaluated || rep.Survivors != first.Survivors {
			t.Fatalf("workers=%d chunk=%d: front %v (%d of %d evaluated), want %v (%d of %d)",
				opts.Workers, opts.ChunkSize, rep.Front, rep.Evaluated, rep.Survivors, first.Front, first.Evaluated, first.Survivors)
		}
	}
	return first
}

// A synthetic two-objective space with a known front: maximize x and
// maximize -x simultaneously over x in [0, 10) — every point is
// non-dominated. Then maximize (x, x): only x=9 survives. Then score
// every x alike: the one representative kept is the smallest tuple.
func TestRunParetoKnownFronts(t *testing.T) {
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(10))
	tuner, err := New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := runParetoSchedules(t, tuner, map[string]Objective{
		"up":   func(tu []int64) float64 { return float64(tu[0]) },
		"down": func(tu []int64) float64 { return -float64(tu[0]) },
	})
	if len(rep.Front) != 10 {
		t.Errorf("pure trade-off front = %d, want 10", len(rep.Front))
	}
	// Sorted descending by first objective name (alphabetical: "down").
	if rep.Names[0] != "down" {
		t.Fatalf("objective order = %v", rep.Names)
	}
	if rep.Front[0].Tuple[0] != 0 {
		t.Errorf("front head = %v, want x=0 (best 'down')", rep.Front[0].Tuple)
	}

	rep2 := runParetoSchedules(t, tuner, map[string]Objective{
		"a": func(tu []int64) float64 { return float64(tu[0]) },
		"b": func(tu []int64) float64 { return float64(tu[0]) },
	})
	if len(rep2.Front) != 1 || rep2.Front[0].Tuple[0] != 9 {
		t.Errorf("aligned objectives front = %+v, want single x=9", rep2.Front)
	}
	out := rep2.Render([]string{"x"})
	if out == "" {
		t.Error("empty render")
	}

	rep3 := runParetoSchedules(t, tuner, map[string]Objective{
		"flat": func([]int64) float64 { return 1 },
	})
	if len(rep3.Front) != 1 || rep3.Front[0].Tuple[0] != 0 {
		t.Errorf("flat objective front = %+v, want single x=0", rep3.Front)
	}
}

// Every front member must be undominated by every survivor (checked by
// re-enumeration), and the front must contain both single-objective
// optima.
func TestParetoFrontIsCorrect(t *testing.T) {
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(12))
	s.Range("y", expr.IntLit(0), expr.IntLit(12))
	s.Constrain("odd_sum", space.Soft,
		expr.Eq(expr.Mod(expr.Add(expr.NewRef("x"), expr.NewRef("y")), expr.IntLit(2)), expr.IntLit(1)))
	// Two conflicting quadratics.
	f1 := func(tu []int64) float64 {
		dx, dy := float64(tu[0]-2), float64(tu[1]-2)
		return -(dx*dx + dy*dy)
	}
	f2 := func(tu []int64) float64 {
		dx, dy := float64(tu[0]-9), float64(tu[1]-9)
		return -(dx*dx + dy*dy)
	}
	tuner, err := New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := runParetoSchedules(t, tuner, map[string]Objective{"near2": f1, "near9": f2})
	if len(rep.Front) < 3 {
		t.Fatalf("front unexpectedly small: %d", len(rep.Front))
	}
	// Direct check: both optima are on the front.
	containsOptimum := func(obj Objective) bool {
		bestVal := -1e18
		for _, m := range rep.Front {
			if v := obj(m.Tuple); v > bestVal {
				bestVal = v
			}
		}
		// Compare against the true optimum from a scan.
		trueBest := -1e18
		for x := int64(0); x < 12; x++ {
			for y := int64(0); y < 12; y++ {
				if (x+y)%2 == 1 {
					continue
				}
				if v := obj([]int64{x, y}); v > trueBest {
					trueBest = v
				}
			}
		}
		return bestVal == trueBest
	}
	if !containsOptimum(f1) || !containsOptimum(f2) {
		t.Error("front missing a single-objective optimum")
	}
	// No front member dominates another, and no survivor dominates any
	// front member (verified by a full re-enumeration).
	for i := range rep.Front {
		for j := range rep.Front {
			if i != j && Dominates(rep.Front[i].Scores, rep.Front[j].Scores) {
				t.Fatalf("front member %d dominates member %d", i, j)
			}
		}
	}
	for x := int64(0); x < 12; x++ {
		for y := int64(0); y < 12; y++ {
			if (x+y)%2 == 1 {
				continue // pruned by odd_sum
			}
			scores := []float64{f1([]int64{x, y}), f2([]int64{x, y})}
			// Alphabetical objective order: near2, near9 — f1 first.
			for _, m := range rep.Front {
				if Dominates(scores, m.Scores) {
					t.Fatalf("survivor (%d,%d) dominates front member %v", x, y, m.Tuple)
				}
			}
		}
	}
}

// TestEnergyPerformanceTradeoff reproduces the §XI.E observation: tuning
// GEMM for performance and for energy efficiency at once yields a true
// trade-off — the fastest kernel is not the most efficient one.
func TestEnergyPerformanceTradeoff(t *testing.T) {
	cfg := gemm.Default()
	cfg.Device = device.Scaled(device.TeslaK40c(), 16)
	cfg.MinThreadsPerMultiprocessor = 128
	s, err := gemm.Space(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.TeslaK40c()
	prob := kernelsim.ProblemFor(cfg, 2048)
	perf := func(tu []int64) float64 {
		k, _ := kernelsim.FromTuple(tu)
		return kernelsim.EstimateGEMM(dev, k, prob).GFLOPS
	}
	eff := func(tu []int64) float64 {
		k, _ := kernelsim.FromTuple(tu)
		return kernelsim.EstimateGEMMPower(dev, k, prob).GFLOPSPerWatt
	}
	tuner, err := New(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.RunPareto(map[string]Objective{"gflops": perf, "gflops_per_watt": eff}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Front) < 2 {
		t.Fatalf("no performance/energy trade-off: front size %d (the energy study found one)", len(rep.Front))
	}
	// The two extreme points differ.
	bestPerf, bestEff := rep.Front[0], rep.Front[0]
	gi := indexOfName(rep.Names, "gflops")
	ei := indexOfName(rep.Names, "gflops_per_watt")
	for _, m := range rep.Front {
		if m.Scores[gi] > bestPerf.Scores[gi] {
			bestPerf = m
		}
		if m.Scores[ei] > bestEff.Scores[ei] {
			bestEff = m
		}
	}
	same := true
	for i := range bestPerf.Tuple {
		if bestPerf.Tuple[i] != bestEff.Tuple[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("performance-optimal and energy-optimal kernels are identical; no trade-off modeled")
	}
	t.Logf("front=%d: best perf %.0f GF @ %.2f GF/W; best efficiency %.0f GF @ %.2f GF/W",
		len(rep.Front), bestPerf.Scores[gi], bestPerf.Scores[ei], bestEff.Scores[gi], bestEff.Scores[ei])
}

func indexOfName(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}
