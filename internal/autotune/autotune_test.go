package autotune

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/expr"
	"repro/internal/gemm"
	"repro/internal/kernelsim"
	"repro/internal/space"
)

// quadSpace is a small space with a known optimum: maximize
// -(x-7)^2 - (y-3)^2 subject to x+y even.
func quadSpace(t *testing.T) (*space.Space, Objective, []int64) {
	t.Helper()
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(20))
	s.Range("y", expr.IntLit(0), expr.IntLit(20))
	s.Constrain("parity", space.Correctness,
		expr.Ne(expr.Mod(expr.Add(expr.NewRef("x"), expr.NewRef("y")), expr.IntLit(2)), expr.IntLit(0)))
	obj := func(tuple []int64) float64 {
		dx := float64(tuple[0] - 7)
		dy := float64(tuple[1] - 3)
		return -(dx*dx + dy*dy)
	}
	return s, obj, []int64{7, 3}
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	s, obj, want := quadSpace(t)
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.Run(Options{Strategy: Exhaustive, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivors != 200 { // half of 400 pass the parity constraint
		t.Errorf("survivors = %d, want 200", rep.Survivors)
	}
	if rep.Evaluated != rep.Survivors {
		t.Errorf("exhaustive evaluated %d of %d", rep.Evaluated, rep.Survivors)
	}
	if !reflect.DeepEqual(rep.Best[0].Tuple, want) {
		t.Errorf("best = %v, want %v", rep.Best[0].Tuple, want)
	}
	if rep.Best[0].Score < rep.Best[1].Score || rep.Best[1].Score < rep.Best[2].Score {
		t.Error("Best not sorted descending")
	}
	// Every worker count and chunk size agrees on the counts, the winner
	// and the top-K scores: per-worker shards merge to the same ranking.
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{1, 64} {
			label := fmt.Sprintf("workers=%d chunk=%d", workers, chunk)
			rep2, err := tuner.Run(Options{Strategy: Exhaustive, TopK: 3, Workers: workers, ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			if rep2.Survivors != rep.Survivors || rep2.Evaluated != rep2.Survivors {
				t.Errorf("%s: %d survivors, %d evaluated; want %d each", label, rep2.Survivors, rep2.Evaluated, rep.Survivors)
			}
			if !reflect.DeepEqual(scores(rep2.Best), scores(rep.Best)) {
				t.Errorf("%s: top-K scores %v, want %v", label, scores(rep2.Best), scores(rep.Best))
			}
			if !reflect.DeepEqual(rep2.Best[0].Tuple, want) {
				t.Errorf("%s: best = %v, want %v", label, rep2.Best[0].Tuple, want)
			}
		}
	}
}

func TestRandomSample(t *testing.T) {
	s, obj, _ := quadSpace(t)
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.Run(Options{Strategy: RandomSample, TopK: 5, Samples: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluated != 50 {
		t.Errorf("evaluated = %d, want 50", rep.Evaluated)
	}
	if rep.Survivors != 200 {
		t.Errorf("survivors = %d", rep.Survivors)
	}
	// Determinism under a fixed seed.
	rep2, err := tuner.Run(Options{Strategy: RandomSample, TopK: 5, Samples: 50, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Best, rep2.Best) {
		t.Error("random sampling not reproducible under fixed seed")
	}
	// A different seed should (almost surely) sample differently.
	rep3, err := tuner.Run(Options{Strategy: RandomSample, TopK: 5, Samples: 50, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(rep.Best, rep3.Best) {
		t.Log("warning: two seeds produced identical samples (possible but unlikely)")
	}
	// Sample budget larger than the space degenerates to exhaustive.
	rep4, err := tuner.Run(Options{Strategy: RandomSample, TopK: 1, Samples: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Evaluated != 200 {
		t.Errorf("oversized budget evaluated %d, want all 200", rep4.Evaluated)
	}
	if !reflect.DeepEqual(rep4.Best[0].Tuple, []int64{7, 3}) {
		t.Error("oversized sample missed the optimum")
	}
}

func TestHillClimbFindsOptimum(t *testing.T) {
	s, obj, want := quadSpace(t)
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.Run(Options{Strategy: HillClimb, TopK: 1, Restarts: 8, Steps: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Best) == 0 {
		t.Fatal("no results")
	}
	// The parity constraint makes single-coordinate moves infeasible
	// (changing x by 1 flips parity), so the climber relies on repair;
	// require it to get close to the optimum rather than exactly there.
	if rep.Best[0].Score < -10 {
		t.Errorf("hill climb best %v score %.1f; too far from optimum %v",
			rep.Best[0].Tuple, rep.Best[0].Score, want)
	}
	if rep.Evaluated == 0 || rep.Evaluated > 10000 {
		t.Errorf("evaluated = %d", rep.Evaluated)
	}
}

func TestHillClimbOnSmoothSpace(t *testing.T) {
	// Without parity coupling, coordinate descent must find the exact
	// optimum from any restart.
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(50))
	s.Range("y", expr.IntLit(0), expr.IntLit(50))
	obj := func(tuple []int64) float64 {
		dx := float64(tuple[0] - 31)
		dy := float64(tuple[1] - 17)
		return -(dx*dx + dy*dy)
	}
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.Run(Options{Strategy: HillClimb, TopK: 1, Restarts: 4, Steps: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Best[0].Tuple, []int64{31, 17}) {
		t.Errorf("best = %v, want [31 17]", rep.Best[0].Tuple)
	}
	if rep.Evaluated >= 2500 {
		t.Errorf("hill climb evaluated %d of 2500; no cheaper than exhaustive", rep.Evaluated)
	}
}

func TestReportRendering(t *testing.T) {
	s, obj, _ := quadSpace(t)
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.Run(Options{Strategy: Exhaustive, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"exhaustive", "survivors=200", "rank", "x y"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	desc := rep.Describe(rep.Best[0])
	if desc["x"] != 7 || desc["y"] != 3 {
		t.Errorf("Describe = %v", desc)
	}
}

// TestTableIGEMMPeakFraction is the first Table I row: BEAST-tuned GEMM at
// ~80% of (modeled) peak. Uses a scaled device so the exhaustive sweep
// stays fast; tile sizes up to 256 keep the optimum physically sensible.
func TestTableIGEMMPeakFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive GEMM tune is too heavy for -short")
	}
	cfg := gemm.Default()
	dev := device.Scaled(device.TeslaK40c(), 4) // dims 256
	cfg.Device = dev
	s, err := gemm.Space(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := device.TeslaK40c()
	prob := kernelsim.ProblemFor(cfg, 4096)
	tuner, err := New(s, func(tuple []int64) float64 {
		k, err := kernelsim.FromTuple(tuple)
		if err != nil {
			t.Fatal(err)
		}
		return kernelsim.EstimateGEMM(full, k, prob).GFLOPS
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tuner.Run(Options{Strategy: Exhaustive, TopK: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	frac := rep.Best[0].Score / kernelsim.PeakGFLOPS(full, prob)
	t.Logf("tuned DGEMM: %.1f GFLOP/s = %.1f%% of peak (survivors %d)",
		rep.Best[0].Score, 100*frac, rep.Survivors)
	if frac < 0.7 || frac > 0.95 {
		t.Errorf("peak fraction %.3f outside the paper's ~0.8 band", frac)
	}
}

// Random sampling and hill climbing are strictly budget-limited, yet both
// should land within a modest factor of the exhaustive optimum on the GEMM
// space — the sanity check for using them at full scale.
func TestStrategiesApproachExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive GEMM tune is too heavy for -short")
	}
	cfg := gemm.Default()
	cfg.Device = device.Scaled(device.TeslaK40c(), 16) // dims 64
	cfg.MinThreadsPerMultiprocessor = 128
	s, err := gemm.Space(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := device.TeslaK40c()
	prob := kernelsim.ProblemFor(cfg, 2048)
	obj := func(tuple []int64) float64 {
		k, _ := kernelsim.FromTuple(tuple)
		return kernelsim.EstimateGEMM(full, k, prob).GFLOPS
	}
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := tuner.Run(Options{Strategy: Exhaustive, TopK: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tuner.Run(Options{Strategy: RandomSample, TopK: 1, Samples: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := tuner.Run(Options{Strategy: HillClimb, TopK: 1, Restarts: 24, Steps: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exhaustive=%.1f sample=%.1f (%.0f evals) hillclimb=%.1f (%.0f evals), survivors=%d",
		ex.Best[0].Score, rs.Best[0].Score, float64(rs.Evaluated),
		hc.Best[0].Score, float64(hc.Evaluated), ex.Survivors)
	if rs.Best[0].Score < 0.5*ex.Best[0].Score {
		t.Errorf("random sample best %.1f too far from exhaustive %.1f", rs.Best[0].Score, ex.Best[0].Score)
	}
	if hc.Best[0].Score < 0.5*ex.Best[0].Score {
		t.Errorf("hill climb best %.1f too far from exhaustive %.1f", hc.Best[0].Score, ex.Best[0].Score)
	}
}

// TestDevicePortability is the autotuning premise itself: different
// devices prefer different kernels. Tuning the same GEMM problem on
// Kepler (K40c) and Fermi (C2050) must surface different winning
// configurations — their register files, resident-warp budgets, and
// DP-unit ratios differ.
func TestDevicePortability(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive GEMM tune is too heavy for -short")
	}
	winners := map[string]string{}
	for _, dev := range []*device.Properties{device.TeslaK40c(), device.FermiC2050()} {
		cfg := gemm.Default()
		scaled := *dev
		scaled.MaxThreadsDimX = 128
		scaled.MaxThreadsDimY = 128
		cfg.Device = &scaled
		cfg.MinThreadsPerMultiprocessor = 128
		s, err := gemm.Space(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prob := kernelsim.ProblemFor(cfg, 2048)
		tuner, err := New(s, func(tuple []int64) float64 {
			k, _ := kernelsim.FromTuple(tuple)
			return kernelsim.EstimateGEMM(dev, k, prob).GFLOPS
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tuner.Run(Options{Strategy: Exhaustive, TopK: 1, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Best) == 0 {
			t.Fatalf("%s: no survivors", dev.Name)
		}
		k, _ := kernelsim.FromTuple(rep.Best[0].Tuple)
		// Compare the macro shape (tiles and thread grid), not the
		// incidental flags.
		shape := fmt.Sprintf("%dx%d grid, %dx%dx%d tile, vec %d",
			k.DimM, k.DimN, k.BlkM, k.BlkN, k.BlkK, k.DimVec)
		winners[dev.Name] = shape
		t.Logf("%s: %s at %.1f GF", dev.Name, shape, rep.Best[0].Score)
	}
	if winners["Tesla K40c"] == winners["Tesla C2050"] {
		t.Error("identical winning kernel shapes on Kepler and Fermi; the device model is not differentiating")
	}
}
