// Command gemm-tune runs the complete BEAST autotuning recipe on the §IX
// GEMM model problem: generate the 15-dimensional space, prune it with the
// 12 constraints, rank the survivors with the Kepler performance model,
// and report the winners. It also reproduces the paper's evaluation
// headlines:
//
//	gemm-tune -kernel dgemm_nn -scale 16          # tune a scaled space
//	gemm-tune -table1                             # Table I reproduction
//	gemm-tune -compare-backends -scale 32         # §XI.B/D interp-vs-C sweep
//	gemm-tune -funnel -scale 32                   # §VI pruning funnel
//	gemm-tune -kernel dgemm_nn -full              # paper-scale limits (slow!)
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/autotune"
	"repro/internal/batched"
	"repro/internal/cli"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/kernelsim"
	"repro/internal/plan"
	"repro/internal/space"
	"repro/internal/viz"
)

func main() {
	planOpts := cli.PlanFlags()
	sweep := cli.SweepFlags(8)
	run := cli.RunFlags()
	prof := cli.ProfileFlags()
	devFlags := cli.DeviceFlags()
	var (
		kernel     = flag.String("kernel", "dgemm_nn", "GEMM kernel: sgemm/dgemm/cgemm/zgemm[_nn|_nt|_tn|_tt]")
		scale      = flag.Int64("scale", 16, "divide device thread-dim limits by this factor")
		full       = flag.Bool("full", false, "paper-scale limits (scale 1); the sweep is large")
		n          = flag.Int64("n", 4096, "problem matrix size for the performance model")
		minThreads = flag.Int64("min-threads", 256, "occupancy floor (Figure 14)")
		strategy   = flag.String("strategy", "exhaustive", "exhaustive, sample, hillclimb, anneal")
		topK       = flag.Int("topk", 10, "report this many best kernels")
		samples    = flag.Int("samples", 2000, "benchmark budget for -strategy sample")
		seed       = flag.Int64("seed", 1, "random seed for sample/hillclimb")
		funnel     = flag.Bool("funnel", false, "print the pruning funnel instead of tuning")
		table1     = flag.Bool("table1", false, "reproduce Table I and exit")
		compare    = flag.Bool("compare-backends", false, "time the sweep under every backend (§XI)")
		energy     = flag.Bool("energy", false, "multi-objective performance/energy tuning (§XI.E): print the Pareto front")
	)
	flag.Parse()
	if run.Enabled() && (*table1 || *compare || *funnel || *energy || *strategy != "exhaustive") {
		fail(cli.Usagef("-checkpoint and -resume apply only to the exhaustive tuner"))
	}

	stopProfiles, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	if *table1 {
		runTable1()
		return
	}

	cfg, err := gemm.ByName(*kernel)
	if err != nil {
		fail(cli.Usagef("%v", err))
	}
	dev, err := devFlags.Load()
	if err != nil {
		fail(err)
	}
	if *full {
		*scale = 1
	}
	cfg.Device = device.Scaled(dev, *scale)
	cfg.MinThreadsPerMultiprocessor = *minThreads
	if *scale >= 8 && *minThreads == 256 {
		// Heavily scaled spaces cannot reach the full-space occupancy
		// floor; relax it in proportion so the funnel stays meaningful.
		cfg.MinThreadsPerMultiprocessor = 64
	}
	s, err := gemm.Space(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s on %s\n%s\n", cfg.Name(), cfg.Device.Name, s.Summary())

	if *compare {
		compareBackends(s, *planOpts, sweep.ChunkSize)
		return
	}
	if *funnel {
		prog, err := plan.Compile(s, *planOpts)
		if err != nil {
			fail(err)
		}
		eng, err := engine.NewCompiled(prog)
		if err != nil {
			fail(err)
		}
		st, err := eng.Run(*sweep)
		if err != nil {
			fail(err)
		}
		fmt.Print(viz.ASCIIFunnel(prog, st))
		return
	}

	prob := kernelsim.ProblemFor(cfg, *n)
	if *energy {
		tuner, err := autotune.NewWithOptions(s, nil, *planOpts)
		if err != nil {
			fail(err)
		}
		rep, err := tuner.RunPareto(map[string]autotune.Objective{
			"gflops": func(tuple []int64) float64 {
				k, _ := kernelsim.FromTuple(tuple)
				return kernelsim.EstimateGEMM(dev, k, prob).GFLOPS
			},
			"gflops_per_watt": func(tuple []int64) float64 {
				k, _ := kernelsim.FromTuple(tuple)
				return kernelsim.EstimateGEMMPower(dev, k, prob).GFLOPSPerWatt
			},
		}, cli.TuneOptions(sweep, run))
		if err != nil {
			fail(err)
		}
		front := rep.Front
		if len(front) > *topK {
			// Show the extremes plus evenly spaced interior points.
			step := float64(len(front)-1) / float64(*topK-1)
			sel := make([]autotune.MultiResult, 0, *topK)
			for i := 0; i < *topK; i++ {
				sel = append(sel, front[int(float64(i)*step+0.5)])
			}
			rep.Front = sel
		}
		fmt.Print(rep.Render(gemm.IterOrder))
		fmt.Printf("(%d total non-dominated points of %d survivors)\n", len(front), rep.Survivors)
		return
	}
	tuner, err := autotune.NewWithOptions(s, func(tuple []int64) float64 {
		k, err := kernelsim.FromTuple(tuple)
		if err != nil {
			return 0
		}
		return kernelsim.EstimateGEMM(dev, k, prob).GFLOPS
	}, *planOpts)
	if err != nil {
		fail(err)
	}
	ctx, stop := run.Context()
	defer stop()

	var rep *autotune.Report
	runOpts := cli.TuneOptions(sweep, run)
	runOpts.TopK, runOpts.Samples, runOpts.Seed = *topK, *samples, *seed
	switch *strategy {
	case "exhaustive":
		rep, err = tuner.RunContext(ctx, runOpts)
	case "sample":
		runOpts.Strategy = autotune.RandomSample
		rep, err = tuner.RunContext(ctx, runOpts)
	case "hillclimb":
		runOpts.Strategy = autotune.HillClimb
		rep, err = tuner.RunContext(ctx, runOpts)
	case "anneal":
		rep, err = tuner.RunAnnealContext(ctx, autotune.AnnealOptions{Options: runOpts})
	default:
		fail(cli.Usagef("unknown strategy %q (want exhaustive, sample, hillclimb, anneal)", *strategy))
	}
	if err != nil {
		if rep != nil {
			// A cancelled exhaustive run still carries the partial rankings.
			fmt.Print(rep.Render())
			run.Interrupted("gemm-tune", err)
		}
		fail(err)
	}
	fmt.Print(rep.Render())
	if len(rep.Best) > 0 {
		k, err := kernelsim.FromTuple(rep.Best[0].Tuple)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nwinner (N=%d):\n%s\n", *n, kernelsim.Explain(dev, k, prob))
	}
}

// compareBackends reproduces the §XI.B/D experiment: the same pruned sweep
// under the interpreted, bytecode, and compiled backends, reporting the
// speedup of generated code over the Python-model front end (the paper:
// 66948 s vs 264 s, a 253x ratio, at full scale).
func compareBackends(s *space.Space, planOpts plan.Options, chunk int) {
	prog, err := plan.Compile(s, planOpts)
	if err != nil {
		fail(err)
	}
	comp, err := engine.NewCompiled(prog)
	if err != nil {
		fail(err)
	}
	engines := []engine.Engine{engine.NewInterp(prog), engine.NewVM(prog), comp}
	fmt.Printf("%-10s %14s %14s %12s %10s\n", "backend", "visited", "survivors", "seconds", "Mit/s")
	var interpSec, compiledSec float64
	for _, e := range engines {
		start := time.Now()
		st, err := e.Run(engine.Options{ChunkSize: chunk})
		if err != nil {
			fail(err)
		}
		sec := time.Since(start).Seconds()
		fmt.Printf("%-10s %14d %14d %12.3f %10.1f\n",
			e.Name(), st.TotalVisits(), st.Survivors, sec,
			float64(st.TotalVisits())/sec/1e6)
		switch e.Name() {
		case "interp":
			interpSec = sec
		case "compiled":
			compiledSec = sec
		}
	}
	if compiledSec > 0 {
		fmt.Printf("\ncompiled-over-interpreted speedup: %.1fx (paper at full scale: 253x)\n",
			interpSec/compiledSec)
	}
}

func fail(err error) {
	cli.Fail("gemm-tune", err)
}

// runTable1 reproduces Table I: GEMM peak fraction, and the batched
// factorization improvements for small and medium sizes.
func runTable1() {
	dev := device.TeslaK40c()

	fmt.Println("Table I reproduction (modeled Tesla K40c):")
	fmt.Printf("%-52s %s\n", "Kernel name and type", "Improvement")

	// Row 1: GEMM as fraction of peak.
	cfg := gemm.Default()
	cfg.Device = device.Scaled(dev, 4)
	s, err := gemm.Space(cfg)
	if err != nil {
		fail(err)
	}
	prob := kernelsim.ProblemFor(cfg, 4096)
	tuner, err := autotune.New(s, func(tuple []int64) float64 {
		k, _ := kernelsim.FromTuple(tuple)
		return kernelsim.EstimateGEMM(dev, k, prob).GFLOPS
	})
	if err != nil {
		fail(err)
	}
	rep, err := tuner.Run(autotune.Options{Strategy: autotune.Exhaustive, TopK: 1, Workers: 8})
	if err != nil {
		fail(err)
	}
	frac := rep.Best[0].Score / kernelsim.PeakGFLOPS(dev, prob)
	fmt.Printf("%-52s %.0f%% of peak   (paper: 80%% of peak)\n", "GEMM [4]", 100*frac)

	// Rows 2-3: batched factorizations, small and medium.
	bestRatio := func(sizes []int64) float64 {
		best := 0.0
		for _, n := range sizes {
			bc := batched.DefaultConfig(n)
			bs, err := batched.Space(bc)
			if err != nil {
				fail(err)
			}
			bt, err := autotune.New(bs, func(tuple []int64) float64 {
				k, _ := batched.FromTuple(tuple)
				return batched.Estimate(dev, k, bc)
			})
			if err != nil {
				fail(err)
			}
			brep, err := bt.Run(autotune.Options{Strategy: autotune.Exhaustive, TopK: 1, Workers: 8})
			if err != nil {
				fail(err)
			}
			if len(brep.Best) == 0 {
				continue
			}
			if r := brep.Best[0].Score / batched.BaselineCuBLAS(dev, bc); r > best {
				best = r
			}
		}
		return best
	}
	small := bestRatio([]int64{8, 16, 24, 32})
	medium := bestRatio([]int64{64, 128, 192, 256})
	fmt.Printf("%-52s up to %.0f%%   (paper: up to 1000%%)\n",
		"Batched factorizations (small size) [5]", 100*small)
	fmt.Printf("%-52s up to %.0f%%   (paper: up to 300%%)\n",
		"Batched factorizations (medium size) [34],[35],[36]", 100*medium)
}
