// Command batched-tune runs the BEAST recipe on the batched-factorization
// kernels of the paper's reference [5] — the workloads behind Table I's
// second and third rows. It tunes the batched Cholesky factorization and
// the batched triangular solve (TRSM) across a sweep of matrix sizes and
// reports each winner against the vendor-style baseline.
//
//	batched-tune                       # factorization, default size sweep
//	batched-tune -kernel trsm          # the solve
//	batched-tune -sizes 8,16,32 -batch 50000
package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/autotune"
	"repro/internal/batched"
	"repro/internal/cli"
	"repro/internal/device"
	"repro/internal/plan"
)

func main() {
	planOpts := cli.PlanFlags()
	sweep := cli.SweepFlags(8)
	run := cli.RunFlags()
	devFlags := cli.DeviceFlags()
	var (
		kernel = flag.String("kernel", "cholesky", "kernel: cholesky or trsm")
		sizes  = flag.String("sizes", "8,16,24,32,48,64,96,128,192,256", "comma-separated matrix sizes")
		batch  = flag.Int64("batch", 10000, "matrices per batch")
		nrhs   = flag.Int64("nrhs", 16, "right-hand sides (trsm)")
	)
	flag.Parse()

	dev, err := devFlags.Load()
	if err != nil {
		fail(err)
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		fail(cli.Usagef("%v", err))
	}
	if run.Enabled() && len(ns) != 1 {
		// One checkpoint file maps to one enumeration; a multi-size sweep
		// would overwrite it on every row.
		fail(cli.Usagef("-checkpoint/-resume require a single -sizes value, got %d", len(ns)))
	}
	ctx, stop := run.Context()
	defer stop()
	tune := cli.TuneOptions(sweep, run)
	tune.TopK = 1

	fmt.Printf("batched %s on %s, batch=%d\n\n", *kernel, dev.Name, *batch)
	fmt.Printf("%5s %10s %12s %12s %9s   %s\n",
		"n", "survivors", "tuned GF/s", "baseline", "speedup", "winning kernel")

	for _, n := range ns {
		switch *kernel {
		case "cholesky":
			runCholesky(ctx, dev, n, *batch, *planOpts, tune, run)
		case "trsm":
			runTRSM(ctx, dev, n, *nrhs, *batch, *planOpts, tune, run)
		default:
			fail(cli.Usagef("unknown kernel %q (want cholesky or trsm)", *kernel))
		}
	}
	fmt.Println("\n(speedup is Table I's 'Improvement': paper reports up to 1000% small, 300% medium)")
}

func runCholesky(ctx context.Context, dev *device.Properties, n, batch int64, planOpts plan.Options, tune autotune.Options, run *cli.Run) {
	cfg := batched.DefaultConfig(n)
	cfg.Batch = batch
	cfg.Device = dev
	s, err := batched.Space(cfg)
	if err != nil {
		fail(err)
	}
	tuner, err := autotune.NewWithOptions(s, func(tuple []int64) float64 {
		k, err := batched.FromTuple(tuple)
		if err != nil {
			return 0
		}
		return batched.Estimate(dev, k, cfg)
	}, planOpts)
	if err != nil {
		fail(err)
	}
	rep := runTuner(ctx, tuner, tune, run)
	if len(rep.Best) == 0 {
		fmt.Printf("%5d %10d %12s %12s %9s   no feasible kernels\n", n, rep.Survivors, "-", "-", "-")
		return
	}
	k, _ := batched.FromTuple(rep.Best[0].Tuple)
	base := batched.BaselineCuBLAS(dev, cfg)
	fmt.Printf("%5d %10d %12.1f %12.1f %8.2fx   nb=%d dim_x=%d mpb=%d unroll=%d\n",
		n, rep.Survivors, rep.Best[0].Score, base, rep.Best[0].Score/base,
		k.NB, k.DimX, k.MPB, k.Unroll)
}

func runTRSM(ctx context.Context, dev *device.Properties, n, nrhs, batch int64, planOpts plan.Options, tune autotune.Options, run *cli.Run) {
	cfg := batched.DefaultTRSMConfig(n)
	cfg.NRHS = nrhs
	cfg.Batch = batch
	cfg.Device = dev
	s, err := batched.TRSMSpace(cfg)
	if err != nil {
		fail(err)
	}
	tuner, err := autotune.NewWithOptions(s, func(tuple []int64) float64 {
		k, err := batched.TRSMFromTuple(tuple)
		if err != nil {
			return 0
		}
		return batched.EstimateTRSM(dev, k, cfg)
	}, planOpts)
	if err != nil {
		fail(err)
	}
	rep := runTuner(ctx, tuner, tune, run)
	if len(rep.Best) == 0 {
		fmt.Printf("%5d %10d %12s %12s %9s   no feasible kernels\n", n, rep.Survivors, "-", "-", "-")
		return
	}
	k, _ := batched.TRSMFromTuple(rep.Best[0].Tuple)
	base := batched.BaselineTRSM(dev, cfg)
	fmt.Printf("%5d %10d %12.1f %12.1f %8.2fx   nb=%d dim_x=%d dim_rhs=%d mpb=%d\n",
		n, rep.Survivors, rep.Best[0].Score, base, rep.Best[0].Score/base,
		k.NB, k.DimX, k.DimRHS, k.MPB)
}

// runTuner runs one size's tuning. Only a cancelled run returns its
// partial report, and only then has the checkpoint saved progress to
// resume; any other error (a checkpoint that cannot be written, a -resume
// file from another run) exits without the resume hint.
func runTuner(ctx context.Context, tuner *autotune.Tuner, tune autotune.Options, run *cli.Run) *autotune.Report {
	rep, err := tuner.RunContext(ctx, tune)
	if err != nil {
		if rep != nil {
			run.Interrupted("batched-tune", err)
		}
		fail(err)
	}
	return rep
}

func parseSizes(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

func fail(err error) {
	cli.Fail("batched-tune", err)
}
