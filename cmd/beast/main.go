// Command beast runs the search-space pipeline on a textual spec file (or
// the built-in GEMM model problem): plan the loop nest, show the
// dependency DAG, enumerate with any backend, and report the pruning
// funnel — the end-to-end flow of the paper's Figure 16 and §X.
//
// Examples:
//
//	beast -spec space.bst -describe
//	beast -spec space.bst -count -engine compiled -workers 8
//	beast -gemm dgemm_nn -scale 32 -funnel -svg prune.svg
//	beast -spec space.bst -dot | dot -Tpdf > dag.pdf
//	beast -spec space.bst -tuples 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/speclang"
	"repro/internal/viz"
)

func main() {
	src := cli.SourceFlags()
	planOpts := cli.PlanFlags()
	sweep := cli.SweepFlags(1)
	run := cli.RunFlags()
	prof := cli.ProfileFlags()
	var (
		describe   = flag.Bool("describe", false, "print the planned loop nest and exit")
		format     = flag.Bool("format", false, "re-render the space in the textual notation and exit")
		dot        = flag.Bool("dot", false, "print the dependency DAG in Graphviz format and exit")
		count      = flag.Bool("count", false, "enumerate and print statistics")
		funnel     = flag.Bool("funnel", false, "enumerate and print the pruning funnel")
		svgPath    = flag.String("svg", "", "write the radial pruning visualization to this file")
		tuples     = flag.Int64("tuples", 0, "print the first N surviving tuples")
		engineName = flag.String("engine", "compiled", "backend: interp, vm, compiled")
		protoName  = flag.String("protocol", "default", "loop protocol: default, while, range, xrange, repeat")
	)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	s, err := src.Load()
	if err != nil {
		fail(err)
	}
	src.Lint("beast", s, planOpts.TabulateBudget)
	if *format {
		text, err := speclang.Format(s)
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
		return
	}
	fmt.Println(s.Summary())

	prog, err := plan.Compile(s, *planOpts)
	if err != nil {
		fail(err)
	}
	if *describe {
		fmt.Print(prog.Describe())
		return
	}
	if *dot {
		fmt.Print(prog.Graph.DOT("beast space"))
		return
	}

	eng, err := pickEngine(*engineName, prog)
	if err != nil {
		fail(err)
	}
	proto, err := pickProtocol(*protoName)
	if err != nil {
		fail(err)
	}

	opts := *sweep
	opts.Protocol = proto
	if *tuples > 0 {
		// Tuples print in source declaration order, whatever nest the
		// planner chose.
		names := prog.TupleNames()
		fmt.Println(strings.Join(names, " "))
		shown := int64(0)
		opts.OnTuple = func(tu []int64) bool {
			parts := make([]string, len(tu))
			for i, v := range tu {
				parts[i] = fmt.Sprintf("%d", v)
			}
			fmt.Println(strings.Join(parts, " "))
			shown++
			return shown < *tuples
		}
		opts.Workers = 1 // deterministic order for display
	}

	if !*count && !*funnel && *svgPath == "" && *tuples == 0 {
		fmt.Print(prog.Describe())
		return
	}

	ctx, stop := run.Context()
	defer stop()
	if _, err := run.Attach(&opts, prog, eng.Name(), nil); err != nil {
		fail(err)
	}
	if res := opts.Resume; res != nil {
		fmt.Printf("resuming: %d of %d tiles already complete\n", res.CompletedTiles(), res.Tiles)
	}

	start := time.Now()
	st, runErr := eng.RunContext(ctx, opts)
	if runErr != nil && (st == nil || !st.Cancelled) {
		fail(runErr)
	}
	elapsed := time.Since(start)
	fmt.Printf("engine=%s protocol=%s workers=%d elapsed=%s\n",
		eng.Name(), proto, opts.Workers, elapsed.Round(time.Millisecond))
	if st.Tiles > 0 {
		fmt.Printf("schedule: split-depth=%d tiles=%d\n", st.SplitDepth, st.Tiles)
	}
	fmt.Printf("visited=%d survivors=%d pruned=%.4f%% (%.2fM iterations/s)\n",
		st.TotalVisits(), st.Survivors, 100*st.PruneRate(),
		float64(st.TotalVisits())/elapsed.Seconds()/1e6)
	if st.Cancelled {
		run.Interrupted("beast", fmt.Errorf("sweep cancelled: %w", runErr))
	}
	if len(prog.Temps) > 0 {
		fmt.Printf("expr optimizer: temps=%d evals=%d reuse-hits=%d exprops=%d\n",
			len(prog.Temps), st.TotalTempEvals(), st.TotalTempHits(), st.ExprOps(prog))
	}
	if st.ChunksEvaluated > 0 {
		fmt.Printf("chunked inner loop: chunk=%d chunks=%d lanes-masked=%d\n",
			opts.ChunkSize, st.ChunksEvaluated, st.LanesMasked)
	}
	if st.TabulatedChecks > 0 {
		fmt.Printf("constraint tabulation: %d checks from %d table bytes (%d row-cache hits)\n",
			st.TabulatedChecks, st.TableBytes, st.RowCacheHits)
	}
	if skipped := st.TotalIterationsSkipped(); skipped > 0 {
		fmt.Printf("bounds narrowing: %d iterations skipped (%.1f%% of %d would-be visits)\n",
			skipped, 100*float64(skipped)/float64(skipped+st.TotalVisits()), skipped+st.TotalVisits())
	}
	if ri := prog.Reorder; ri != nil && ri.Applied {
		fmt.Printf("loop reorder: %s  (declared %s; %s)\n",
			strings.Join(ri.Chosen, ","), strings.Join(ri.Declared, ","), ri)
	}
	if *funnel {
		fmt.Print(viz.ASCIIFunnel(prog, st))
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(viz.RadialSVG(prog, st)), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
}

func pickEngine(name string, prog *plan.Program) (engine.Engine, error) {
	switch name {
	case "interp":
		return engine.NewInterp(prog), nil
	case "vm":
		return engine.NewVM(prog), nil
	case "compiled":
		return engine.NewCompiled(prog)
	default:
		return nil, cli.Usagef("unknown engine %q (want interp, vm, compiled)", name)
	}
}

func pickProtocol(name string) (engine.Protocol, error) {
	switch name {
	case "default":
		return engine.ProtoDefault, nil
	case "while":
		return engine.ProtoWhile, nil
	case "range":
		return engine.ProtoRange, nil
	case "xrange":
		return engine.ProtoXRange, nil
	case "repeat":
		return engine.ProtoRepeat, nil
	default:
		return 0, cli.Usagef("unknown protocol %q", name)
	}
}

func fail(err error) {
	cli.Fail("beast", err)
}
