// Benchmark harness for the paper's evaluation section. One benchmark
// family per figure/table:
//
//	Figure 17  BenchmarkFig17Interp   — Python-model interpreter, loop
//	                                    protocols while/range/xrange, depth 1-4
//	Figure 18  BenchmarkFig18VM       — Lua-model bytecode VM, protocols
//	                                    while/repeat/for, depth 1-4
//	Figure 19  BenchmarkFig19Native   — closure-compiled, AOT-generated Go,
//	                                    and hand-written nests, depth 1-4
//	§XI.B/D    BenchmarkGEMMSweep     — the pruned GEMM sweep under every
//	                                    backend (the 253x headline)
//	§X.B       BenchmarkGEMMSweepParallel — multithreaded outer-loop split
//	Table I    BenchmarkTableI*       — end-to-end autotuning runs
//	ablations  BenchmarkAblation*     — hoisting and folding switched off
//	plan time  BenchmarkPlanCompile   — plan.Compile with and without the
//	                                    loop-order optimizer, per space family
//
// Report iterations/second by dividing the per-op iteration counts (logged
// via b.ReportMetric as "Mit/s") — the paper's quantity of merit.
package beast

import (
	"fmt"
	"testing"

	"repro/internal/autotune"
	"repro/internal/batched"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/families"
	"repro/internal/gemm"
	"repro/internal/gensweep"
	"repro/internal/kernelsim"
	"repro/internal/loopbench"
	"repro/internal/plan"
	"repro/internal/space"
)

// benchTotal keeps a single benchmark op around a few milliseconds on the
// interpreter; the figures compare rates, which are scale-free.
const benchTotal = 1_000_000

func compileLoopbench(b *testing.B, depth int) *plan.Program {
	b.Helper()
	prog, err := plan.Compile(loopbench.Space(depth, benchTotal), plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func runLoopBench(b *testing.B, e engine.Engine, proto engine.Protocol, iters int64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		st, err := e.Run(engine.Options{Protocol: proto})
		if err != nil {
			b.Fatal(err)
		}
		if st.Survivors != iters {
			b.Fatalf("ran %d innermost iterations, want %d", st.Survivors, iters)
		}
	}
	b.ReportMetric(float64(iters)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
}

// BenchmarkFig17Interp is Figure 17: the interpreter's loop-protocol
// variants. Expect while < range < xrange, as in the paper's Python.
func BenchmarkFig17Interp(b *testing.B) {
	variants := []struct {
		name  string
		proto engine.Protocol
	}{
		{"while", engine.ProtoWhile},
		{"range", engine.ProtoRange},
		{"xrange", engine.ProtoXRange},
	}
	for _, v := range variants {
		for depth := 1; depth <= loopbench.MaxDepth; depth++ {
			b.Run(fmt.Sprintf("%s/depth%d", v.name, depth), func(b *testing.B) {
				prog := compileLoopbench(b, depth)
				runLoopBench(b, engine.NewInterp(prog), v.proto, loopbench.Iterations(depth, benchTotal))
			})
		}
	}
}

// BenchmarkFig18VM is Figure 18: the bytecode VM's loop-protocol variants.
// Expect while < repeat <= for, as in the paper's Lua.
func BenchmarkFig18VM(b *testing.B) {
	variants := []struct {
		name  string
		proto engine.Protocol
	}{
		{"while", engine.ProtoWhile},
		{"repeat", engine.ProtoRepeat},
		{"for", engine.ProtoXRange},
	}
	for _, v := range variants {
		for depth := 1; depth <= loopbench.MaxDepth; depth++ {
			b.Run(fmt.Sprintf("%s/depth%d", v.name, depth), func(b *testing.B) {
				prog := compileLoopbench(b, depth)
				runLoopBench(b, engine.NewVM(prog), v.proto, loopbench.Iterations(depth, benchTotal))
			})
		}
	}
}

// BenchmarkFig19Native is Figure 19: compiled backends. "closure" is the
// runtime closure compiler, "generated" the ahead-of-time generated Go
// committed in internal/gensweep (the paper's generated-C analogue, fixed
// at its 10^7-iteration workload), "hand" the hand-written ceiling.
func BenchmarkFig19Native(b *testing.B) {
	for depth := 1; depth <= loopbench.MaxDepth; depth++ {
		b.Run(fmt.Sprintf("closure/depth%d", depth), func(b *testing.B) {
			prog := compileLoopbench(b, depth)
			comp, err := engine.NewCompiled(prog)
			if err != nil {
				b.Fatal(err)
			}
			runLoopBench(b, comp, engine.ProtoDefault, loopbench.Iterations(depth, benchTotal))
		})
	}
	generated := []func() int64{
		func() int64 { st := gensweep.Loops1(nil); return st.Survivors },
		func() int64 { st := gensweep.Loops2(nil); return st.Survivors },
		func() int64 { st := gensweep.Loops3(nil); return st.Survivors },
		func() int64 { st := gensweep.Loops4(nil); return st.Survivors },
	}
	for depth := 1; depth <= loopbench.MaxDepth; depth++ {
		b.Run(fmt.Sprintf("generated/depth%d", depth), func(b *testing.B) {
			want := loopbench.Iterations(depth, gensweep.LoopTotal)
			var iters int64
			for i := 0; i < b.N; i++ {
				iters = generated[depth-1]()
				if iters != want {
					b.Fatalf("generated nest ran %d, want %d", iters, want)
				}
			}
			b.ReportMetric(float64(iters)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
		})
	}
	for depth := 1; depth <= loopbench.MaxDepth; depth++ {
		b.Run(fmt.Sprintf("hand/depth%d", depth), func(b *testing.B) {
			var iters, sink int64
			for i := 0; i < b.N; i++ {
				it, cs := loopbench.HandNest(depth, benchTotal)
				iters, sink = it, sink+cs
			}
			if sink == 0 && iters > 0 {
				b.Log("checksum zero") // keep sink live
			}
			b.ReportMetric(float64(iters)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
		})
	}
}

func gemmBenchProgram(b *testing.B) *plan.Program {
	b.Helper()
	s, err := gemm.Space(gensweep.GEMMConfig())
	if err != nil {
		b.Fatal(err)
	}
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkGEMMSweep is the §XI.B/D headline experiment: the full pruned
// GEMM enumeration under each backend. The paper measured 66948 s
// (Python) vs 264 s (generated C) at full scale — a 253x ratio; compare
// the interp and generated rows here for this repository's ratio.
func BenchmarkGEMMSweep(b *testing.B) {
	prog := gemmBenchProgram(b)
	comp, err := engine.NewCompiled(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []engine.Engine{engine.NewInterp(prog), engine.NewVM(prog), comp} {
		b.Run(e.Name(), func(b *testing.B) {
			var visits int64
			for i := 0; i < b.N; i++ {
				st, err := e.Run(engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				visits = st.TotalVisits()
			}
			b.ReportMetric(float64(visits)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
		})
	}
	b.Run("generated", func(b *testing.B) {
		var visits int64
		for i := 0; i < b.N; i++ {
			st := gensweep.DGEMM32(nil)
			visits = 0
			for _, v := range st.Visits {
				visits += v
			}
		}
		b.ReportMetric(float64(visits)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
	})
}

// BenchmarkGEMMSweepParallel is the §X.B multithreading claim: prefix-tile
// scheduling across workers on the pruned GEMM sweep.
func BenchmarkGEMMSweepParallel(b *testing.B) {
	prog := gemmBenchProgram(b)
	comp, err := engine.NewCompiled(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := comp.Run(engine.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelScaling measures the dynamic scheduler on a deliberately
// skewed space: a hard constraint kills three of the four outermost values
// immediately, so almost all enumeration work hides under one outer value.
// A static split of the outermost loop strands most workers on empty
// shares; prefix tiling below the skewed level keeps them fed.
func BenchmarkParallelScaling(b *testing.B) {
	s := NewSpace()
	s.IntList("o", 0, 1, 2, 3)
	s.Range("a", Int(0), Int(120))
	s.Range("bb", Int(0), Int(120))
	s.Range("c", Int(0), Int(40))
	// Kills every o > 0 subtree at the second level: ~1/4 of the outer
	// values carry ~100% of the work.
	s.Constrain("skew", Hard, And(Gt(Ref("o"), Int(0)), Ge(Ref("a"), Int(0))))
	s.Constrain("inner", Soft,
		Ne(Mod(Add(Add(Ref("a"), Ref("bb")), Ref("c")), Int(7)), Int(0)))
	prog, err := Compile(s, PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	comp, err := NewCompiled(prog)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var visits int64
			for i := 0; i < b.N; i++ {
				st, err := comp.Run(RunOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				visits = st.TotalVisits()
			}
			b.ReportMetric(float64(visits)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
		})
	}
}

// BenchmarkTableIGEMMTune is Table I row 1 end to end: prune + rank every
// surviving kernel with the performance model.
func BenchmarkTableIGEMMTune(b *testing.B) {
	cfg := gensweep.GEMMConfig()
	s, err := gemm.Space(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dev := device.TeslaK40c()
	prob := kernelsim.ProblemFor(cfg, 4096)
	tuner, err := autotune.New(s, func(tuple []int64) float64 {
		k, _ := kernelsim.FromTuple(tuple)
		return kernelsim.EstimateGEMM(dev, k, prob).GFLOPS
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := tuner.Run(autotune.Options{Strategy: autotune.Exhaustive, TopK: 1, Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIBatched is Table I rows 2-3: the batched-Cholesky tuning
// runs for a small and a medium size.
func BenchmarkTableIBatched(b *testing.B) {
	dev := device.TeslaK40c()
	for _, n := range []int64{16, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			cfg := batched.DefaultConfig(n)
			s, err := batched.Space(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tuner, err := autotune.New(s, func(tuple []int64) float64 {
				k, _ := batched.FromTuple(tuple)
				return batched.Estimate(dev, k, cfg)
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := tuner.Run(autotune.Options{Strategy: autotune.Exhaustive, TopK: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ablationSpace is sized so the unhoisted cross-product stays tractable.
func ablationSpace(b *testing.B) *Space {
	b.Helper()
	s := NewSpace()
	s.IntSetting("n", 40)
	s.Range("a", Int(1), Add(Ref("n"), Int(1)))
	s.Range("bb", Int(1), Add(Ref("n"), Int(1)))
	s.Range("c", Int(1), Add(Ref("n"), Int(1)))
	s.Derived("ab", Mul(Ref("a"), Ref("bb")))
	s.Constrain("k1", Hard, Gt(Ref("ab"), Int(400)))
	s.Constrain("k2", Soft, Ne(Mod(Ref("a"), Int(4)), Int(0)))
	s.Constrain("k3", Correctness, Ne(Mod(Ref("c"), Ref("a")), Int(0)))
	return s
}

// BenchmarkAblationHoisting quantifies the DAG-based hoisting the paper's
// contribution (3) claims: identical survivors, massively fewer checks.
func BenchmarkAblationHoisting(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"hoisted", false}, {"unhoisted", true}} {
		b.Run(tc.name, func(b *testing.B) {
			prog, err := Compile(ablationSpace(b), PlanOptions{DisableHoisting: tc.disable})
			if err != nil {
				b.Fatal(err)
			}
			comp, err := NewCompiled(prog)
			if err != nil {
				b.Fatal(err)
			}
			var visits int64
			for i := 0; i < b.N; i++ {
				st, err := comp.Run(RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				visits = st.TotalVisits()
			}
			b.ReportMetric(float64(visits), "visits/op")
		})
	}
}

// csePressureSpace is a space whose inner-loop steps repeat one large
// subexpression several times — the structural best case for CSE, with
// the sharing on the hot (innermost) level rather than GEMM's cold ones.
func csePressureSpace() *Space {
	s := NewSpace()
	shared := func() Expr {
		return Add(Add(Mul(Ref("a"), Ref("bb")), Mul(Ref("bb"), Ref("cc"))),
			Mul(Ref("a"), Ref("cc")))
	}
	s.Range("a", Int(1), Int(40))
	s.Range("bb", Int(1), Int(40))
	s.Range("cc", Int(1), Int(40))
	s.Derived("load", shared())
	s.Constrain("k1", Soft, Eq(Mod(shared(), Int(7)), Int(0)))
	s.Constrain("k2", Soft, Gt(Add(shared(), Ref("cc")), Int(4200)))
	return s
}

// BenchmarkExprOptimizer quantifies the plan-time expression optimizer
// (CSE + subexpression-level invariant hoisting): identical survivors,
// measurably fewer expression-tree nodes evaluated. exprops/op is
// Stats.ExprOps — the per-run count of expression nodes the backend
// walked — and temphits/op counts the subexpression evaluations the
// optimizer's temps replaced. The gemm rows run the full 15-dim pruned
// enumeration, where the shareable subtrees sit on lightly-visited
// levels (the win shows in exprops, wall clock is at parity); the shared
// rows put one large repeated subexpression on the innermost level, the
// structural best case, where the interp's wall clock drops too.
func BenchmarkExprOptimizer(b *testing.B) {
	spaces := []struct {
		name  string
		build func() (*Space, error)
	}{
		{"gemm", func() (*Space, error) { return gemm.Space(gensweep.GEMMConfig()) }},
		{"shared", func() (*Space, error) { return csePressureSpace(), nil }},
	}
	for _, sp := range spaces {
		for _, tc := range []struct {
			name    string
			disable bool
		}{{"cse", false}, {"nocse", true}} {
			s, err := sp.build()
			if err != nil {
				b.Fatal(err)
			}
			prog, err := plan.Compile(s, plan.Options{DisableCSE: tc.disable})
			if err != nil {
				b.Fatal(err)
			}
			comp, err := engine.NewCompiled(prog)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range []engine.Engine{engine.NewInterp(prog), comp} {
				b.Run(sp.name+"/"+e.Name()+"/"+tc.name, func(b *testing.B) {
					var st *engine.Stats
					for i := 0; i < b.N; i++ {
						var err error
						st, err = e.Run(engine.Options{})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(st.ExprOps(prog)), "exprops/op")
					b.ReportMetric(float64(st.TotalTempHits()), "temphits/op")
				})
			}
		}
	}
}

// chunkPressureSpace puts residual (non-narrowable) work on a long
// innermost loop: a derived temp recomputed per innermost value plus two
// modulus checks bounds compilation cannot absorb. This is the structural
// best case for chunked evaluation — the per-iteration dispatch overhead
// the chunk amortizes dominates the actual arithmetic.
func chunkPressureSpace() *Space {
	s := NewSpace()
	s.Range("a", Int(1), Int(24))
	s.Range("bb", Int(1), Int(24))
	s.Range("cc", Int(1), Int(512))
	s.Derived("load", Add(Mul(Ref("a"), Ref("cc")), Mul(Ref("bb"), Ref("cc"))))
	s.Constrain("k1", Soft, Ne(Mod(Ref("load"), Int(7)), Int(0)))
	s.Constrain("k2", Soft, Ne(Mod(Add(Ref("load"), Ref("cc")), Int(13)), Int(3)))
	return s
}

// BenchmarkChunkedInner sweeps the innermost-loop chunk size across every
// backend: chunk=1 is the scalar baseline, larger sizes batch-evaluate the
// innermost steps over a survivor bitmask (one dispatch per chunk instead
// of one per iteration). The dense rows run the synthetic hot loop above;
// the gemm rows run the full pruned GEMM sweep, whose innermost level is
// mostly absorbed by bounds narrowing — the realistic (small-win) case.
// Survivors and kill counts are identical at every chunk size; only the
// rate moves.
func BenchmarkChunkedInner(b *testing.B) {
	spaces := []struct {
		name  string
		build func() (*Space, error)
	}{
		{"dense", func() (*Space, error) { return chunkPressureSpace(), nil }},
		{"gemm", func() (*Space, error) { return gemm.Space(gensweep.GEMMConfig()) }},
	}
	for _, sp := range spaces {
		s, err := sp.build()
		if err != nil {
			b.Fatal(err)
		}
		prog, err := plan.Compile(s, plan.Options{})
		if err != nil {
			b.Fatal(err)
		}
		comp, err := engine.NewCompiled(prog)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range []engine.Engine{engine.NewInterp(prog), engine.NewVM(prog), comp} {
			for _, chunk := range []int{1, 8, 64, 256} {
				b.Run(fmt.Sprintf("%s/%s/chunk%d", sp.name, e.Name(), chunk), func(b *testing.B) {
					var st *engine.Stats
					for i := 0; i < b.N; i++ {
						var err error
						st, err = e.Run(engine.Options{ChunkSize: chunk})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(st.TotalVisits())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
					b.ReportMetric(float64(st.ChunksEvaluated), "chunks/op")
				})
			}
		}
	}
}

// tabPressureSpace puts dense tabulatable checks on a long innermost
// loop: three unary modulus checks over the inner iterator plus one
// binary check over inner x outer, none of which bounds compilation can
// absorb (modulus predicates are not monotone). This is the structural
// best case for constraint tabulation — every innermost check becomes a
// word-wise AND against a precomputed bitset instead of an expression
// evaluation per live lane.
func tabPressureSpace() *Space {
	s := NewSpace()
	s.Range("a", Int(1), Int(24))
	s.Range("bb", Int(1), Int(24))
	s.Range("cc", Int(1), Int(512))
	s.Constrain("u7", Soft, Ne(Mod(Ref("cc"), Int(7)), Int(0)))
	s.Constrain("u11", Soft, Ne(Mod(Ref("cc"), Int(11)), Int(0)))
	s.Constrain("u13", Soft, Ne(Mod(Ref("cc"), Int(13)), Int(0)))
	s.Constrain("bin17", Soft, Ne(Mod(Add(Ref("bb"), Ref("cc")), Int(17)), Int(0)))
	return s
}

// BenchmarkConstraintTabulation quantifies plan-time constraint
// tabulation: hoisted innermost pruning checks replaced by bitset lookup
// tables, intersected word-wise with the survivor mask. The dense rows
// run the synthetic hot loop above, where every check tabulates; the gemm
// rows run the full 12-constraint pruned GEMM sweep, where narrowing
// absorbs most innermost work first (the realistic, small-win case).
// Survivors and per-constraint kill counts are bit-identical between the
// tab and notab rows — only the rate moves. tabchecks/op counts the
// checks answered from tables. The dense rows pin the declared order:
// left to itself the loop-order optimizer hoists the selective cc loop
// outermost (dissolving the innermost checks tabulation targets), which
// is the right call for total visits but hides the effect under measure.
func BenchmarkConstraintTabulation(b *testing.B) {
	spaces := []struct {
		name  string
		build func() (*Space, error)
		opts  plan.Options
	}{
		{"dense", func() (*Space, error) { return tabPressureSpace(), nil },
			plan.Options{DisableReorder: true}},
		{"gemm", func() (*Space, error) { return gemm.Space(gensweep.GEMMConfig()) },
			plan.Options{}},
	}
	for _, sp := range spaces {
		for _, tc := range []struct {
			name    string
			disable bool
		}{{"tab", false}, {"notab", true}} {
			s, err := sp.build()
			if err != nil {
				b.Fatal(err)
			}
			opts := sp.opts
			opts.DisableTabulation = tc.disable
			prog, err := plan.Compile(s, opts)
			if err != nil {
				b.Fatal(err)
			}
			comp, err := engine.NewCompiled(prog)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range []engine.Engine{engine.NewInterp(prog), engine.NewVM(prog), comp} {
				b.Run(sp.name+"/"+e.Name()+"/"+tc.name, func(b *testing.B) {
					var st *engine.Stats
					for i := 0; i < b.N; i++ {
						var err error
						st, err = e.Run(engine.Options{ChunkSize: 64})
						if err != nil {
							b.Fatal(err)
						}
					}
					if sp.name == "dense" && !tc.disable && st.TabulatedChecks == 0 {
						b.Fatal("dense workload ran without tables engaged")
					}
					b.ReportMetric(float64(st.TotalVisits())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
					b.ReportMetric(float64(st.TabulatedChecks), "tabchecks/op")
				})
			}
		}
	}
}

// narrowPressureSpace puts absorbable monotone constraints on the hot
// innermost level: a lower bound tied to the outer iterator and a
// monotone product cap. Bounds compilation turns both into loop-range
// arithmetic, so the narrowed run never visits the iterations the
// unnarrowed run visits only to kill.
func narrowPressureSpace() *Space {
	s := NewSpace()
	s.Range("a", Int(1), Int(120))
	s.Range("bb", Int(1), Int(120))
	s.Range("c", Int(1), Int(120))
	s.Constrain("floor", Hard, Ge(Ref("c"), Ref("a")))
	s.Constrain("cap", Hard, Le(Mul(Ref("c"), Ref("bb")), Int(3000)))
	return s
}

// BenchmarkBoundsNarrowing quantifies bounds compilation (plan-time
// interval propagation plus runtime monotone range narrowing): identical
// survivors and kill counts, far fewer iterations visited. visits/op is
// the iteration count the backend actually entered; skipped/op is the
// count the narrowed ranges proved dead without visiting. The dense rows
// run the synthetic hot loop above; the gemm rows run the full 15-dim
// pruned GEMM sweep, where narrowing absorbs the thread-dim and capacity
// constraints near the root of the nest.
func BenchmarkBoundsNarrowing(b *testing.B) {
	spaces := []struct {
		name  string
		build func() (*Space, error)
	}{
		{"dense", func() (*Space, error) { return narrowPressureSpace(), nil }},
		{"gemm", func() (*Space, error) { return gemm.Space(gensweep.GEMMConfig()) }},
	}
	for _, sp := range spaces {
		for _, tc := range []struct {
			name    string
			disable bool
		}{{"narrow", false}, {"nonarrow", true}} {
			s, err := sp.build()
			if err != nil {
				b.Fatal(err)
			}
			prog, err := plan.Compile(s, plan.Options{DisableNarrowing: tc.disable})
			if err != nil {
				b.Fatal(err)
			}
			comp, err := engine.NewCompiled(prog)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range []engine.Engine{engine.NewInterp(prog), comp} {
				b.Run(sp.name+"/"+e.Name()+"/"+tc.name, func(b *testing.B) {
					var st *engine.Stats
					for i := 0; i < b.N; i++ {
						var err error
						st, err = e.Run(engine.Options{})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(st.TotalVisits()), "visits/op")
					b.ReportMetric(float64(st.TotalIterationsSkipped()), "skipped/op")
				})
			}
		}
	}
}

// BenchmarkAblationFolding quantifies plan-time specialization: the same
// space interpreted with and without setting constants folded into the
// expressions. Only the interpreter can run the unfolded program (strings
// survive in it), which is itself the point.
func BenchmarkAblationFolding(b *testing.B) {
	mk := func() *Space {
		s := NewSpace()
		s.IntSetting("n", 150)
		s.StrSetting("mode", "fast")
		s.Range("a", Int(1), Add(Ref("n"), Int(1)))
		s.Range("bb", Int(1), Add(Ref("n"), Int(1)))
		s.Derived("v", If(Eq(Ref("mode"), Str("fast")),
			Mul(Ref("a"), Ref("bb")), Add(Ref("a"), Ref("bb"))))
		s.Constrain("k", Soft, Ne(Mod(Ref("v"), Int(7)), Int(0)))
		return s
	}
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"folded", false}, {"unfolded", true}} {
		b.Run(tc.name, func(b *testing.B) {
			prog, err := Compile(mk(), PlanOptions{DisableFolding: tc.disable})
			if err != nil {
				b.Fatal(err)
			}
			in := NewInterp(prog)
			for i := 0; i < b.N; i++ {
				if _, err := in.Run(RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInterpAllocSteadyState pins the interpreter's allocation behaviour:
// after the first run warms the per-engine scratch buffers (environment,
// range/argument staging, chunk lanes), repeated runs of the same engine
// must not allocate per visited iteration. The bound is a small constant
// per run — regressing to even one allocation per iteration would put the
// figure in the tens of thousands for this space.
func TestInterpAllocSteadyState(t *testing.T) {
	prog, err := Compile(chunkPressureSpace(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 64} {
		in := NewInterp(prog)
		if _, err := in.Run(RunOptions{ChunkSize: chunk}); err != nil {
			t.Fatal(err) // warm-up run owns the one-time scratch allocations
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := in.Run(RunOptions{ChunkSize: chunk}); err != nil {
				t.Fatal(err)
			}
		})
		// Per-run bookkeeping (Stats, narrowing state) is allowed;
		// per-iteration churn is not. ~295k visits in this space.
		if allocs > 64 {
			t.Errorf("chunk=%d: interpreter allocates %.0f times per run; want O(1) bookkeeping only", chunk, allocs)
		}
	}
}

// reverseDeclared rebuilds a space with its iterators declared in reverse:
// the stable topological order the planner preserves then becomes "as
// reversed as the DAG allows" — the adversarial declaration the loop-order
// optimizer is supposed to recover from.
func reverseDeclared(src *space.Space) *space.Space {
	rs := space.New()
	for _, name := range src.Settings() {
		v, _ := src.SettingValue(name)
		rs.Setting(name, v)
	}
	iters := src.Iterators()
	for i := len(iters) - 1; i >= 0; i-- {
		rs.AddIterator(iters[i])
	}
	for _, d := range src.DerivedVars() {
		rs.Derived(d.Name, d.Expr)
	}
	for _, c := range src.Constraints() {
		rs.Constrain(c.Name, c.Class, c.Pred)
	}
	return rs
}

// BenchmarkLoopReorder measures the selectivity-driven loop-order optimizer
// (plan/reorder.go). The scaled GEMM space runs under its well-declared
// order (the optimizer must keep it — the margin guard), under an
// adversarially reversed declaration pinned with -no-reorder semantics,
// and under the optimizer's automatic recovery from that reversal. The
// Fig17 loop nests ride along as a constraint-free control. visits/op is
// the quantity the optimizer minimizes; compare reversed/declared against
// reversed/auto for the recovery factor.
func BenchmarkLoopReorder(b *testing.B) {
	gemmSpace := func() *space.Space {
		s, err := gemm.Space(gensweep.GEMMConfig())
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	// The reversed-declaration cases use a smaller device shape: the whole
	// point of the adversarial order is that it explodes the visit count
	// (~2.0e9 at the committed scale 32, nearly a minute per op). Scaled
	// clamps thread dims at 32, so shrink them directly.
	smallSpace := func() *space.Space {
		cfg := gensweep.GEMMConfig()
		dev := *cfg.Device
		dev.MaxThreadsDimX, dev.MaxThreadsDimY = 16, 16
		cfg.Device = &dev
		s, err := gemm.Space(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name     string
		build    func() *space.Space
		opts     plan.Options
		backends bool // all three backends, not just compiled
	}{
		{"gemm/declared", gemmSpace, plan.Options{DisableReorder: true}, true},
		{"gemm/auto", gemmSpace, plan.Options{}, true},
		{"gemm-reversed/declared", func() *space.Space { return reverseDeclared(smallSpace()) },
			plan.Options{DisableReorder: true}, false},
		{"gemm-reversed/auto", func() *space.Space { return reverseDeclared(smallSpace()) },
			plan.Options{}, false},
	}
	for _, tc := range cases {
		prog, err := plan.Compile(tc.build(), tc.opts)
		if err != nil {
			b.Fatal(err)
		}
		comp, err := engine.NewCompiled(prog)
		if err != nil {
			b.Fatal(err)
		}
		engines := []engine.Engine{comp}
		if tc.backends {
			engines = []engine.Engine{engine.NewInterp(prog), engine.NewVM(prog), comp}
		}
		for _, e := range engines {
			b.Run(tc.name+"/"+e.Name(), func(b *testing.B) {
				var st *engine.Stats
				for i := 0; i < b.N; i++ {
					var err error
					st, err = e.Run(engine.Options{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.TotalVisits()), "visits/op")
				b.ReportMetric(float64(st.TotalVisits())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
			})
		}
	}
	// Fig17 loop-nest control: no constraints, so the optimizer must leave
	// the declared nest alone and cost nothing at run time.
	for depth := 1; depth <= 4; depth++ {
		for _, mode := range []struct {
			name string
			opts plan.Options
		}{{"declared", plan.Options{DisableReorder: true}}, {"auto", plan.Options{}}} {
			prog, err := plan.Compile(loopbench.Space(depth, benchTotal), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			comp, err := engine.NewCompiled(prog)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("loops%d/%s/compiled", depth, mode.name), func(b *testing.B) {
				var st *engine.Stats
				for i := 0; i < b.N; i++ {
					var err error
					st, err = comp.Run(engine.Options{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.TotalVisits()), "visits/op")
				b.ReportMetric(float64(st.TotalVisits())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mit/s")
			})
		}
	}
}

// planFamilies returns the space families BenchmarkPlanCompile compiles:
// four GEMM variants at scale 32, 32 batched-Cholesky sizes spread over
// [8, 512], and four stencil and four dense-inner specs.
func planFamilies(b *testing.B) []struct {
	name   string
	spaces []*space.Space
} {
	b.Helper()
	must := func(s *space.Space, err error) *space.Space {
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	var gemms, batch, stencils, denses []*space.Space
	for _, name := range []string{"sgemm_nn", "dgemm_nn", "cgemm_nn", "zgemm_nn"} {
		gemms = append(gemms, must(families.GEMM(name, 32)))
	}
	for i := int64(0); i < 32; i++ {
		batch = append(batch, must(families.Batched(8+i*504/32)))
	}
	for _, dim := range []int64{129, 257} {
		for _, elem := range []int64{4, 8} {
			stencils = append(stencils, must(families.Stencil(dim, elem)))
		}
	}
	for _, n := range []int64{1024, 1536, 2048, 2560} {
		denses = append(denses, must(families.Dense(n)))
	}
	return []struct {
		name   string
		spaces []*space.Space
	}{{"gemm", gemms}, {"batched", batch}, {"stencil", stencils}, {"dense", denses}}
}

// BenchmarkPlanCompile measures plan-time cost: one op compiles every
// space of a family. auto runs the loop-order optimizer (the default),
// declared skips it (DisableReorder), so auto/declared is the optimizer's
// plan-time overhead.
func BenchmarkPlanCompile(b *testing.B) {
	for _, fam := range planFamilies(b) {
		for _, mode := range []struct {
			name string
			opts plan.Options
		}{{"auto", plan.Options{}}, {"declared", plan.Options{DisableReorder: true}}} {
			b.Run(fam.name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, s := range fam.spaces {
						if _, err := plan.Compile(s, mode.opts); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkSpecParse measures the front-end cost of the textual notation:
// parsing and validating a mid-sized spec.
func BenchmarkSpecParse(b *testing.B) {
	src := `
setting n = 64
setting warp = 32
a = range(1, n + 1)
bb = range(a, n + 1, a)
c = union(range(2, 9), [16, 32])
let v = a * bb + c
constraint hard h: v > n * n
constraint soft s: v % warp != 0
`
	for i := 0; i < b.N; i++ {
		if _, err := ParseSpec(src); err != nil {
			b.Fatal(err)
		}
	}
}
