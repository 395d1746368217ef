package main

// Workload inputs. Each workload turns its seed into a list of sessions:
// spaces a user would set up and sweep, as spec text or through the Go
// builders. The seed changes the spaces and their survivor sets, never
// the amount of work in a rep: every parameter that moves cost by more
// than a few percent is fixed per session slot, and the seed draws only
// values whose effect on cost averages out across a rep. Regression checks
// compare runs made with different seeds, so a seed that drew a bigger
// space would read as a regression.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/autotune"
	"repro/internal/batched"
	"repro/internal/device"
	"repro/internal/gemm"
	"repro/internal/kernelsim"
	"repro/internal/space"
)

// session is one space the benchmark sets up and sweeps in every rep.
type session struct {
	name string
	// text is the spec source; empty for a Go-builder session.
	text string
	// build constructs a Go-builder session's space.
	build func() (*space.Space, error)
	// objective scores a survivor for the tuner.
	objective autotune.Objective
	// reference streams the survivors the oracle expects.
	reference func(yield func([]int64)) error
	// pinned names a GEMM variant whose reference stream must match the
	// pinned survivor set.
	pinned string
	// frac is the seeded interruption point, as a share of the survivors.
	frac float64
	// codegen selects the session for the C code-generation leg.
	codegen bool
	// tiny marks a space that sweeps in about a millisecond. A checkpointed
	// run of it would time little but the disk's fsync waits, so the
	// checkpointed and resumed legs skip it and the tune leg tunes it
	// without a checkpoint.
	tiny bool

	// Filled by the oracle phase.
	want   *expected
	tokens int
}

// workload is one named input set.
type workload struct {
	name     string
	sessions func(rng *rand.Rand) []*session
}

var workloads = []*workload{
	{"gemm-sweep", gemmSweepSessions},
	{"stencil-specs", stencilSessions},
	{"dense-inner", denseSessions},
	{"tune-resume", tuneResumeSessions},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// interruption draws a seeded interruption point in [0.3, 0.7].
func interruption(rng *rand.Rand) float64 { return 0.3 + 0.4*rng.Float64() }

// gemmScale divides the K40c's block-shape limits. At 32 the dimension
// limits reach device.Scaled's floor of 32, the smallest GEMM space that
// keeps every constraint active.
const gemmScale = 32

// gemmSession is one GEMM variant built with gemm.Space and scored with
// the kernelsim model, as in the paper's Table I row 1.
func gemmSession(name string, rng *rand.Rand) *session {
	cfg, err := gemm.ByName(name)
	if err != nil {
		panic(err) // names come from the fixed lists below
	}
	cfg.Device = device.Scaled(device.TeslaK40c(), gemmScale)
	dev := device.TeslaK40c()
	prob := kernelsim.ProblemFor(cfg, 4096)
	s := &session{
		name:   name,
		build:  func() (*space.Space, error) { return gemm.Space(cfg) },
		pinned: name,
		frac:   interruption(rng),
		objective: func(t []int64) float64 {
			k, err := kernelsim.FromTuple(t)
			if err != nil {
				return 0
			}
			return kernelsim.EstimateGEMM(dev, k, prob).GFLOPS
		},
	}
	s.reference = func(yield func([]int64)) error { return engineStream(s, yield) }
	return s
}

// gemmTransposed draws whether B is transposed. A transposed B changes the
// survivor set but, unlike a transposed A, not the cost of the sweep.
func gemmTransposed(base string, rng *rand.Rand) string {
	return base + []string{"_nn", "_nt"}[rng.Intn(2)]
}

// gemmSweepSessions: one variant per precision and arithmetic, B's
// transposition drawn from the seed.
func gemmSweepSessions(rng *rand.Rand) []*session {
	var out []*session
	for _, base := range []string{"sgemm", "dgemm", "cgemm", "zgemm"} {
		s := gemmSession(gemmTransposed(base, rng), rng)
		s.codegen = base == "dgemm"
		out = append(out, s)
	}
	return out
}

// stencilTemplate is examples/specfile/space.bst with its settings and
// bounds filled in by the generator.
const stencilTemplate = `# A stencil-kernel tuning space in the BEAST textual notation.
setting max_threads = %d
setting warp_size = 32
setting max_shmem = %d
setting elem_size = %d
setting halo = %d
setting min_occupancy_threads = %d
setting regs_per_sm = 65536
setting max_regs_per_thread = 255
setting max_halo_pct = %[7]d

dim_x = range(1, %[6]d)
dim_y = range(1, %[6]d)
blk_x = range(dim_x, %[6]d, dim_x)
blk_y = range(dim_y, %[6]d, dim_y)
tstep = [1, 2, 4]
vec   = [1, 2, 4]

let threads = dim_x * dim_y
let tile_x = blk_x + 2 * halo * tstep
let tile_y = blk_y + 2 * halo * tstep
let shmem = tile_x * tile_y * elem_size
let work_per_thread = (blk_x / dim_x) * (blk_y / dim_y) * tstep
let regs = work_per_thread * 2 + 16
let halo_overhead_pct = 100 * (tile_x * tile_y - blk_x * blk_y) / (blk_x * blk_y)

constraint hard over_max_threads: threads > max_threads
constraint hard over_max_shmem:   shmem > max_shmem
constraint hard over_max_regs:    regs > max_regs_per_thread

constraint soft partial_warps:   threads %% warp_size != 0
constraint soft low_occupancy:   (regs_per_sm / (regs * threads)) * threads < min_occupancy_threads
constraint soft too_much_halo:   halo_overhead_pct > max_halo_pct

constraint correctness vec_divides: blk_x %% (dim_x * vec) != 0
`

func stencilText(p stencilParams) string {
	// The indexed verbs reuse DimBound for every dimension bound.
	return fmt.Sprintf(stencilTemplate, p.MaxThreads, p.MaxShmem, p.ElemSize, p.Halo,
		p.MinOccupancy, p.DimBound, p.MaxHaloPct)
}

// stencilSessions: a 2x2 design over the dimension bound and the element
// size, the two parameters that set a spec's tile count and sweep cost.
// The seed draws the thread and shared-memory limits, the occupancy floor
// and the halo threshold within ranges that move cost by a few percent.
func stencilSessions(rng *rand.Rand) []*session {
	var out []*session
	for i, cell := range [][2]int64{{129, 4}, {129, 8}, {257, 4}, {257, 8}} {
		p := stencilParams{
			DimBound:     cell[0],
			ElemSize:     cell[1],
			Halo:         1,
			MaxThreads:   []int64{960, 992, 1024}[rng.Intn(3)],
			MaxShmem:     45056 + 512*rng.Int63n(9),
			MinOccupancy: 128 + 16*rng.Int63n(5),
			MaxHaloPct:   55 + rng.Int63n(11),
		}
		out = append(out, &session{
			name:      fmt.Sprintf("stencil%d", i),
			text:      stencilText(p),
			objective: lookupScore,
			frac:      interruption(rng),
			codegen:   i == 3,
			reference: func(yield func([]int64)) error { refStencil(p, yield); return nil },
		})
	}
	return out
}

func denseText(p denseParams) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# dense-inner: a long loop whose lower bound follows bb, filtered by\n")
	fmt.Fprintf(&b, "# modulus checks that keep most candidates.\n")
	fmt.Fprintf(&b, "setting n = %d\n\n", p.N)
	fmt.Fprintf(&b, "aa = range(1, %d)\nbb = range(1, %d)\ncc = range(bb, n)\n\n", p.A, p.B)
	fmt.Fprintf(&b, "let w = aa * %d + bb * %d\n\n", p.W1, p.W2)
	for i, u := range p.Unary {
		fmt.Fprintf(&b, "constraint soft u%d: (cc + %d) %% %d == %d\n", i, u.Off, u.Mod, u.Rem)
	}
	fmt.Fprintf(&b, "constraint soft near_b: (cc + %d * bb + %d) %% %d == %d\n", p.KB, p.NearB.Off, p.NearB.Mod, p.NearB.Rem)
	fmt.Fprintf(&b, "constraint soft near_a: (cc + %d * aa + %d) %% %d == %d\n", p.KA, p.NearA.Off, p.NearA.Mod, p.NearA.Rem)
	fmt.Fprintf(&b, "constraint correctness lanes: (cc + w + %d) %% %d == %d\n", p.Lanes.Off, p.Lanes.Mod, p.Lanes.Rem)
	return b.String()
}

// The dense checks' moduli are fixed per role, distinct primes, so that
// each check kills 1/m of the candidates whatever its seeded offset and
// residue, and the survivor count, which sets the cost of delivering
// tuples, does not change with the seed. Drawn moduli moved a rep's
// survivors by 13% from seed to seed.
var (
	denseUnaryMods                           = []int64{13, 17, 19, 23}
	denseNearB, denseNearA, denseLanes int64 = 29, 31, 37
)

func drawMod(rng *rand.Rand, m int64) modCheck {
	return modCheck{Off: rng.Int63n(m), Mod: m, Rem: rng.Int63n(m)}
}

// denseSessions: four specs with fixed loop extents and moduli; the seed
// draws every offset, residue and coefficient.
func denseSessions(rng *rand.Rand) []*session {
	var out []*session
	for i, n := range []int64{1024, 1536, 2048, 2560} {
		p := denseParams{N: n, A: 17, B: 17, KB: 1 + rng.Int63n(7), KA: 1 + rng.Int63n(7),
			W1: 1 + rng.Int63n(9), W2: 1 + rng.Int63n(9)}
		for _, m := range denseUnaryMods {
			p.Unary = append(p.Unary, drawMod(rng, m))
		}
		p.NearB, p.NearA, p.Lanes = drawMod(rng, denseNearB), drawMod(rng, denseNearA), drawMod(rng, denseLanes)
		out = append(out, &session{
			name:      fmt.Sprintf("dense%d", i),
			text:      denseText(p),
			objective: lookupScore,
			frac:      interruption(rng),
			codegen:   i == 3,
			reference: func(yield func([]int64)) error { refDense(p, yield); return nil },
		})
	}
	return out
}

// tuneSizes is the number of batched-Cholesky matrix sizes per rep.
const tuneSizes = 32

// tuneResumeSessions: Table I's applications. 32 batched-Cholesky sizes,
// one drawn from each of 32 equal strata of [8, 512] so the rep's total
// cost barely depends on the seed, plus two GEMM variants.
func tuneResumeSessions(rng *rand.Rand) []*session {
	var out []*session
	dev := device.TeslaK40c()
	for i := 0; i < tuneSizes; i++ {
		lo := 8 + int64(i)*504/tuneSizes
		hi := 8 + int64(i+1)*504/tuneSizes
		n := lo + rng.Int63n(hi-lo)
		cfg := batched.DefaultConfig(n)
		out = append(out, &session{
			name:  fmt.Sprintf("potrf_n%d", n),
			build: func() (*space.Space, error) { return batched.Space(cfg) },
			objective: func(t []int64) float64 {
				k, err := batched.FromTuple(t)
				if err != nil {
					return 0
				}
				return batched.Estimate(dev, k, cfg)
			},
			frac:      interruption(rng),
			tiny:      true,
			reference: func(yield func([]int64)) error { refBatched(n, yield); return nil },
		})
	}
	for _, base := range []string{"dgemm", "zgemm"} {
		s := gemmSession(gemmTransposed(base, rng), rng)
		// A batched space's sweep cost follows the divisors of its seeded
		// size, so the code-generation leg runs on a GEMM variant instead.
		s.codegen = base == "dgemm"
		out = append(out, s)
	}
	return out
}
