// Package families builds fixed families of tuning spaces for plan-time
// tests and benchmarks: the paper's 16 GEMM variants, batched Cholesky over
// a range of matrix sizes, and generated stencil and dense-inner specs in
// the textual notation. Every builder is deterministic, so a plan compiled
// from one of these spaces can be pinned byte for byte.
package families

import (
	"fmt"

	"repro/internal/batched"
	"repro/internal/device"
	"repro/internal/gemm"
	"repro/internal/space"
	"repro/internal/speclang"
)

// GEMMNames lists the 16 GEMM variants: four precision/arithmetic kernels
// times four transpose cases.
func GEMMNames() []string {
	var out []string
	for _, base := range []string{"sgemm", "dgemm", "cgemm", "zgemm"} {
		for _, t := range []string{"nn", "nt", "tn", "tt"} {
			out = append(out, base+"_"+t)
		}
	}
	return out
}

// GEMM builds the named GEMM variant on the Tesla K40c with its block-shape
// limits divided by scale (device.Scaled).
func GEMM(name string, scale int64) (*space.Space, error) {
	cfg, err := gemm.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg.Device = device.Scaled(device.TeslaK40c(), scale)
	return gemm.Space(cfg)
}

// Batched builds the batched-Cholesky space for matrix size n.
func Batched(n int64) (*space.Space, error) {
	return batched.Space(batched.DefaultConfig(n))
}

// stencilTemplate is examples/specfile/space.bst with the dimension bound
// and element size left open.
const stencilTemplate = `setting max_threads = 1024
setting warp_size = 32
setting max_shmem = 49152
setting elem_size = %[2]d
setting halo = 1
setting min_occupancy_threads = 256
setting regs_per_sm = 65536
setting max_regs_per_thread = 255

dim_x = range(1, %[1]d)
dim_y = range(1, %[1]d)
blk_x = range(dim_x, %[1]d, dim_x)
blk_y = range(dim_y, %[1]d, dim_y)
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
constraint soft too_much_halo:   halo_overhead_pct > 60

constraint correctness vec_divides: blk_x %% (dim_x * vec) != 0
`

// Stencil parses the stencil spec whose dimension loops run below dimBound,
// for elements of elemSize bytes.
func Stencil(dimBound, elemSize int64) (*space.Space, error) {
	return speclang.Parse(fmt.Sprintf(stencilTemplate, dimBound, elemSize))
}

// denseTemplate is a long innermost loop whose lower bound follows bb,
// filtered by modulus checks that keep most candidates: the shape where
// chunked evaluation and tabulation, not narrowing, carry the sweep.
const denseTemplate = `setting n = %d

aa = range(1, 17)
bb = range(1, 17)
cc = range(bb, n)

let w = aa * 3 + bb * 5

constraint soft u0: (cc + 4) %% 13 == 7
constraint soft u1: (cc + 9) %% 17 == 2
constraint soft u2: (cc + 1) %% 19 == 11
constraint soft u3: (cc + 6) %% 23 == 0
constraint soft near_b: (cc + 2 * bb + 5) %% 29 == 3
constraint soft near_a: (cc + 4 * aa + 8) %% 31 == 17
constraint correctness lanes: (cc + w + 12) %% 37 == 20
`

// Dense parses the dense-inner spec whose innermost loop runs below n.
func Dense(n int64) (*space.Space, error) {
	return speclang.Parse(fmt.Sprintf(denseTemplate, n))
}
