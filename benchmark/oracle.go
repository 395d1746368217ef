package main

// The oracle: everything the benchmark checks outputs against. Survivor
// sets are summarized by an order-independent additive hash, so parallel
// runs (which deliver tuples in any order) and interrupted-then-resumed
// runs (which deliver them in two parts) compare against one number, and a
// tuple delivered twice or dropped changes it. The reference loop nests
// below are hand-written from the generator parameters; they share no code
// with plan, engine or expr.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/device"
)

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tupleHash mixes one tuple, value by value, into 64 bits.
func tupleHash(t []int64) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = mix64(h ^ uint64(v) + 0x9e3779b97f4a7c15)
	}
	return h
}

// setHash counts and hashes delivered survivors. add is safe for the
// concurrent OnTuple calls of a parallel run.
type setHash struct {
	n   atomic.Int64
	sum atomic.Uint64
}

func (h *setHash) add(t []int64) bool {
	h.n.Add(1)
	h.sum.Add(tupleHash(t))
	return true
}

// lookupScore is the tuning objective of the spec-text workloads, which have
// no performance model: a fixed pseudo-random score per tuple, as if read
// from a table of recorded measurements. It costs a few nanoseconds, so the
// tuner's own overhead dominates their tune_s.
func lookupScore(t []int64) float64 {
	return float64(tupleHash(t)>>11) / (1 << 53)
}

// topK is the number of best configurations the tuner keeps.
const topK = 10

// expected is what every run of one session must reproduce.
type expected struct {
	survivors int64
	hash      uint64
	// top holds the topK best objective scores, descending. Ties make the
	// tuner's choice of tuples schedule-dependent; the scores are not.
	top []float64
}

// expect summarizes a reference survivor stream.
func expect(stream func(yield func([]int64)) error, obj func([]int64) float64) (*expected, error) {
	var h setHash
	var top []float64
	err := stream(func(t []int64) {
		h.add(t)
		top = append(top, obj(t))
		if len(top) > 4*topK {
			top = bestScores(top)
		}
	})
	if err != nil {
		return nil, err
	}
	return &expected{survivors: h.n.Load(), hash: h.sum.Load(), top: bestScores(top)}, nil
}

// bestScores returns the topK largest scores, descending.
func bestScores(scores []float64) []float64 {
	s := append([]float64(nil), scores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[:min(topK, len(s))]
}

// stencilParams are the settings a stencil-specs spec is generated from.
type stencilParams struct {
	MaxThreads, MaxShmem, ElemSize, Halo, MinOccupancy, DimBound, MaxHaloPct int64
}

// refStencil enumerates the stencil template's survivors in declaration
// order (dim_x, dim_y, blk_x, blk_y, tstep, vec), each check placed right
// after the innermost loop it reads.
func refStencil(p stencilParams, yield func([]int64)) {
	const warp, regsPerSM, maxRegs = 32, 65536, 255
	t := make([]int64, 6)
	for dx := int64(1); dx < p.DimBound; dx++ {
		for dy := int64(1); dy < p.DimBound; dy++ {
			threads := dx * dy
			if threads > p.MaxThreads || threads%warp != 0 {
				continue
			}
			for bx := dx; bx < p.DimBound; bx += dx {
				for by := dy; by < p.DimBound; by += dy {
					for _, ts := range []int64{1, 2, 4} {
						tx, ty := bx+2*p.Halo*ts, by+2*p.Halo*ts
						if tx*ty*p.ElemSize > p.MaxShmem {
							continue
						}
						regs := (bx/dx)*(by/dy)*ts*2 + 16
						if regs > maxRegs || regsPerSM/(regs*threads)*threads < p.MinOccupancy {
							continue
						}
						if 100*(tx*ty-bx*by)/(bx*by) > p.MaxHaloPct {
							continue
						}
						for _, v := range []int64{1, 2, 4} {
							if bx%(dx*v) != 0 {
								continue
							}
							t[0], t[1], t[2], t[3], t[4], t[5] = dx, dy, bx, by, ts, v
							yield(t)
						}
					}
				}
			}
		}
	}
}

// modCheck rejects a candidate when (x + Off) % Mod == Rem, for the x the
// constraint names.
type modCheck struct{ Off, Mod, Rem int64 }

func (m modCheck) kills(x int64) bool { return (x+m.Off)%m.Mod == m.Rem }

// denseParams are the settings a dense-inner spec is generated from.
type denseParams struct {
	N, A, B int64
	// Unary checks read cc alone.
	Unary []modCheck
	// NearB reads cc + KB*bb, NearA reads cc + KA*aa.
	KB, KA       int64
	NearB, NearA modCheck
	// Lanes reads cc + w, with w = aa*W1 + bb*W2 derived over both outer
	// loops.
	W1, W2 int64
	Lanes  modCheck
}

// refDense enumerates a dense-inner spec's survivors in declaration order
// (aa, bb, cc).
func refDense(p denseParams, yield func([]int64)) {
	t := make([]int64, 3)
	for aa := int64(1); aa < p.A; aa++ {
		for bb := int64(1); bb < p.B; bb++ {
			w := aa*p.W1 + bb*p.W2
		inner:
			for cc := bb; cc < p.N; cc++ {
				for _, u := range p.Unary {
					if u.kills(cc) {
						continue inner
					}
				}
				if p.NearB.kills(cc+p.KB*bb) || p.NearA.kills(cc+p.KA*aa) || p.Lanes.kills(cc+w) {
					continue
				}
				t[0], t[1], t[2] = aa, bb, cc
				yield(t)
			}
		}
	}
}

// refBatched enumerates the batched-Cholesky space of internal/batched for
// matrix size n on the K40c, in its declaration order (nb, dim_x, mpb,
// unroll).
func refBatched(n int64, yield func([]int64)) {
	dev := device.TeslaK40c()
	const batchMinThreads = 128
	t := make([]int64, 4)
	for nb := int64(1); nb <= n; nb++ {
		if n%nb != 0 {
			continue
		}
		for dx := nb; dx <= min(n, 128); dx++ {
			regsPerThread := n/dx*2 + 16
			if regsPerThread > dev.MaxRegistersPerThread {
				continue
			}
			for mpb := int64(1); mpb <= 16; mpb++ {
				threads := dx * mpb
				shmem := mpb * n * nb * dev.FloatSize * 2
				if threads > dev.MaxThreadsPerBlock || shmem > dev.MaxSharedMemPerBlock ||
					regsPerThread*threads > dev.MaxRegsPerBlock || threads%dev.WarpSize != 0 {
					continue
				}
				blocks := min(dev.MaxShmemPerMultiProcessor/shmem, dev.MaxBlocksPerMultiProcessor)
				if blocks*threads < batchMinThreads {
					continue
				}
				for _, u := range []int64{1, 2, 4} {
					t[0], t[1], t[2], t[3] = nb, dx, mpb, u
					yield(t)
				}
			}
		}
	}
}

// gemmPin is the survivor count and set hash of one GEMM variant on the
// K40c scaled by gemmScale, with the default occupancy and intensity
// floors.
type gemmPin struct {
	survivors int64
	hash      uint64
}

// gemmPins were derived once from internal/gemm's referenceEnumerate, the
// hand-written transcription of the paper's Figures 11-15 that its tests
// use as their oracle: each of the 16 variants was enumerated there with
// device.Scaled(device.TeslaK40c(), gemmScale) and summarized with
// tupleHash above. They are pinned here because that oracle is test code
// the benchmark cannot import.
var gemmPins = map[string]gemmPin{
	"sgemm_nn": {47600, 0x8e27ef42f950016f},
	"sgemm_nt": {47600, 0x362a31203d76d730},
	"sgemm_tn": {47600, 0x35d01b89ccf27ebe},
	"sgemm_tt": {47600, 0xab23325ccf6f4ac1},
	"dgemm_nn": {31872, 0xdcb9eacbfee10287},
	"dgemm_nt": {31872, 0x2bdacdace1296c45},
	"dgemm_tn": {31872, 0x45806ee6579389e5},
	"dgemm_tt": {31872, 0x9fbc63aa21e26aec},
	"cgemm_nn": {98288, 0xf6fc0866c0f93dcd},
	"cgemm_nt": {98288, 0x2c2ec0590974cc79},
	"cgemm_tn": {98288, 0x6c649f3300ac8798},
	"cgemm_tt": {98288, 0xa6e48b3cd36a63a9},
	"zgemm_nn": {14464, 0xbe943f8127200b6a},
	"zgemm_nt": {14464, 0x9b4c940dbf239264},
	"zgemm_tn": {14464, 0x98d23e80f66a25db},
	"zgemm_tt": {14464, 0x1ad8431942b82e43},
}

func checkPin(name string, e *expected) error {
	p, ok := gemmPins[name]
	if !ok {
		return fmt.Errorf("%s: no pinned survivor set", name)
	}
	if e.survivors != p.survivors || e.hash != p.hash {
		return fmt.Errorf("%s: %d survivors (hash %#x), pinned reference has %d (hash %#x)",
			name, e.survivors, e.hash, p.survivors, p.hash)
	}
	return nil
}
