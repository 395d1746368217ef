package main

// Host speed. The reference host is a 2-vCPU virtual machine shared with
// other tenants, and its speed drifts by up to 2x over minutes and by tens
// of percent from one second to the next; within a rep every timing moves
// together, the external C compiler included. Each rep therefore also
// times a fixed calibration kernel, before every session, and the rep's
// times are reported in reference-host seconds: divided by the rep's host
// factor, which is the kernel's time in the rep over its time on the
// reference host. A run reports the median of these normalized values.

import (
	"sync"
	"time"
)

// calibRef is the time of one calibration call on the reference host
// (2 vCPUs, Go 1.24), so that there the host factor is about 1.
const calibRef = 0.00118

// calibPerRep is about how many calibration calls a rep makes, split
// evenly over its sessions (at least one per session): about 20 ms on the
// reference host, 1-5% of a rep.
const calibPerRep = 16

func calibCalls(sessions int) int {
	return max(1, calibPerRep/max(sessions, 1))
}

// calibSpace is the kernel's fixed input.
var calibSpace = stencilParams{MaxThreads: 1024, MaxShmem: 49152, ElemSize: 4, Halo: 1,
	MinOccupancy: 128, DimBound: 97, MaxHaloPct: 60}

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibrate times the kernel: the stencil reference nest over calibSpace,
// `calls` times on each of two goroutines at once, like a sweep's two
// workers. It runs only benchmark code, so no change to the repository
// moves it.
func calibrate(calls int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, 2)
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum uint64
			for i := 0; i < calls; i++ {
				refStencil(calibSpace, func(t []int64) { sum += tupleHash(t) })
			}
			sums[g] = sum
		}()
	}
	wg.Wait()
	calibSink += sums[0] + sums[1]
	return time.Since(start)
}

// normalize converts a value measured in a rep to the reference host:
// times divide by the rep's host factor and rates multiply by it.
func normalize(v float64, unit string, factor float64) float64 {
	switch unit {
	case "s":
		return v / factor
	case "1/s":
		return v * factor
	}
	return v
}
