package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration. The host's processors drift in speed by tens of
// percent over minutes, and a vCPU is at times time-shared with another
// (two threads then run no faster than one); there is no hardware
// performance counter in the VM to count instructions instead. Between
// measured rounds every processor runs the same fixed reference kernel,
// and a run's wall-clock metrics are scaled by refKernelNominal over the
// kernel's median wall time in that run: a run measured while the host ran
// slow is reported as it would have taken at the nominal speed. CPU time
// is scaled by the kernel's CPU time instead, because time the host steals
// from a vCPU lengthens wall time but is not charged as CPU time. The
// kernel is code of this package, so no change to the program under test
// can move it. Over 60 alternations with a fig13 regeneration, block
// medians of the two correlated at 0.93 and the scaling cut the range of
// the regeneration's block medians from 34% to 16%.

// refKernelNominal and refKernelNominalCPU are the kernel's median wall
// time and per-processor CPU time on the 2-vCPU host the bounds were set
// on, in its quieter hours. They only fix the scale of the reported
// numbers, which then read close to raw seconds.
const (
	refKernelNominal    = 110 * time.Millisecond
	refKernelNominalCPU = 90 * time.Millisecond
)

// refKernelIters sizes the kernel near refKernelNominal.
const refKernelIters = 400_000

// refKernel runs the reference kernel on every processor at once and
// returns the wall time until all finish and the CPU time one processor
// spent on it. The kernel mixes what the simulator spends its time on: a
// binary-heap event queue, a random number stream with a logarithm,
// scattered reads and writes over a table larger than the caches, and map
// updates.
func refKernel() (wall, cpu time.Duration) {
	n := runtime.GOMAXPROCS(0)
	runtime.GC() // leave no collection of earlier garbage to overlap the kernel
	var wg sync.WaitGroup
	cpu0, t0 := selfCPU(), time.Now()
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			kernelSink[seed%uint64(len(kernelSink))] = kernel(seed, refKernelIters)
		}(uint64(p) + 1)
	}
	wg.Wait()
	return time.Since(t0), (selfCPU() - cpu0) / time.Duration(n)
}

// kernelSink keeps the kernels' results live.
var kernelSink [64]float64

func kernel(seed uint64, iters int) float64 {
	const tableLen = 1 << 20 // 8 MiB
	table := make([]uint64, tableLen)
	heap := make([]uint64, 0, 4096) // event times, a binary min-heap
	for i := 0; i < cap(heap); i++ {
		heap = append(heap, uint64(i))
	}
	counts := make(map[uint64]uint32, 1<<14)
	x := seed*0x9E3779B97F4A7C15 | 1
	var acc float64
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Pop the earliest event and push its successor.
		at := heap[0]
		heap[0] = at + 1 + x&1023
		for j := 0; ; {
			l, r, m := 2*j+1, 2*j+2, j
			if l < len(heap) && heap[l] < heap[m] {
				m = l
			}
			if r < len(heap) && heap[r] < heap[m] {
				m = r
			}
			if m == j {
				break
			}
			heap[j], heap[m] = heap[m], heap[j]
			j = m
		}
		acc += math.Log(float64(x>>11) + 1)
		table[(x^at)&(tableLen-1)] += at
		k := x & 0x3FFF
		counts[k]++
	}
	for _, v := range table[:64] {
		acc += float64(v & 1)
	}
	return acc + float64(len(counts))
}
