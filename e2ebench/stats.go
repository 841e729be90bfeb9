package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear interpolation
// between closest ranks, leaving xs as it is. NaN-free input assumed; an empty
// slice yields 0.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[lo+1])*frac
}

func median[T int64 | float64](xs []T) float64 { return quantile(xs, 0.5) }

// iqrPct is the distance between the quartiles as a percentage of the median.
func iqrPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// segmentRates turns the 13 boundary instants of 12 equal segments into
// tuples per second per segment.
func segmentRates(bounds []time.Duration, segTuples int) []float64 {
	rates := make([]float64, len(bounds)-1)
	for i := range rates {
		rates[i] = float64(segTuples) / (bounds[i+1] - bounds[i]).Seconds()
	}
	return rates
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

var calibSink uint64

// calibrate times a fixed, allocation-free CPU kernel: how long this machine
// takes for the same work right now. It runs before and after every run; a
// value well above the usual one means a noisy neighbour, not a slower
// program.
func calibrate() time.Duration {
	start := time.Now()
	r := rng(1)
	var acc uint64
	for i := 0; i < 1<<23; i++ {
		acc += r.next()
	}
	calibSink += acc
	return time.Since(start)
}
