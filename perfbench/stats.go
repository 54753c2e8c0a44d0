package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when xs is empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the user+sys CPU time of the process (who =
// syscall.RUSAGE_SELF) or of the calling thread (who = rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// peakRSSMiB returns the process's maximum resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapCounter reads the runtime's cumulative heap allocation counters
// without stopping the world.
type heapCounter struct{ s [2]metrics.Sample }

func newHeapCounter() *heapCounter {
	h := &heapCounter{}
	h.s[0].Name = "/gc/heap/allocs:objects"
	h.s[1].Name = "/gc/heap/allocs:bytes"
	return h
}

// read returns the objects and bytes allocated since the process began.
func (h *heapCounter) read() (objects, bytes uint64) {
	metrics.Read(h.s[:])
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}
