package main

import (
	"runtime"
	"sort"
	"time"
)

// median is the middle value of xs (the mean of the middle two when
// their number is even), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB collects garbage and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// forDuration calls f until dur has passed, at least once, and returns
// how many calls it made and how long they took.
func forDuration(dur time.Duration, f func()) (calls int, took time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	for {
		f()
		calls++
		if now := time.Now(); !now.Before(deadline) {
			return calls, now.Sub(start)
		}
	}
}

// timeEach calls f until dur has passed, at least once, and returns the
// mean ns per call.
func timeEach(dur time.Duration, f func()) float64 {
	n, took := forDuration(dur, f)
	return float64(took) / float64(n)
}
