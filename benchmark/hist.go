package main

import "math/bits"

// histSub is the number of linear sub-buckets per power of two: a
// bucket spans under 1/histSub of its value, so a quantile read from
// the histogram is within 3% of the exact sample quantile.
const histSub = 32

// latHist is a log-linear histogram of op latencies in ns. It keeps a
// timed run's samples in a fixed 8 KiB rather than a buffer that grows
// with the run, so the benchmark's own memory barely moves the
// program's garbage-collection pacing.
type latHist struct {
	counts [histSub * 64]uint32
	n      int
	sum    float64
}

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - bits.Len64(histSub) // v>>e is in [histSub, 2*histSub)
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// bucketRange returns the values bucket i covers, [lo, lo+width).
func bucketRange(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	return float64(uint64(i%histSub+histSub) << uint(e)), float64(uint64(1) << uint(e))
}

func (h *latHist) add(ns int64) {
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *latHist) mean() float64 { return ratio(h.sum, float64(h.n)) }

// quantile returns the q-quantile, interpolating by rank inside the
// bucket that holds it.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo, width := bucketRange(i)
			return lo + width*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := bucketRange(len(h.counts) - 1)
	return lo + width
}

// windowQuantileUS is the median over the non-empty windows of each
// window's q-quantile, in µs: the one definition of a reported latency
// percentile, so a burst of interference in one window does not move it.
func windowQuantileUS(win []latHist, q float64) float64 {
	var per []float64
	for w := range win {
		if win[w].n > 0 {
			per = append(per, win[w].quantile(q)/1e3)
		}
	}
	return median(per)
}
