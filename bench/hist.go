package main

import (
	"math/bits"
	"time"
)

// Histogram resolution: 64 linear sub-buckets per power of two bound the
// relative width of a bucket by 1/64, so a quantile read at the bucket
// midpoint is within 0.8 % of the sorted-sample value.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxExp covers values up to 2^(histSubBits+histMaxExp) ns, about
	// 2.4 hours; anything larger lands in the last bucket.
	histMaxExp  = 37
	histBuckets = histSub * (histMaxExp + 1)
)

// hist is a fixed-size log-bucket histogram of non-negative durations in
// nanoseconds. It has a single writer (the executor goroutine that owns
// the processor holding it), so record takes no lock and never
// allocates; readers run after the writer has stopped.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
}

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	return histSub*exp + int(v>>uint(exp))
}

// histBounds returns the value range [lo, lo+width) of bucket i.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	exp := i/histSub - 1
	return uint64(histSub+i%histSub) << uint(exp), 1 << uint(exp)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
	h.sum += d
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolated inside the
// bucket that holds it (0 when the histogram is empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, width := histBounds(i)
			return float64(lo) + float64(width)*(rank-float64(seen)+0.5)/float64(c)
		}
		seen += c
	}
	lo, width := histBounds(histBuckets - 1)
	return float64(lo + width)
}

// above returns the share of recorded values greater than d.
func (h *hist) above(d time.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	var over uint64
	for i := histBucket(uint64(d)) + 1; i < histBuckets; i++ {
		over += h.counts[i]
	}
	return float64(over) / float64(h.n)
}
