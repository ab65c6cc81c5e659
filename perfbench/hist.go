package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: every power-of-two octave is
// split into 1<<subBits linear sub-buckets, so a bucket is at most 1/128 of
// its lower bound wide and a value reported at its bucket midpoint is within
// 0.4% of every sample in the bucket. Values below 1<<(subBits+1) get a
// bucket each and are exact.
const subBits = 7

const (
	subCount   = 1 << subBits
	exactBelow = 2 * subCount
	// numBuckets covers the whole uint64 range: the top octave has shift
	// 64-(subBits+1).
	numBuckets = (64-subBits)*subCount + subCount
)

// hist is a fixed-size log-linear (HDR-style) latency histogram in
// nanoseconds. Recording is allocation-free and a hist belongs to one
// goroutine; merge them after the goroutines stop.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
	sum    uint64
}

func bucketOf(v uint64) int {
	if v < exactBelow {
		return int(v)
	}
	shift := bits.Len64(v) - (subBits + 1)
	return shift<<subBits + int(v>>shift)
}

// bucketMid is the value a bucket reports: its midpoint, or the value
// itself for the exact buckets.
func bucketMid(b int) uint64 {
	if b < exactBelow {
		return uint64(b)
	}
	shift := b>>subBits - 1
	low := uint64(b-shift<<subBits) << shift
	return low + (uint64(1)<<shift)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the value of
// the sample at rank ceil(q*n) in sorted order, resolved to its bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	// The epsilon keeps float error in q*n (0.99*1000 = 990.0000000000001)
	// from moving the rank up by one.
	rank := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return float64(bucketMid(b))
		}
	}
	return float64(bucketMid(numBuckets - 1))
}
