package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile of a sorted sample.
func exactQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestHistQuantilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int63n(300) },
		"lognormal-us":  func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 9)) },
		"bimodal":       func() int64 { return []int64{2_000, 2_600_000}[rng.Intn(2)] + rng.Int63n(500) },
		"huge":          func() int64 { return rng.Int63() },
	}
	for name, draw := range shapes {
		for _, n := range []int{1, 7, 1000, 100_000} {
			var h, a, b hist
			samples := make([]int64, n)
			for i := range samples {
				samples[i] = draw()
				h.record(samples[i])
				if i%2 == 0 {
					a.record(samples[i])
				} else {
					b.record(samples[i])
				}
			}
			a.merge(&b)
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := exactQuantile(samples, q)
				for _, hh := range []*hist{&h, &a} {
					got := hh.quantile(q)
					if math.Abs(got-want) > 0.01*want {
						t.Errorf("%s n=%d q=%g: hist %g, sort %g (error > 1%%)", name, n, q, got, want)
					}
				}
			}
			var sum uint64
			for _, s := range samples {
				sum += uint64(s)
			}
			if h.n != uint64(n) || h.sum != sum || a.n != h.n || a.sum != h.sum {
				t.Errorf("%s n=%d: count/sum %d/%d, merged %d/%d, want %d/%d", name, n, h.n, h.sum, a.n, a.sum, n, sum)
			}
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	for v := uint64(0); v < 1<<16; v++ {
		b := bucketOf(v)
		if b < 0 || b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if v > 0 && b != bucketOf(v-1) && b != bucketOf(v-1)+1 {
			t.Fatalf("bucketOf(%d) = %d skips from %d", v, b, bucketOf(v-1))
		}
		if mid := bucketMid(b); math.Abs(float64(mid)-float64(v)) > 0.005*float64(v) {
			t.Fatalf("bucketMid(bucketOf(%d)) = %d, more than 0.5%% away", v, mid)
		}
	}
	if b := bucketOf(math.MaxUint64); b != numBuckets-1 {
		t.Fatalf("bucketOf(MaxUint64) = %d, want %d", b, numBuckets-1)
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := new(hist)
	if n := testing.AllocsPerRun(1000, func() { h.record(123456) }); n != 0 {
		t.Fatalf("record allocates %v times", n)
	}
}
