package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer is set by a handful of requests and does not
// repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// smallest sample with at least q·n samples at or below it. It refuses a
// percentile that leaves fewer than minBeyond samples strictly above its
// rank, so p90 needs at least 100 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	// The epsilon keeps q = k/n from rounding up to rank k+1.
	rank := max(int(math.Ceil(q*float64(n)-1e-9)), 1)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailQuantile is the highest quantile, at most want, that leaves at least
// minBeyond of n samples above it: want itself when the sample is large
// enough, else the highest percentile the sample supports.
func tailQuantile(n int, want float64) float64 {
	return min(want, float64(n-minBeyond)/float64(n))
}

// tail is the tailQuantile(len(xs), want) percentile of xs, with the
// quantile it used.
func tail(xs []float64, want float64) (float64, float64, error) {
	q := tailQuantile(len(xs), want)
	v, err := percentile(xs, q)
	return v, q, err
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tpot is a request's mean gap between output tokens. A request with one
// output token has no gap, so it yields no sample (ok = false).
func tpot(latency, ttft time.Duration, tokens int) (gap time.Duration, ok bool) {
	if tokens < 2 {
		return 0, false
	}
	return (latency - ttft) / time.Duration(tokens-1), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
