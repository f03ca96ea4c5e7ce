package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); zero for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is the number of samples that must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail is a high-percentile latency with the sample facts behind it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
	Beyond     int     `json:"beyond"`
}

// tailOf returns the highest ladder percentile (nearest rank) that has
// at least minBeyond samples above it. A sample too small for any ladder
// step gets its upper quartile instead, with the samples beyond it
// stated: the maximum of a dozen samples is the least steady number a
// run can report.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	at := func(p float64) tail {
		// 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990
		// despite 99.9 having no exact binary form.
		rank := max(int(math.Ceil(p/100*float64(n)-1e-9)), 1)
		return tail{Value: s[rank-1], Percentile: p, N: n, Beyond: n - rank}
	}
	for _, p := range tailLadder {
		if t := at(p); t.Beyond >= minBeyond {
			return t
		}
	}
	return at(tailLadder[len(tailLadder)-1])
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rate is n per secs, zero when nothing was timed.
func rate(n int, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

// norm2 is the Euclidean norm of xs.
func norm2(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x * x
	}
	return math.Sqrt(t)
}

// relDiff is |a-b| / |b| (|a-b| when b is zero).
func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a - b)
	}
	return math.Abs(a-b) / math.Abs(b)
}
