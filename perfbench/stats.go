package main

import (
	"math"
	"sort"
)

// Metric math shared by the untraced and traced runs. Everything here is a
// pure function of its inputs so the self-tests can pin it.

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for even
// length); 0 for an empty slice. xs is not modified.
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

// tail returns the highest percentile of xs that still has at least
// minBeyond samples strictly above it in rank, and that percentile. With
// n samples that is the value at rank n-minBeyond (1-based), the
// (n-minBeyond)/n quantile. Fewer than minBeyond+1 samples have no such
// percentile; the median is reported instead, at percentile 50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= minBeyond {
		return median(xs), 50
	}
	s := sorted(xs)
	rank := n - minBeyond // 1-based rank with exactly minBeyond samples above
	pct = 100 * float64(rank) / float64(n)
	if pct < 50 {
		return median(xs), 50
	}
	return s[rank-1], pct
}

// geomean returns the geometric mean of the positive values of xs; 0 when
// there are none.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// failedFrac is failed / attempted, 0 when nothing was attempted.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio is a / b, 0 when b is 0 (an idle layer reports zero, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
