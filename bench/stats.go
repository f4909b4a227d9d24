package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that a tail percentile never rests on one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1): the
// smallest sample with at least a share p of all samples at or below it.
// It fails unless at least minBeyond samples lie above that rank.
func percentile(xs []float64, p float64) (float64, error) {
	if beyond := len(xs) - rank(len(xs), p); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(xs), beyond, minBeyond)
	}
	return quantile(xs, p), nil
}

// quantile is percentile without the sample-count rule, for per-layer
// metrics whose sample counts the report states; 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	// The epsilon keeps p*n = 9.000000000000002 from rounding up a rank.
	return max(1, int(math.Ceil(p*float64(n)-1e-9)))
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples. It is for per-pass aggregates, where the
// sample count is the pass count and the percentile rule cannot apply.
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

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
