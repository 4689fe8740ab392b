package main

import "sort"

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (the convention of Python's statistics.quantiles
// with method="inclusive"). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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

// percentile is a latency percentile with the sample count behind it. A
// percentile is valid only when at least ten samples lie beyond it, so
// p90 needs 100 samples and p99 needs 1000.
func percentile(xs []float64, q float64) (value float64, n int, valid bool) {
	return quantile(xs, q), len(xs), float64(len(xs))*(1-q) >= 10
}
