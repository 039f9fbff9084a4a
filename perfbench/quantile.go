package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank above a percentile before it
// is reported: an estimate resting on fewer is noise, so it is
// withheld rather than filled in with a neighbouring value.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// samples and true, or false when fewer than minBeyond samples rank
// above it — including when there are no samples at all. Samples are
// counted by rank, so ties at the returned value still count as
// beyond it. samples is not modified.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// setupBatches is how many batches setup_s is the median of.
const setupBatches = 5

// setupMedian returns the median over batches of the mean set-up time
// of each batch. Sample i goes to batch i mod batches, so when the
// samples are spread over a run, every batch draws from all of it and
// no batch sits in one stretch of a machine whose speed drifts. With an
// even number of batches the median is the mean of the two middle ones.
// The caller has already dropped the first set-up of the run.
func setupMedian(durs []time.Duration, batches int) (time.Duration, error) {
	if batches < 1 || len(durs) < batches {
		return 0, fmt.Errorf("setupMedian: %d set-ups cannot fill %d batches", len(durs), batches)
	}
	sums := make([]time.Duration, batches)
	counts := make([]int, batches)
	for i, d := range durs {
		sums[i%batches] += d
		counts[i%batches]++
	}
	means := make([]time.Duration, batches)
	for b := range means {
		means[b] = sums[b] / time.Duration(counts[b])
	}
	sort.Slice(means, func(i, j int) bool { return means[i] < means[j] })
	mid := batches / 2
	if batches%2 == 1 {
		return means[mid], nil
	}
	return (means[mid-1] + means[mid]) / 2, nil
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
