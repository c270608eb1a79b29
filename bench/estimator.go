package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest element with at least p percent of the sample at
// or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quietSlice is the wall-time estimator every wall metric in this
// benchmark uses: the timed phase is cut into slices of equal work and
// the 10th-percentile slice time stands for the cost of that work on an
// undisturbed machine. On the 2-core sizing box the mean of 5 s of slices
// moved by a quarter between runs of one binary while the 10th
// percentile repeated within 2 %: interference only ever adds time, so a
// low quantile sheds it, and the 10th (rather than the minimum) keeps
// ten or more slices below the estimate so one lucky slice cannot set it.
func quietSlice(slices []time.Duration) time.Duration {
	ns := make([]float64, len(slices))
	for i, d := range slices {
		ns[i] = float64(d)
	}
	sort.Float64s(ns)
	return time.Duration(percentile(ns, 10))
}

// timeSlices runs work n times and returns each run's wall time.
func timeSlices(n int, work func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		work()
		out[i] = time.Since(t0)
	}
	return out
}

// median returns the middle of xs (mean of the two middle values for an
// even count), 0 when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
