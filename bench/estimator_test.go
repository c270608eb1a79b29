package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileGoldens(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 1, 7},
		{[]float64{7}, 99, 7},
		{seq(10), 10, 1},
		{seq(10), 11, 2},
		{seq(10), 50, 5},
		{seq(10), 99, 10},
		{seq(10), 100, 10},
		{seq(100), 10, 10},
		{seq(100), 99, 99},
		{seq(1100), 99, 1089}, // eleven samples beyond the reported p99
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
}

func TestQuietSliceShedsDisturbance(t *testing.T) {
	// Twenty slices of 5 ms of work; a quarter were disturbed and one was
	// lucky. The estimate is the undisturbed cost, not the mean (7.4 ms)
	// and not the lucky minimum.
	slices := make([]time.Duration, 20)
	for i := range slices {
		slices[i] = 5 * time.Millisecond
	}
	for _, i := range []int{2, 3, 11, 12, 19} {
		slices[i] = 15 * time.Millisecond
	}
	slices[7] = 3 * time.Millisecond
	if got := quietSlice(slices); got != 5*time.Millisecond {
		t.Fatalf("quietSlice = %v, want 5ms", got)
	}
	if got := quietSlice([]time.Duration{9, 1, 5}); got != 1 {
		t.Fatalf("quietSlice of three = %v, want the smallest", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
