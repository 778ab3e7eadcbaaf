package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}, {10, 1.4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of an empty sample should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
}

func TestPercentileCountsFailuresAsMissingTheLimit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	if got := percentile(xs, 99); got != 1 {
		t.Fatalf("p99 of all-ones = %v", got)
	}
	xs[0], xs[1] = math.Inf(1), math.Inf(1)
	if got := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Errorf("two failures in 100 should push p99 past any limit, got %v", got)
	}
	if got := percentile(xs, 50); got != 1 {
		t.Errorf("p50 with two failures = %v, want 1", got)
	}
}

func TestBacklogGrows(t *testing.T) {
	flat := make([]float64, 40)
	rising := make([]float64, 40)
	for i := range flat {
		flat[i] = 2 + float64(i%3)
		rising[i] = 2 + float64(i)
	}
	if backlogGrows(flat, 10) {
		t.Errorf("flat latencies reported as a growing backlog")
	}
	if !backlogGrows(rising, 10) {
		t.Errorf("latencies rising by 1 per request not reported as a growing backlog")
	}
	if backlogGrows([]float64{100, 1, 1}, 10) {
		t.Errorf("a sample too short to split into quarters cannot show growth")
	}
}

func TestSeparatingRate(t *testing.T) {
	clean := []rateTrial{{200, true}, {400, true}, {800, false}, {566, true}, {673, false}, {617, true}}
	if got := separatingRate(clean); got != 617 {
		t.Errorf("monotone trials: separatingRate = %v, want the highest pass 617", got)
	}
	// One lucky pass far above the failures of the other searches does
	// not set the rate.
	lucky := append(clean, rateTrial{760, true}, rateTrial{640, false}, rateTrial{700, false}, rateTrial{600, true})
	if got := separatingRate(lucky); got != 617 {
		t.Errorf("one lucky pass: separatingRate = %v, want 617", got)
	}
	// A lone failure among passes below the line does not lower it.
	unlucky := append(clean, rateTrial{300, false}, rateTrial{590, true})
	if got := separatingRate(unlucky); got != 617 {
		t.Errorf("one unlucky failure: separatingRate = %v, want 617", got)
	}
	if got := separatingRate([]rateTrial{{200, false}, {400, false}}); got != 0 {
		t.Errorf("no pass: separatingRate = %v, want 0", got)
	}
	if got := separatingRate(nil); got != 0 {
		t.Errorf("no trials: separatingRate = %v, want 0", got)
	}
}

func TestMaxRate(t *testing.T) {
	for _, capacity := range []float64{37, 150, 333, 999} {
		calls := 0
		got := maxRate(10, 1000, 8, func(r float64) bool {
			calls++
			return r <= capacity
		})
		if got > capacity || got < capacity*0.97 {
			t.Errorf("capacity %v: maxRate = %v, want within 3%% below it", capacity, got)
		}
		if calls > 16 {
			t.Errorf("capacity %v: %d trials, want at most 16", capacity, calls)
		}
	}
	if got := maxRate(10, 1000, 8, func(float64) bool { return false }); got != 0 {
		t.Errorf("all trials failing: maxRate = %v, want 0", got)
	}
	if got := maxRate(10, 1000, 8, func(float64) bool { return true }); got != 1000 {
		t.Errorf("all trials passing: maxRate = %v, want the upper bound 1000", got)
	}
}
