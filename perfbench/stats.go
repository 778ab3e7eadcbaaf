package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks of the sorted sample. Failed
// operations enter as +Inf, so they count as missing any latency limit.
// It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= len(s) {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// backlogGrows reports whether an open-loop trial's queue grew: the
// median latency of the last quarter of requests (in send order) exceeds
// that of the first quarter by more than half the latency limit. A
// system below capacity serves the two quarters alike; one above it
// delays every later request a little more than the one before.
func backlogGrows(lat []float64, limit float64) bool {
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	first := median(lat[:q])
	last := median(lat[len(lat)-q:])
	return last-first > limit/2
}

// rateTrial is one open-loop trial of a max-rate search: its offered
// rate and whether it met the latency limit without a growing backlog.
type rateTrial struct {
	rate float64
	pass bool
}

// separatingRate is the passing trial rate that best separates a run's
// passing trials from its failing ones: the one with the fewest trials
// on the wrong side of it (passes above it, failures at or below it),
// the highest such rate on a tie, and 0 when no trial passed. Pooling
// every search's trials this way, rather than taking one search's
// result, keeps a single lucky or unlucky trial from setting the rate.
func separatingRate(trials []rateTrial) float64 {
	best, bestWrong := 0.0, 0
	for _, t := range trials {
		if t.pass {
			bestWrong++ // at rate 0 every pass is above the line
		}
	}
	for _, c := range trials {
		if !c.pass {
			continue
		}
		wrong := 0
		for _, t := range trials {
			if t.pass && t.rate > c.rate || !t.pass && t.rate <= c.rate {
				wrong++
			}
		}
		if wrong < bestWrong || wrong == bestWrong && c.rate > best {
			best, bestWrong = c.rate, wrong
		}
	}
	return best
}

// maxRate finds the highest offered rate in [lo, hi] for which pass
// holds: it doubles from lo while the trials pass, then bisects the
// bracket between the last passing and the first failing rate
// geometrically, steps times. It returns 0 when lo itself fails. pass is
// assumed to be monotone (true below some capacity, false above).
func maxRate(lo, hi float64, steps int, pass func(rate float64) bool) float64 {
	if !pass(lo) {
		return 0
	}
	good := lo
	bad := 0.0
	for bad == 0 {
		next := good * 2
		if next >= hi {
			if pass(hi) {
				return hi
			}
			bad = hi
			break
		}
		if pass(next) {
			good = next
		} else {
			bad = next
		}
	}
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(good * bad)
		if pass(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}
