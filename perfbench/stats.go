package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples a reported percentile must have beyond
// it: a p99 over fewer than 1000 samples rests on a handful of values
// and is refused.
const minTail = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, ascending samples. It refuses a percentile with fewer than
// minTail samples beyond it.
func Percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, n-rank, minTail)
	}
	return sorted[rank-1], nil
}

// Samples collects one kind of measurement, in the unit it is added in.
type Samples []float64

// Sorted returns an ascending copy.
func (s Samples) Sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// P returns the p-th percentile, refusing thin tails.
func (s Samples) P(p float64) (float64, error) { return Percentile(s.Sorted(), p) }

// Median returns the middle value (0 for no samples).
func (s Samples) Median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.Sorted()
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// rateFloorPct is the percentile of its passes at which a rate of the
// in-process workloads is read. On a shared host a pass runs at the
// contended speed every run sees, or faster in spells when the
// neighbours are idle; how many passes a run gets in such spells varies
// from run to run, so a median of pass rates followed the host. The low
// percentile reads the contended speed and leaves the fast spells out:
// on the 2-vCPU Xeon VM the benchmark was validated on, its spread over
// six seeds was a quarter to two thirds of the median's.
const rateFloorPct = 10

// Low returns the nearest-rank p-th percentile (0 < p < 100) for a low p,
// the value all but about p% of the samples reach (0 for no samples).
func (s Samples) Low(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.Sorted()
	return v[max(1, int(math.Ceil(p/100*float64(len(v)))))-1]
}

// Sum returns the total.
func (s Samples) Sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// Mean returns the average (0 for no samples).
func (s Samples) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Geomean returns the geometric mean of positive ratios.
func Geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	l := 0.0
	for _, r := range ratios {
		l += math.Log(r)
	}
	return math.Exp(l / float64(len(ratios)))
}
