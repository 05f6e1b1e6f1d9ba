package main

import (
	"math"
	"slices"
)

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted is the nearest-rank q-quantile of an ascending slice.
func quantileSorted(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// medianSorted is the median of an ascending slice of clock readings,
// which come in whole nanoseconds: a fast transaction's latencies pile up
// on two or three values, and the nearest-rank median would read the same
// integer on every run. It interpolates inside the median's own 1 ns bin
// by the share of the bin's samples that lie below the middle rank (the
// grouped-data median).
func medianSorted(s []int64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s[len(s)/2]
	lo, _ := slices.BinarySearch(s, v)
	hi, _ := slices.BinarySearch(s, v+1)
	return float64(v) - 0.5 + (float64(len(s))/2-float64(lo))/float64(hi-lo)
}

// quartiles returns the cut points Python's statistics.quantiles(vals,
// n=4) returns (the exclusive method), which is what the driver uses to
// judge spread. It needs at least two values.
func quartiles(vals []float64) (q [3]float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance as a share of the median, 0 when
// there are too few values to have one.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q := quartiles(vals)
	if q[1] == 0 {
		return 0
	}
	return math.Abs((q[2] - q[0]) / q[1])
}
