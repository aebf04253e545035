package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqr returns the distance between the first and third quartile of v.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it", highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// tailQuantile picks the highest percentile of tailPercentiles that
// still has at least ten samples beyond it and returns it with its
// value, so a reported tail is never a single outlier. With fewer than
// 100 samples not even p90 qualifies and the median is returned.
func tailQuantile(v []float64) (q, value float64) {
	s := sortedCopy(v)
	for _, p := range tailPercentiles {
		if float64(len(s))*(1-p) >= 10-1e-6 { // 1-p is inexact in binary
			return p, quantile(s, p)
		}
	}
	return 0.5, quantile(s, 0.5)
}

// p99 is the tail the metric names promise; when the sample count
// cannot support it (fewer than ten samples beyond), it falls back to
// the highest percentile that can.
func p99(v []float64) float64 {
	if len(v) >= 1000 {
		return quantile(sortedCopy(v), 0.99)
	}
	_, val := tailQuantile(v)
	return val
}

// calmQuartile is the quartile of v on a metric's good side: the upper
// one where higher is better, the lower one where lower is better. On a
// shared box interference only ever slows a measurement down, never
// speeds it up, so repeated measurements of one quantity scatter to the
// bad side only; the good-side quartile is what the program does when the
// neighbours are quiet, and it repeats from run to run where the median
// does not (README, "Noise").
func calmQuartile(v []float64, better string) float64 {
	if better == "higher" {
		return quantile(sortedCopy(v), 0.75)
	}
	return quantile(sortedCopy(v), 0.25)
}

// overSlices reduces per-slice values to the reported number and its
// spread: the calm quartile over slices, and the inter-quartile range as
// a share of the median. A slice that measured nothing (no stream
// started in it, say) reads 0 and is left out.
func overSlices(perSlice []float64, better string) (value, spread float64) {
	var v []float64
	for _, x := range perSlice {
		if x > 0 {
			v = append(v, x)
		}
	}
	if m := median(v); m != 0 {
		spread = iqr(v) / m
	}
	return calmQuartile(v, better), spread
}

// calmAcc is a cost added up over groups of like slices, with the
// groups' spreads weighted the same way (divide spread by total).
type calmAcc struct{ total, spread float64 }

func (a *calmAcc) add(b calmAcc) {
	a.total += b.total
	a.spread += b.spread
}

// calmSum prices units of work whose cost was measured slice by slice.
// The slices of one group did the same work, so they are repeat
// measurements of one cost per unit and the group is priced at their calm
// quartile; slices of different groups did different work and are only
// ever added up. A slice with no units is left out.
func calmSum(perUnit, units []float64, groups [][]int) calmAcc {
	var acc calmAcc
	for _, g := range groups {
		var v []float64
		var n float64
		for _, s := range g {
			if units[s] > 0 {
				v = append(v, perUnit[s])
				n += units[s]
			}
		}
		cost := calmQuartile(v, "lower") * n
		acc.total += cost
		if m := median(v); m > 0 {
			acc.spread += iqr(v) / m * cost
		}
	}
	return acc
}

// calmMean is calmSum shared out over the units: what one unit costs.
func calmMean(perUnit, units []float64, groups [][]int) calmAcc {
	acc := calmSum(perUnit, units, groups)
	if n := sum(units); n > 0 {
		acc.total /= n
		acc.spread /= n
	}
	return acc
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}
