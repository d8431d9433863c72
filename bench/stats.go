package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of v; NaN for
// an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 {
	q := quartiles(v)
	return q[1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so
// the spreads -calibrate prints are the ones the driver computes. A single
// value is its own three quartiles.
func quartiles(v []float64) [3]float64 {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// iqrShare is the distance between the first and third quartile as a share
// of the median: the spread the driver holds against a metric's bound.
func iqrShare(v []float64) float64 {
	q := quartiles(v)
	return (q[2] - q[0]) / math.Abs(q[1])
}

// rangeShare is (max-min)/median, the stricter spread CALIBRATION.md shows.
func rangeShare(v []float64) float64 {
	s := sorted(v)
	return (s[len(s)-1] - s[0]) / math.Abs(median(v))
}

// timing summarises samples (all in unit) as a metric whose value is their
// median.
func timing(samples []float64, unit string) metric {
	return summarised(median(samples), samples, unit)
}

// summarised reports value together with the quartiles of the samples it
// was derived from.
func summarised(value float64, samples []float64, unit string) metric {
	q := quartiles(samples)
	return metric{Value: value, Unit: unit, Samples: len(samples), Q1: &q[0], Median: &q[1], Q3: &q[2]}
}

func count(v float64, unit string) metric { return metric{Value: v, Unit: unit} }
