package main

import (
	"math"
	"sort"
)

// summary is how every metric is reported: the headline value, the
// median, the quartiles and extremes, and the sample count. The headline
// is the median, except for a timing, where it is the fastest sample (see
// metric.Fastest). With 3 to 40 samples no percentile above the median is
// supportable, so none is given.
type summary struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize reduces samples to a summary headed by their median; record
// replaces the headline of a timing. Quartiles follow Python's
// statistics.quantiles(values, n=4), the rule the acceptance check uses,
// so a spread computed here matches one computed there.
func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		s.Value, s.Median = math.NaN(), math.NaN()
		return s
	}
	x := append([]float64(nil), samples...)
	sort.Float64s(x)
	n := len(x)
	s.Min, s.Max = x[0], x[n-1]
	s.Median = (x[(n-1)/2] + x[n/2]) / 2
	s.Value = s.Median
	s.Q1, s.Q3 = s.Median, s.Median
	if n >= 2 {
		s.Q1, s.Q3 = quartile(x, 1), quartile(x, 3)
	}
	return s
}

// quartile returns the i-th of the three cut points of sorted x.
func quartile(x []float64, i int) float64 {
	n := len(x)
	m := n + 1
	j := min(max(i*m/4, 1), n-1)
	delta := float64(i*m - j*4)
	return (x[j-1]*(4-delta) + x[j]*delta) / 4
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
