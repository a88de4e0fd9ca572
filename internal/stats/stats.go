// Package stats provides the small statistical toolkit shared by the
// experiment harnesses: means, percentiles, empirical CDFs, histograms and
// Pearson correlation (used to reproduce Table 4 of the paper).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. It returns 0 (and no error) when either side has zero variance,
// matching the convention used for Table 4 where degenerate features simply
// show no correlation.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: pearson length mismatch %d vs %d", len(xs), len(ys))
	}
	mx, _ := Mean(xs)
	my, _ := Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input slice is copied.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns P(X <= x), the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	// First index with sorted[i] > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with P(X <= v) >= q.
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Len returns the number of samples behind the CDF.
func (c *CDF) Len() int {
	return len(c.sorted)
}

// Summary bundles the descriptive statistics printed by the experiment
// harnesses.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mean, _ := Mean(xs)
	sd, _ := StdDev(xs)
	p50, _ := Percentile(xs, 50)
	p90, _ := Percentile(xs, 90)
	s := Summary{N: len(xs), Mean: mean, StdDev: sd, Min: xs[0], Max: xs[0], P50: p50, P90: p90}
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s, nil
}

// Spearman returns Spearman's rank correlation coefficient: the Pearson
// correlation of the ranks, robust to monotone nonlinearity. Ties receive
// their average rank.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: spearman length mismatch %d vs %d", len(xs), len(ys))
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks converts values to average ranks (1-based).
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	i := 0
	for i < len(idx) {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
