package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "single", give: []float64{5}, want: 5},
		{name: "pair", give: []float64{2, 4}, want: 3},
		{name: "negatives", give: []float64{-1, 1}, want: 0},
		{name: "uniform", give: []float64{7, 7, 7, 7}, want: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Mean(tt.give)
			if err != nil {
				t.Fatalf("Mean: %v", err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	if !almostEqual(v, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", v)
	}
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatalf("StdDev: %v", err)
	}
	if !almostEqual(sd, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", sd)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{25, 2},
		{50, 3},
		{75, 4},
		{100, 5},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := Percentile(xs, 50)
	if err != nil {
		t.Fatalf("Percentile: %v", err)
	}
	if !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Percentile(50) = %v, want 5", got)
	}
}

func TestPercentileRejectsOutOfRange(t *testing.T) {
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Fatal("Percentile(101) succeeded, want error")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Fatal("Percentile(-1) succeeded, want error")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatalf("Percentile: %v", err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
}

func TestPearsonAntiCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{8, 6, 4, 2}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if r != 0 {
		t.Fatalf("Pearson with zero variance = %v, want 0", r)
	}
}

func TestPearsonLengthMismatch(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("Pearson length mismatch succeeded, want error")
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Fatalf("CDF.At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c, err := NewCDF([]float64{10, 20, 30, 40})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{0.25, 10},
		{0.5, 20},
		{0.75, 30},
		{1, 40},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestCDFEmptyFails(t *testing.T) {
	if _, err := NewCDF(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("NewCDF(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || !almostEqual(s.Mean, 3, 1e-12) {
		t.Fatalf("Summary = %+v", s)
	}
}

// TestPropertyPearsonBounded checks |r| <= 1 on random samples.
func TestPropertyPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		return err == nil && r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCDFMonotone checks the CDF is non-decreasing and within [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := -10.0; x <= 110; x += 1.5 {
			v := c.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQuantileInverse checks At(Quantile(q)) >= q.
func TestPropertyQuantileInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		for _, q := range []float64{0.1, 0.3, 0.5, 0.9, 1.0} {
			if c.At(c.Quantile(q)) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Perfectly monotone but nonlinear: Spearman 1, Pearson < 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatalf("Spearman: %v", err)
	}
	if !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", rho)
	}
	r, _ := Pearson(xs, ys)
	if r >= 1 {
		t.Fatalf("Pearson = %v, expected < 1 on cubic", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 1, 2, 2}
	ys := []float64{3, 3, 5, 5}
	rho, err := Spearman(xs, ys)
	if err != nil {
		t.Fatalf("Spearman: %v", err)
	}
	if !almostEqual(rho, 1, 1e-12) {
		t.Fatalf("Spearman with ties = %v, want 1", rho)
	}
}

func TestSpearmanValidation(t *testing.T) {
	if _, err := Spearman(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty accepted")
	}
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatch accepted")
	}
}

func TestRanksAverageTies(t *testing.T) {
	got := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}
