package trace_test

import (
	"math"
	"testing"

	"eabrowse/internal/experiments"
	"eabrowse/internal/features"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

// The default trace must reproduce the paper's reading-time results. Their
// values and bands live in the experiments claims table.

func readingSeconds(ds *trace.Dataset) []float64 {
	reads := make([]float64, 0, len(ds.Visits))
	for _, v := range ds.Visits {
		reads = append(reads, v.ReadingSeconds)
	}
	return reads
}

// TestFig7CDFShape holds the reading-time CDF's landmark quantiles to the
// fig7.* claim bands.
func TestFig7CDFShape(t *testing.T) {
	cdf, err := stats.NewCDF(readingSeconds(trace.SharedDataset(t)))
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	for _, c := range []struct {
		at    float64
		claim experiments.ClaimID
	}{
		{2, experiments.ClaimFig7Under2},
		{9, experiments.ClaimFig7Under9},
		{20, experiments.ClaimFig7Under20},
	} {
		if got := cdf.At(c.at) * 100; !c.claim.InBand(got) {
			t.Errorf("P(reading < %.0f s) = %.1f%%, outside the %s band (paper: %v%%)",
				c.at, got, c.claim, c.claim.Paper())
		}
	}
}

// TestTable4NoNotableCorrelation holds every single feature's correlation
// with reading time to the table4.max-r claim band.
func TestTable4NoNotableCorrelation(t *testing.T) {
	ds := trace.SharedDataset(t)
	reads := readingSeconds(ds)
	claim := experiments.ClaimTable4MaxR
	for f := 0; f < features.Num; f++ {
		xs := make([]float64, 0, len(ds.Visits))
		for _, v := range ds.Visits {
			xs = append(xs, v.Features[f])
		}
		r, err := stats.Pearson(xs, reads)
		if err != nil {
			t.Fatalf("Pearson(%s): %v", features.Names[f], err)
		}
		if !claim.InBand(math.Abs(r)) {
			t.Errorf("|corr(%s, reading)| = %.3f, outside the %s band (paper: %v)",
				features.Names[f], math.Abs(r), claim, claim.Paper())
		}
	}
}
