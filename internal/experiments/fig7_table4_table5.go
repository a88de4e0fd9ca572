package experiments

import (
	"eabrowse/internal/features"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

// Fig7Result is the reading-time CDF of the synthesized trace, with the
// paper's three landmark quantiles.
type Fig7Result struct {
	Visits int
	// Under2Pct, Under9Pct, Under20Pct mirror the paper's reading of Fig. 7
	// (claims ClaimFig7Under2, ClaimFig7Under9 and ClaimFig7Under20).
	Under2Pct  float64
	Under9Pct  float64
	Under20Pct float64
	// CurvePoints samples the CDF at 1-second steps up to 60 s.
	CurvePoints []CDFPoint
}

// CDFPoint is one (x, P(X<=x)) pair.
type CDFPoint struct {
	Seconds float64
	CumPct  float64
}

// Fig7 computes the reading-time CDF of the shared default trace.
func Fig7() (*Fig7Result, error) {
	ds, err := DefaultTrace()
	if err != nil {
		return nil, err
	}
	return Fig7From(ds)
}

// Fig7From computes the CDF of an existing dataset.
func Fig7From(ds *trace.Dataset) (*Fig7Result, error) {
	reads := make([]float64, 0, len(ds.Visits))
	for _, v := range ds.Visits {
		reads = append(reads, v.ReadingSeconds)
	}
	cdf, err := stats.NewCDF(reads)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{
		Visits:     len(reads),
		Under2Pct:  cdf.At(2) * 100,
		Under9Pct:  cdf.At(9) * 100,
		Under20Pct: cdf.At(20) * 100,
	}
	for s := 0.0; s <= 60; s++ {
		res.CurvePoints = append(res.CurvePoints, CDFPoint{Seconds: s, CumPct: cdf.At(s) * 100})
	}
	return res, nil
}

// Table4Result holds the Pearson correlations between reading time and each
// Table 1 feature.
type Table4Result struct {
	Correlations [features.Num]float64
	// Spearman holds the rank correlations — robust to monotone
	// nonlinearity, so near-zero values here rule out more than the linear
	// Pearson test does.
	Spearman [features.Num]float64
	Names    [features.Num]string
	// MaxAbs is the largest Pearson magnitude — the paper's point is that
	// none is notable (claim ClaimTable4MaxR).
	MaxAbs float64
}

// Table4 computes the correlations over the shared default trace.
func Table4() (*Table4Result, error) {
	ds, err := DefaultTrace()
	if err != nil {
		return nil, err
	}
	return Table4From(ds)
}

// Table4From computes the correlations over an existing dataset.
func Table4From(ds *trace.Dataset) (*Table4Result, error) {
	reads := make([]float64, 0, len(ds.Visits))
	for _, v := range ds.Visits {
		reads = append(reads, v.ReadingSeconds)
	}
	res := &Table4Result{Names: features.Names}
	for f := 0; f < features.Num; f++ {
		xs := make([]float64, 0, len(ds.Visits))
		for _, v := range ds.Visits {
			xs = append(xs, v.Features[f])
		}
		r, err := stats.Pearson(xs, reads)
		if err != nil {
			return nil, err
		}
		res.Correlations[f] = r
		rho, err := stats.Spearman(xs, reads)
		if err != nil {
			return nil, err
		}
		res.Spearman[f] = rho
		if r < 0 {
			r = -r
		}
		if r > res.MaxAbs {
			res.MaxAbs = r
		}
	}
	return res, nil
}

// Table5Row is one state-power entry.
type Table5Row struct {
	State  string
	PowerW float64
}

// Table5 returns the per-state power levels of the testbed's UMTS radio and
// the device's fully running CPU — the paper's measured Table 5 values,
// which the whole energy model is parameterized by. The CPU row is the
// 0.6 W Table 7 charges per prediction.
func Table5() []Table5Row {
	cfg := bed.umts
	return []Table5Row{
		{State: "IDLE state", PowerW: cfg.PowerIdle},
		{State: "FACH state", PowerW: cfg.PowerFACH},
		{State: "DCH state without transmission", PowerW: cfg.PowerDCHIdle},
		{State: "DCH state with transmission", PowerW: cfg.PowerDCHTx},
		{State: "Fully running CPU (IDLE state)", PowerW: bed.device.CPUWatts},
	}
}
