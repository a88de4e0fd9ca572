package experiments

import (
	"testing"

	"eabrowse/internal/gbrt"
	"eabrowse/internal/predictor"
	"eabrowse/internal/trace"
)

// TestPredictorAblationShape asserts the design-choice story:
//
//   - GBRT beats the linear baseline at both thresholds (Table 4's
//     correlations say linear models must fail; the trees recover the
//     feature interactions);
//   - depth-starved trees (J = 2 stumps) lose to the default J = 8,
//     because the latent structure is interaction-based;
//   - the interest threshold strictly helps (alpha = 0 is the worst).
func TestPredictorAblationShape(t *testing.T) {
	res, err := PredictorAblation()
	if err != nil {
		t.Fatalf("PredictorAblation: %v", err)
	}
	if len(res.Baselines) != 3 {
		t.Fatalf("baselines = %d rows, want GBRT + linear + per-user", len(res.Baselines))
	}
	gbrtRow, linRow, perUserRow := res.Baselines[0], res.Baselines[1], res.Baselines[2]
	if perUserRow.TpPct < gbrtRow.TpPct-12 {
		t.Errorf("per-user models (%.1f%%) collapsed vs global (%.1f%%)", perUserRow.TpPct, gbrtRow.TpPct)
	}
	if res.PersonalModels == 0 {
		t.Error("no personal models fitted")
	}
	// Importance must be a distribution and concentrate on the features the
	// latent model actually uses (size/figures/height), not leak onto ones
	// it ignores.
	sum := 0.0
	for _, v := range res.Importance {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("importance sums to %.3f, want 1", sum)
	}
	if gbrtRow.TpPct <= linRow.TpPct {
		t.Errorf("GBRT Tp %.1f%% not above linear %.1f%%", gbrtRow.TpPct, linRow.TpPct)
	}
	if gbrtRow.TdPct <= linRow.TdPct {
		t.Errorf("GBRT Td %.1f%% not above linear %.1f%%", gbrtRow.TdPct, linRow.TdPct)
	}

	var stump, deep PredictorAblationRow
	for _, r := range res.Leaves {
		switch r.Name {
		case "J = 2 leaves":
			stump = r
		case "J = 8 leaves":
			deep = r
		}
	}
	if stump.TpPct >= deep.TpPct {
		t.Errorf("stumps (%.1f%%) not below J=8 trees (%.1f%%) — interactions should need depth",
			stump.TpPct, deep.TpPct)
	}

	var alpha0, alpha2 PredictorAblationRow
	for _, r := range res.Alpha {
		switch r.Name {
		case "alpha = 0 s":
			alpha0 = r
		case "alpha = 2 s":
			alpha2 = r
		}
	}
	if alpha0.TpPct >= alpha2.TpPct {
		t.Errorf("alpha=0 (%.1f%%) not below alpha=2 (%.1f%%)", alpha0.TpPct, alpha2.TpPct)
	}

	// More trees never hurt badly: the largest forest is within a point of
	// the best.
	best := 0.0
	for _, r := range res.Trees {
		if r.TpPct > best {
			best = r.TpPct
		}
	}
	last := res.Trees[len(res.Trees)-1]
	if last.TpPct < best-1 {
		t.Errorf("largest forest (%.1f%%) more than a point below best (%.1f%%)", last.TpPct, best)
	}
}

// gbrtAccuracy is the sweep's row oracle: one stand-alone predictor.Train
// per row, scored at Tp = 9 s and Td = 20 s.
func gbrtAccuracy(train, test []trace.Visit, cfg gbrt.Config, alpha float64) (PredictorAblationRow, *predictor.Predictor, error) {
	pcfg := predictor.Config{GBRT: cfg, UseInterestThreshold: alpha > 0, Alpha: alpha}
	p, err := predictor.Train(train, pcfg)
	if err != nil {
		return PredictorAblationRow{}, nil, err
	}
	accs, err := p.Evaluate(test, alpha > 0, 9, 20)
	if err != nil {
		return PredictorAblationRow{}, nil, err
	}
	return PredictorAblationRow{TpPct: accs[0].Pct(), TdPct: accs[1].Pct()}, p, nil
}

// TestPredictorAblationMatchesPerVariantTraining pins the shared forests to
// training every row on its own: on a small trace each GBRT row's accuracies,
// and the default row's importance, equal a stand-alone Train's exactly. On
// the default trace the default row is the deployed predictor's, so it
// equals Fig. 15's with-threshold accuracies.
func TestPredictorAblationMatchesPerVariantTraining(t *testing.T) {
	ds, err := ScenarioTrace()
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := predictor.Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := predictorAblation(train, test, false)
	if err != nil {
		t.Fatalf("predictorAblation: %v", err)
	}
	variant := func(trees, leaves int) gbrt.Config {
		cfg := gbrt.DefaultConfig()
		cfg.Trees, cfg.MaxLeaves = trees, leaves
		return cfg
	}
	type want struct {
		row   PredictorAblationRow
		cfg   gbrt.Config
		alpha float64
	}
	wants := []want{{res.Baselines[0], variant(400, 8), 2}}
	for i, m := range []int{25, 100, 400} {
		wants = append(wants, want{res.Trees[i], variant(m, 8), 2})
	}
	for i, j := range []int{2, 4, 8, 16} {
		wants = append(wants, want{res.Leaves[i], variant(200, j), 2})
	}
	for i, alpha := range []float64{0, 1, 2, 3, 5} {
		wants = append(wants, want{res.Alpha[i], variant(200, 8), alpha})
	}
	if got := 1 + len(res.Trees) + len(res.Leaves) + len(res.Alpha); got != len(wants) {
		t.Fatalf("sweep has %d GBRT rows, want %d", got, len(wants))
	}
	for i, w := range wants {
		oracle, p, err := gbrtAccuracy(train, test, w.cfg, w.alpha)
		if err != nil {
			t.Fatalf("%s: %v", w.row.Name, err)
		}
		if w.row.TpPct != oracle.TpPct || w.row.TdPct != oracle.TdPct {
			t.Errorf("%s: sweep %v%% / %v%%, stand-alone Train %v%% / %v%%",
				w.row.Name, w.row.TpPct, w.row.TdPct, oracle.TpPct, oracle.TdPct)
		}
		if i != 0 {
			continue
		}
		for f, v := range p.FeatureImportance() {
			if res.Importance[f] != v {
				t.Errorf("importance[%d] = %v, stand-alone Train %v", f, res.Importance[f], v)
			}
		}
	}

	def, err := PredictorAblation()
	if err != nil {
		t.Fatalf("PredictorAblation: %v", err)
	}
	fig15, err := Fig15()
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	if row := def.Baselines[0]; row.TpPct != fig15.WithTp || row.TdPct != fig15.WithTd {
		t.Errorf("default row %v%% / %v%%, Fig. 15 with threshold %v%% / %v%%",
			row.TpPct, row.TdPct, fig15.WithTp, fig15.WithTd)
	}
}
