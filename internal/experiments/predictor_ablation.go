package experiments

import (
	"fmt"
	"slices"

	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/linreg"
	"eabrowse/internal/predictor"
	"eabrowse/internal/runner"
	"eabrowse/internal/trace"
)

// PredictorAblationRow is one variant's accuracy.
type PredictorAblationRow struct {
	Name  string
	TpPct float64
	TdPct float64
}

// PredictorAblationResult sweeps the design choices behind the reading-time
// predictor (DESIGN.md §5): GBRT vs. a linear baseline, per-user vs. global
// models, forest size M, leaf budget J, and the interest threshold α, plus
// the forest's split-gain feature importance.
type PredictorAblationResult struct {
	Baselines []PredictorAblationRow
	Trees     []PredictorAblationRow
	Leaves    []PredictorAblationRow
	Alpha     []PredictorAblationRow
	// Importance is the default model's normalized split-gain share per
	// Table 1 feature.
	Importance     [features.Num]float64
	PersonalModels int
}

// PredictorAblation runs the sweep on the shared default trace.
func PredictorAblation() (*PredictorAblationResult, error) {
	ds, err := DefaultTrace()
	if err != nil {
		return nil, err
	}
	return PredictorAblationFrom(ds)
}

// PredictorAblationFrom runs the sweep on an existing dataset.
func PredictorAblationFrom(ds *trace.Dataset) (*PredictorAblationResult, error) {
	train, test, err := predictor.Split(ds.Visits, 0.3, 7)
	if err != nil {
		return nil, err
	}

	// Rows name GBRT variants, and some rows share one: the default model is
	// also the "M = 400" row and the importance model, and the "J = 8" and
	// "alpha = 2 s" rows are one 200-tree model. Each distinct (config,
	// alpha) pair is trained and scored once, and its rows reuse the result.
	type variant struct {
		cfg   gbrt.Config
		alpha float64
	}
	var variants []variant
	variantOf := func(cfg gbrt.Config, alpha float64) int {
		v := variant{cfg, alpha}
		if i := slices.Index(variants, v); i >= 0 {
			return i
		}
		variants = append(variants, v)
		return len(variants) - 1
	}
	type namedRow struct {
		name    string
		variant int
	}
	// GBRT vs. the linear baseline Table 4 rules out, and per-user vs.
	// global models, all trained with the interest threshold (the stronger
	// setting for each); then forest size M, leaf budget J and threshold α.
	def := variantOf(gbrt.DefaultConfig(), 2)
	var trees, leaves, alphas []namedRow
	for _, m := range []int{25, 100, 400} {
		cfg := gbrt.DefaultConfig()
		cfg.Trees = m
		trees = append(trees, namedRow{fmt.Sprintf("M = %d trees", m), variantOf(cfg, 2)})
	}
	for _, j := range []int{2, 4, 8, 16} {
		cfg := gbrt.DefaultConfig()
		cfg.MaxLeaves = j
		cfg.Trees = 200
		leaves = append(leaves, namedRow{fmt.Sprintf("J = %d leaves", j), variantOf(cfg, 2)})
	}
	for _, alpha := range []float64{0, 1, 2, 3, 5} {
		cfg := gbrt.DefaultConfig()
		cfg.Trees = 200
		alphas = append(alphas, namedRow{fmt.Sprintf("alpha = %.0f s", alpha), variantOf(cfg, alpha)})
	}

	// Every job trains on the same (read-only) split, so the sweep is one
	// flat job list on the worker pool: the linear and per-user baselines,
	// then one job per variant. Results land by job index.
	type result struct {
		row        PredictorAblationRow
		importance []float64 // the default variant's only
		personal   int
	}
	const baselines = 2
	job := func(i int) (result, error) {
		switch i {
		case 0:
			row, err := linearAccuracy(train, test, 2)
			return result{row: row}, err
		case 1:
			row, n, err := perUserAccuracy(train, test, 2)
			return result{row: row, personal: n}, err
		}
		v := variants[i-baselines]
		row, p, err := gbrtAccuracy(train, test, v.cfg, v.alpha)
		if err != nil || i-baselines != def {
			return result{row: row}, err
		}
		return result{row: row, importance: p.FeatureImportance()}, nil
	}
	results, err := runner.Collect(baselines+len(variants), job)
	if err != nil {
		return nil, err
	}
	rowsOf := func(named []namedRow) []PredictorAblationRow {
		rows := make([]PredictorAblationRow, len(named))
		for i, nr := range named {
			rows[i] = results[baselines+nr.variant].row
			rows[i].Name = nr.name
		}
		return rows
	}
	res := &PredictorAblationResult{
		Baselines: append(rowsOf([]namedRow{{"GBRT (default: M=400, J=8)", def}}),
			results[0].row, results[1].row),
		PersonalModels: results[1].personal,
		Trees:          rowsOf(trees),
		Leaves:         rowsOf(leaves),
		Alpha:          rowsOf(alphas),
	}
	copy(res.Importance[:], results[baselines+def].importance)
	return res, nil
}

// gbrtAccuracy trains one GBRT predictor and scores it at Tp = 9 s and
// Td = 20 s; the trained predictor is returned beside its row.
func gbrtAccuracy(train, test []trace.Visit, cfg gbrt.Config, alpha float64) (PredictorAblationRow, *predictor.Predictor, error) {
	pcfg := predictor.Config{GBRT: cfg, UseInterestThreshold: alpha > 0, Alpha: alpha}
	p, err := predictor.Train(train, pcfg)
	if err != nil {
		return PredictorAblationRow{}, nil, err
	}
	applyInterest := alpha > 0
	a9, err := p.Evaluate(test, 9, applyInterest)
	if err != nil {
		return PredictorAblationRow{}, nil, err
	}
	a20, err := p.Evaluate(test, 20, applyInterest)
	if err != nil {
		return PredictorAblationRow{}, nil, err
	}
	return PredictorAblationRow{TpPct: a9.Pct(), TdPct: a20.Pct()}, p, nil
}

// perUserAccuracy trains one model per user (the paper's deployment) and
// scores the routed predictions.
func perUserAccuracy(train, test []trace.Visit, alpha float64) (PredictorAblationRow, int, error) {
	cfg := predictor.Config{
		GBRT:                 gbrt.Config{Trees: 150, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5},
		UseInterestThreshold: alpha > 0,
		Alpha:                alpha,
	}
	pu, err := predictor.TrainPerUser(train, cfg)
	if err != nil {
		return PredictorAblationRow{}, 0, err
	}
	row := PredictorAblationRow{Name: "per-user GBRT models"}
	a9, err := pu.Evaluate(test, 9, alpha > 0)
	if err != nil {
		return PredictorAblationRow{}, 0, err
	}
	a20, err := pu.Evaluate(test, 20, alpha > 0)
	if err != nil {
		return PredictorAblationRow{}, 0, err
	}
	row.TpPct = a9.Pct()
	row.TdPct = a20.Pct()
	return row, pu.PersonalModels(), nil
}

// linearAccuracy fits the ordinary-least-squares baseline under the same
// interest-threshold regime and scores it identically.
func linearAccuracy(train, test []trace.Visit, alpha float64) (PredictorAblationRow, error) {
	var xs [][]float64
	var ys []float64
	for _, v := range train {
		if v.ReadingSeconds < alpha {
			continue
		}
		xs = append(xs, v.Features.Slice())
		ys = append(ys, v.ReadingSeconds)
	}
	m, err := linreg.Fit(xs, ys)
	if err != nil {
		return PredictorAblationRow{}, err
	}
	row := PredictorAblationRow{Name: "linear regression baseline"}
	for _, threshold := range []float64{9, 20} {
		correct, total := 0, 0
		for _, v := range test {
			if v.ReadingSeconds < alpha {
				continue
			}
			pred, err := m.Predict(v.Features.Slice())
			if err != nil {
				return PredictorAblationRow{}, err
			}
			if (pred > threshold) == (v.ReadingSeconds > threshold) {
				correct++
			}
			total++
		}
		pct := float64(correct) / float64(total) * 100
		if threshold == 9 {
			row.TpPct = pct
		} else {
			row.TdPct = pct
		}
	}
	return row, nil
}
