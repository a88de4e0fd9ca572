package experiments

import (
	"fmt"

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

// PredictorAblation runs the sweep on the shared default split. Its forests
// whose key matches a shared TrainedPredictor's (the paper's configuration,
// with and without the interest threshold) are that predictor's, so Fig. 15,
// Fig. 16 and the sweep grow each of them once.
func PredictorAblation() (*PredictorAblationResult, error) {
	train, test, err := DefaultSplit()
	if err != nil {
		return nil, err
	}
	return predictorAblation(train, test, true)
}

// forestKey identifies one boosted forest of the sweep: its GBRT config with
// Trees zeroed, since a forest boosted for M trees is the first M trees of
// any longer one (gbrt.Model.Prefix), and its training filter — α when the
// interest threshold is on; without it α leaves the training set alone.
type forestKey struct {
	gbrt     gbrt.Config
	interest bool
	alpha    float64
}

func forestKeyOf(cfg predictor.Config) forestKey {
	k := forestKey{gbrt: cfg.GBRT, interest: cfg.UseInterestThreshold}
	k.gbrt.Trees = 0
	if k.interest {
		k.alpha = cfg.Alpha
	}
	return k
}

// sharedForest returns the artifact store's TrainedPredictor whose forest is
// key's and at least trees long, or nil when it has none.
func sharedForest(key forestKey, trees int) (*predictor.Predictor, error) {
	for _, withInterest := range []bool{true, false} {
		cfg := trainedPredictorConfig(withInterest)
		if forestKeyOf(cfg) == key && cfg.GBRT.Trees >= trees {
			return TrainedPredictor(withInterest)
		}
	}
	return nil, nil
}

// ablationRow is one GBRT row of the sweep: its label and the predictor
// config a stand-alone run would train it with.
type ablationRow struct {
	name string
	cfg  predictor.Config
}

// predictorAblation runs the sweep on one split. Rows that share a forest
// key share one forest, grown once to the largest M any of them asks for;
// each row is scored on the prefix it asks for. With shared set, the split
// is DefaultSplit's and forests come from sharedForest where it has them.
func predictorAblation(train, test []trace.Visit, shared bool) (*PredictorAblationResult, error) {
	// GBRT vs. the linear baseline Table 4 rules out, and per-user vs.
	// global models, all trained with the interest threshold (the stronger
	// setting for each); then forest size M, leaf budget J and threshold α.
	var rows []ablationRow
	add := func(name string, alpha float64, set func(*gbrt.Config)) {
		cfg := bed.predictor.GBRT
		set(&cfg)
		rows = append(rows, ablationRow{name, predictor.Config{
			GBRT: cfg, UseInterestThreshold: alpha > 0, Alpha: alpha,
		}})
	}
	add("GBRT (default: M=400, J=8)", 2, func(*gbrt.Config) {})
	treesLo := len(rows)
	for _, m := range []int{25, 100, 400} {
		add(fmt.Sprintf("M = %d trees", m), 2, func(c *gbrt.Config) { c.Trees = m })
	}
	leavesLo := len(rows)
	for _, j := range []int{2, 4, 8, 16} {
		add(fmt.Sprintf("J = %d leaves", j), 2, func(c *gbrt.Config) { c.MaxLeaves, c.Trees = j, 200 })
	}
	alphaLo := len(rows)
	for _, alpha := range []float64{0, 1, 2, 3, 5} {
		add(fmt.Sprintf("alpha = %.0f s", alpha), alpha, func(c *gbrt.Config) { c.Trees = 200 })
	}

	// One forest per key, in first-row order, grown at its rows' largest M.
	type forest struct {
		cfg  predictor.Config
		rows []int
	}
	var forests []forest
	index := map[forestKey]int{}
	for i, r := range rows {
		f, ok := index[forestKeyOf(r.cfg)]
		if !ok {
			f = len(forests)
			index[forestKeyOf(r.cfg)] = f
			forests = append(forests, forest{cfg: r.cfg})
		}
		forests[f].cfg.GBRT.Trees = max(forests[f].cfg.GBRT.Trees, r.cfg.GBRT.Trees)
		forests[f].rows = append(forests[f].rows, i)
	}

	// Every job trains on the same (read-only) split, so the sweep is one
	// flat job list on the worker pool: the linear and per-user baselines,
	// then one job per forest. Results land by job index.
	type result struct {
		rows       []PredictorAblationRow // a forest's, in its rows' order
		importance []float64              // the default row's only
		personal   int
	}
	const baselines = 2
	job := func(i int) (result, error) {
		switch i {
		case 0:
			row, err := linearAccuracy(train, test, 2)
			return result{rows: []PredictorAblationRow{row}}, err
		case 1:
			row, n, err := perUserAccuracy(train, test, 2)
			return result{rows: []PredictorAblationRow{row}, personal: n}, err
		}
		f := forests[i-baselines]
		var p *predictor.Predictor
		var err error
		if shared {
			p, err = sharedForest(forestKeyOf(f.cfg), f.cfg.GBRT.Trees)
		}
		if p == nil && err == nil {
			p, err = predictor.Train(train, f.cfg)
		}
		if err != nil {
			return result{}, err
		}
		var res result
		for _, ri := range f.rows {
			r := rows[ri]
			pm, err := p.Prefix(r.cfg.GBRT.Trees)
			if err != nil {
				return result{}, err
			}
			row, err := score(r.name, pm, test, r.cfg.UseInterestThreshold)
			if err != nil {
				return result{}, err
			}
			res.rows = append(res.rows, row)
			if ri == 0 {
				res.importance = pm.FeatureImportance()
			}
		}
		return res, nil
	}
	results, err := runner.Collect(baselines+len(forests), job)
	if err != nil {
		return nil, err
	}
	scored := make([]PredictorAblationRow, len(rows))
	for fi, f := range forests {
		for j, ri := range f.rows {
			scored[ri] = results[baselines+fi].rows[j]
		}
	}
	res := &PredictorAblationResult{
		Baselines:      []PredictorAblationRow{scored[0], results[0].rows[0], results[1].rows[0]},
		PersonalModels: results[1].personal,
		Trees:          scored[treesLo:leavesLo],
		Leaves:         scored[leavesLo:alphaLo],
		Alpha:          scored[alphaLo:],
	}
	// Row 0, the default, opens the first forest.
	copy(res.Importance[:], results[baselines].importance)
	return res, nil
}

// evaluator is a predictor the sweep scores: one global forest or a set of
// per-user ones.
type evaluator interface {
	Evaluate(test []trace.Visit, applyInterest bool, thresholds ...float64) ([]predictor.Accuracy, error)
}

// score rates e at Tp = 9 s and Td = 20 s, on the test visits that survive α
// when applyInterest is set.
func score(name string, e evaluator, test []trace.Visit, applyInterest bool) (PredictorAblationRow, error) {
	accs, err := e.Evaluate(test, applyInterest, 9, 20)
	if err != nil {
		return PredictorAblationRow{}, err
	}
	return PredictorAblationRow{Name: name, TpPct: accs[0].Pct(), TdPct: accs[1].Pct()}, nil
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
	row, err := score("per-user GBRT models", pu, test, alpha > 0)
	if err != nil {
		return PredictorAblationRow{}, 0, err
	}
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
	var scored []trace.Visit
	var preds []float64
	for _, v := range test {
		if v.ReadingSeconds < alpha {
			continue
		}
		pred, err := m.Predict(v.Features.Slice())
		if err != nil {
			return PredictorAblationRow{}, err
		}
		scored = append(scored, v)
		preds = append(preds, pred)
	}
	accs := predictor.Score(scored, preds, 9, 20)
	return PredictorAblationRow{Name: "linear regression baseline", TpPct: accs[0].Pct(), TdPct: accs[1].Pct()}, nil
}
