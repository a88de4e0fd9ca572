package experiments

import (
	"eabrowse/internal/channel"
	"eabrowse/internal/rrc"
)

// The scenario×policy matrix: every built-in channel scenario replayed under
// the paper's static thresholds, the per-user adaptive estimator, and the
// greedy counterfactual oracle, on one radio backend. The replay itself is
// closed-form and strictly sequential; the parallel work — loading each pool
// page under each channel segment — happens inside the evaluator on the
// shared worker pool and folds deterministically, so the matrix is
// byte-identical at any -parallel width.

// ScenarioRow is one scenario×policy cell.
type ScenarioRow struct {
	Scenario string
	Policy   string
	EnergyJ  float64
	DelayS   float64
	// SavingPct is the energy saving relative to the static policy under the
	// same scenario (zero for the static row itself).
	SavingPct   float64
	Switches    int
	Predictions int
}

// ScenarioMatrix is the full scenario×policy table for one radio backend.
type ScenarioMatrix struct {
	Radio string
	Rows  []ScenarioRow
}

// Scenarios replays the matrix on the process-default radio backend
// (eabench -radio).
func Scenarios() (*ScenarioMatrix, error) {
	return ScenariosWithRadio(DefaultRadioSpec())
}

// ScenariosWithRadio replays the matrix on an explicit backend; the golden
// regression test uses this to cover umts/lte/nr without touching the
// process default.
func ScenariosWithRadio(spec rrc.ModelSpec) (*ScenarioMatrix, error) {
	m := &ScenarioMatrix{Radio: spec.Profile()}
	for _, name := range channel.Scenarios() {
		ev, err := scenarioEvaluator(name, spec)
		if err != nil {
			return nil, err
		}
		results, err := ev.EvaluateAll()
		if err != nil {
			return nil, err
		}
		staticJ := results[0].EnergyJ
		for _, r := range results {
			m.Rows = append(m.Rows, ScenarioRow{
				Scenario:    name,
				Policy:      r.Case.String(),
				EnergyJ:     r.EnergyJ,
				DelayS:      r.DelayS,
				SavingPct:   savingPct(staticJ, r.EnergyJ),
				Switches:    r.Switches,
				Predictions: r.Predictions,
			})
		}
	}
	return m, nil
}
