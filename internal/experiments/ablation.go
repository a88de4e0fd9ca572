package experiments

import (
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
)

// AblationRow is one design variant's outcome on the espn-like page with a
// 20-second reading window.
type AblationRow struct {
	Name           string
	EnergyJ        float64
	LoadS          float64
	EnergyDeltaPct float64 // relative to the energy-aware default
}

// AblationResult collects the design-choice ablations DESIGN.md calls out.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations quantifies the contribution of each design choice:
//
//   - computation reordering alone (no forced dormancy) — how much of the
//     saving is the radio release vs. the grouped transfers;
//   - the dormancy guard length (releasing too eagerly vs. too lazily);
//   - the paper's Section 1 argument that merely shortening the operator
//     timers (T1/T2) on the *original* browser is not a substitute.
func Ablations() (*AblationResult, error) {
	page, err := ESPNPage()
	if err != nil {
		return nil, err
	}
	const reading = 20 * time.Second

	type variant struct {
		name  string
		mode  browser.Mode
		radio rrc.Config
		opts  []browser.Option
	}
	half := rrc.DefaultConfig()
	half.T1 = half.T1 / 2
	half.T2 = half.T2 / 2
	variants := []variant{
		{name: "energy-aware (default, guard 2.5s)", mode: browser.ModeEnergyAware, radio: rrc.DefaultConfig()},
		{name: "reordering only (no dormancy)", mode: browser.ModeEnergyAware,
			radio: rrc.DefaultConfig(), opts: []browser.Option{browser.WithoutAutoDormancy()}},
		{name: "energy-aware, guard 0s", mode: browser.ModeEnergyAware,
			radio: rrc.DefaultConfig(), opts: []browser.Option{browser.WithDormancyGuard(0)}},
		{name: "energy-aware, guard 8s", mode: browser.ModeEnergyAware,
			radio: rrc.DefaultConfig(), opts: []browser.Option{browser.WithDormancyGuard(8 * time.Second)}},
		{name: "original (default timers)", mode: browser.ModeOriginal, radio: rrc.DefaultConfig()},
		{name: "original, halved timers (T1=2s, T2=7.5s)", mode: browser.ModeOriginal, radio: half},
	}

	// Each variant is an independent phone; run them on the pool and compute
	// the deltas afterwards, once the index-0 baseline is known.
	rows, err := runner.Collect(len(variants), func(i int) (AblationRow, error) {
		v := variants[i]
		s, err := New(v.mode, WithRadioModel(v.radio), WithEngineOptions(v.opts...))
		if err != nil {
			return AblationRow{}, err
		}
		r, err := s.LoadToEnd(page)
		if err != nil {
			return AblationRow{}, err
		}
		s.Clock.RunFor(reading)
		return AblationRow{
			Name:    v.name,
			EnergyJ: s.Radio.EnergyJ() + r.CPUEnergyJ,
			LoadS:   r.FinalDisplayAt.Seconds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	baseline := rows[0].EnergyJ
	for i := range rows {
		rows[i].EnergyDeltaPct = (rows[i].EnergyJ - baseline) / baseline * 100
	}
	return &AblationResult{Rows: rows}, nil
}
