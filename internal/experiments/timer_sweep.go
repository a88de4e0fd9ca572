package experiments

import (
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
)

// TimerSweepRow is one (T1, T2) operating point for the original browser.
type TimerSweepRow struct {
	T1 time.Duration
	T2 time.Duration
	// EnergyJ is load + 20 s reading energy on the espn-like page.
	EnergyJ float64
	// NextClickDelayS is the promotion delay a click 10 s into the reading
	// window pays under these timers (0 while DCH, the FACH promotion while
	// FACH, the full IDLE promotion after T1+T2).
	NextClickDelayS float64
}

// TimerSweepResult quantifies the introduction's argument: shrinking the
// operator timers saves some tail energy but charges every early click a
// promotion delay, and even the most aggressive setting cannot reach the
// energy-aware pipeline (which also wins the loading time itself).
type TimerSweepResult struct {
	Rows []TimerSweepRow
	// EnergyAwareJ is the reference: the energy-aware pipeline with default
	// timers on the same workload.
	EnergyAwareJ float64
}

// TimerSweep runs the grid. The 4×3 (T1, T2) points are independent phones,
// so they run flattened on the worker pool; rows come back in grid order.
func TimerSweep() (*TimerSweepResult, error) {
	page, err := ESPNPage()
	if err != nil {
		return nil, err
	}
	const reading = 20 * time.Second

	type gridPoint struct{ t1, t2 time.Duration }
	var grid []gridPoint
	for _, t1 := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		for _, t2 := range []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second} {
			grid = append(grid, gridPoint{t1, t2})
		}
	}
	rows, err := runner.Collect(len(grid), func(i int) (TimerSweepRow, error) {
		t1, t2 := grid[i].t1, grid[i].t2
		cfg := rrc.DefaultConfig()
		cfg.T1 = t1
		cfg.T2 = t2
		s, err := New(browser.ModeOriginal, WithRadioModel(cfg))
		if err != nil {
			return TimerSweepRow{}, err
		}
		r, err := s.LoadToEnd(page)
		if err != nil {
			return TimerSweepRow{}, err
		}
		s.Clock.RunFor(reading)
		row := TimerSweepRow{
			T1:      t1,
			T2:      t2,
			EnergyJ: s.Radio.EnergyJ() + r.CPUEnergyJ,
		}
		// Where is the radio 10 s after the page opened?
		switch {
		case 10*time.Second < t1:
			row.NextClickDelayS = 0
		case 10*time.Second < t1+t2:
			row.NextClickDelayS = cfg.PromoFACHToDCH.Seconds()
		default:
			row.NextClickDelayS = cfg.PromoIdleToDCH.Seconds()
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &TimerSweepResult{Rows: rows}

	aware, err := LoadPage(page, browser.ModeEnergyAware, reading)
	if err != nil {
		return nil, err
	}
	res.EnergyAwareJ = aware.TotalWithReadingJ
	return res, nil
}
