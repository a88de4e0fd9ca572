package experiments

import (
	"fmt"

	"eabrowse/internal/browser"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
)

// ReorderProfiles is the fixed backend order of the cross-RAN comparison:
// the paper's UMTS radio first, then the newer generations.
var ReorderProfiles = []string{"umts", "lte", "nr"}

// ReorderRow is one radio backend's original-vs-energy-aware comparison for
// a page load followed by Fig. 10's 20 s reading window.
type ReorderRow struct {
	Profile string
	// OriginalJ and AwareJ are load + reading energy per pipeline.
	OriginalJ float64
	AwareJ    float64
	// SavingPct is the energy saving of the reordered pipeline.
	SavingPct float64
	// OrigLoadS and AwareLoadS are the final-display times.
	OrigLoadS  float64
	AwareLoadS float64
	// AwareDormant reports whether the energy-aware pipeline reached the
	// terminal idle state before the reading window ended.
	AwareDormant bool
}

// ReorderResult compares the pipelines across radio generations.
type ReorderResult struct {
	Page string
	Rows []ReorderRow
}

// Reorder replays the paper's tentpole intervention — reorder computation
// before communication, then force the radio dormant — on every radio
// backend: the same m.cnn.com load plus a 20 s reading window on UMTS, LTE
// DRX and 5G NR radios. The absolute energies differ (each generation has
// its own powers and tail), but the reordering wins on all of them; the
// saving shrinks as the native tails get shorter.
func Reorder() (*ReorderResult, error) {
	page, err := MCNNPage()
	if err != nil {
		return nil, err
	}
	rows, err := runner.Collect(len(ReorderProfiles), func(i int) (ReorderRow, error) {
		name := ReorderProfiles[i]
		spec, err := bed.radio(name)
		if err != nil {
			return ReorderRow{}, err
		}
		row := ReorderRow{Profile: name}
		orig, err := LoadPage(page, browser.ModeOriginal, Fig10ReadingTime,
			WithRadioModel(spec),
			WithObsKey(fmt.Sprintf("reorder/%s/original", name)))
		if err != nil {
			return ReorderRow{}, fmt.Errorf("reorder %s original: %w", name, err)
		}
		row.OriginalJ = orig.TotalWithReadingJ
		row.OrigLoadS = orig.Result.FinalDisplayAt.Seconds()
		s, err := New(browser.ModeEnergyAware, WithRadioModel(spec),
			WithObsKey(fmt.Sprintf("reorder/%s/energy-aware", name)))
		if err != nil {
			return ReorderRow{}, err
		}
		aware, err := s.Visit(page, Fig10ReadingTime)
		if err != nil {
			return ReorderRow{}, fmt.Errorf("reorder %s energy-aware: %w", name, err)
		}
		row.AwareDormant = s.Radio.State() == rrc.StateIdle
		row.AwareJ = aware.TotalWithReadingJ
		row.AwareLoadS = aware.Result.FinalDisplayAt.Seconds()
		row.SavingPct = savingPct(row.OriginalJ, row.AwareJ)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &ReorderResult{Page: page.Name, Rows: rows}, nil
}
