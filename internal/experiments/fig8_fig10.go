package experiments

import (
	"fmt"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/runner"
	"eabrowse/internal/webpage"
)

// PipelineTiming summarizes one pipeline's loading behaviour averaged over a
// benchmark (Fig. 8 bars).
type PipelineTiming struct {
	Mode browser.Mode
	// TransmissionS is the mean data transmission time, seconds.
	TransmissionS float64
	// LayoutS is the mean post-transmission layout time, seconds.
	LayoutS float64
	// TotalS is the mean webpage loading time, seconds.
	TotalS float64
	// FirstDisplayS is the mean time to first (intermediate) display; zero
	// when the pipeline draws only the final display.
	FirstDisplayS float64
	// EnergyLoadJ is mean radio+CPU energy to the final display.
	EnergyLoadJ float64
	// EnergyWithReadingJ is mean energy including the reading window.
	EnergyWithReadingJ float64
	// TransmissionJ, LayoutJ and TailJ attribute EnergyWithReadingJ to the
	// ledger phases: energy while data moved, energy during deferred layout,
	// and energy after the final display (reading window, radio decay).
	TransmissionJ float64
	LayoutJ       float64
	TailJ         float64
}

// BenchComparison is an Original vs. Energy-Aware comparison over one set of
// pages (one pair of grouped bars in Fig. 8 / Fig. 10 / Fig. 14).
type BenchComparison struct {
	Label    string
	Pages    int
	Original PipelineTiming
	Aware    PipelineTiming
}

// TransmissionSavingPct is the Fig. 8 headline: how much data-transmission
// time the reordering saves.
func (b *BenchComparison) TransmissionSavingPct() float64 {
	return savingPct(b.Original.TransmissionS, b.Aware.TransmissionS)
}

// TotalSavingPct is the loading-time saving (transmission + layout).
func (b *BenchComparison) TotalSavingPct() float64 {
	return savingPct(b.Original.TotalS, b.Aware.TotalS)
}

// EnergySavingPct is the Fig. 10 headline: energy saving over load plus the
// reading window.
func (b *BenchComparison) EnergySavingPct() float64 {
	return savingPct(b.Original.EnergyWithReadingJ, b.Aware.EnergyWithReadingJ)
}

// FirstDisplaySavingPct is the Fig. 14 intermediate-display saving.
func (b *BenchComparison) FirstDisplaySavingPct() float64 {
	return savingPct(b.Original.FirstDisplayS, b.Aware.FirstDisplayS)
}

func savingPct(orig, aware float64) float64 {
	if orig == 0 {
		return 0
	}
	return (orig - aware) / orig * 100
}

// ComparePagesTraced loads every page under both pipelines on fresh phones,
// simulating reading seconds of reading time after each load, and averages.
// The per-page loads run on the shared worker pool; outcomes are averaged in
// page order, so the comparison is identical at any worker count. When
// traceKey is non-empty, every session registers in the process-wide obs
// collector under "<traceKey>/<mode>/<page>" (a no-op unless tracing is
// enabled). Distinct experiments must pass distinct keys so an -exp all run
// never collides.
func ComparePagesTraced(traceKey, label string, pages []*webpage.Page, reading time.Duration) (*BenchComparison, error) {
	if len(pages) == 0 {
		return nil, fmt.Errorf("experiments: no pages for %s", label)
	}
	cmp := &BenchComparison{Label: label, Pages: len(pages)}
	for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
		mode := mode
		outcomes, err := runner.Collect(len(pages), func(i int) (*LoadOutcome, error) {
			var sopts []SessionOption
			if traceKey != "" {
				sopts = append(sopts, WithObsKey(fmt.Sprintf("%s/%s/%s", traceKey, mode, pages[i].Name)))
			}
			out, err := LoadPageSession(pages[i], mode, reading, nil, sopts...)
			if err != nil {
				return nil, fmt.Errorf("load %s (%v): %w", pages[i].Name, mode, err)
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		var agg PipelineTiming
		agg.Mode = mode
		firstDisplayed := 0
		for _, out := range outcomes {
			r := out.Result
			agg.TransmissionS += r.TransmissionTime.Seconds()
			agg.LayoutS += r.LayoutTime().Seconds()
			agg.TotalS += r.FinalDisplayAt.Seconds()
			if r.FirstDisplayAt > 0 {
				agg.FirstDisplayS += r.FirstDisplayAt.Seconds()
				firstDisplayed++
			} else {
				// Final-display-only pipelines count the final display as
				// their first (Fig. 14's mobile energy-aware bar).
				agg.FirstDisplayS += r.FinalDisplayAt.Seconds()
				firstDisplayed++
			}
			agg.EnergyLoadJ += r.TotalEnergyJ()
			agg.EnergyWithReadingJ += out.TotalWithReadingJ
			agg.TransmissionJ += r.Ledger.PhaseTotalJ("transmission")
			agg.LayoutJ += r.Ledger.PhaseTotalJ("layout")
			agg.TailJ += r.Ledger.PhaseTotalJ("tail")
		}
		n := float64(len(pages))
		agg.TransmissionS /= n
		agg.LayoutS /= n
		agg.TotalS /= n
		agg.FirstDisplayS /= float64(firstDisplayed)
		agg.EnergyLoadJ /= n
		agg.EnergyWithReadingJ /= n
		agg.TransmissionJ /= n
		agg.LayoutJ /= n
		agg.TailJ /= n
		if mode == browser.ModeOriginal {
			cmp.Original = agg
		} else {
			cmp.Aware = agg
		}
	}
	return cmp, nil
}

// Fig8Result holds the four comparisons of Fig. 8 (both benchmarks) and
// Fig. 8(b) (the two named pages).
type Fig8Result struct {
	Mobile     *BenchComparison
	Full       *BenchComparison
	MCNN       *BenchComparison
	MotorsEbay *BenchComparison
}

// Fig8 reproduces Fig. 8: data transmission time and total loading time for
// the mobile and full benchmarks, plus the two representative pages.
func Fig8() (*Fig8Result, error) {
	mobile, err := MobilePages()
	if err != nil {
		return nil, err
	}
	full, err := FullPages()
	if err != nil {
		return nil, err
	}
	cnn, err := MCNNPage()
	if err != nil {
		return nil, err
	}
	ebay, err := MotorsEbayPage()
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	if res.Mobile, err = ComparePagesTraced("fig8/mobile", "mobile benchmark", mobile, 0); err != nil {
		return nil, err
	}
	if res.Full, err = ComparePagesTraced("fig8/full", "full benchmark", full, 0); err != nil {
		return nil, err
	}
	if res.MCNN, err = ComparePagesTraced("fig8/mcnn", "m.cnn.com", []*webpage.Page{cnn}, 0); err != nil {
		return nil, err
	}
	if res.MotorsEbay, err = ComparePagesTraced("fig8/ebay", "www.motors.ebay.com", []*webpage.Page{ebay}, 0); err != nil {
		return nil, err
	}
	return res, nil
}

// Fig10ReadingTime is the reading window assumed by Fig. 10 ("suppose the
// reading time is larger than 20 seconds").
const Fig10ReadingTime = 20 * time.Second

// Fig10Result holds the energy comparisons of Fig. 10.
type Fig10Result struct {
	Mobile *BenchComparison
	Full   *BenchComparison
	MCNN   *BenchComparison
	ESPN   *BenchComparison
}

// Fig10 reproduces Fig. 10: energy to open each page plus 20 s of reading.
func Fig10() (*Fig10Result, error) {
	mobile, err := MobilePages()
	if err != nil {
		return nil, err
	}
	full, err := FullPages()
	if err != nil {
		return nil, err
	}
	cnn, err := MCNNPage()
	if err != nil {
		return nil, err
	}
	espn, err := ESPNPage()
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	if res.Mobile, err = ComparePagesTraced("fig10/mobile", "mobile benchmark", mobile, Fig10ReadingTime); err != nil {
		return nil, err
	}
	if res.Full, err = ComparePagesTraced("fig10/full", "full benchmark", full, Fig10ReadingTime); err != nil {
		return nil, err
	}
	if res.MCNN, err = ComparePagesTraced("fig10/mcnn", "m.cnn.com", []*webpage.Page{cnn}, Fig10ReadingTime); err != nil {
		return nil, err
	}
	if res.ESPN, err = ComparePagesTraced("fig10/espn", "espn.go.com/sports", []*webpage.Page{espn}, Fig10ReadingTime); err != nil {
		return nil, err
	}
	return res, nil
}
