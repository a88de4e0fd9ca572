package experiments

import (
	"fmt"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/energy"
	"eabrowse/internal/runner"
)

// Fig9Result holds the two sampled power traces of loading the espn-like
// page (original vs. energy-aware) plus the landmark times the paper calls
// out in the Fig. 9 discussion.
type Fig9Result struct {
	Original           []energy.Sample
	Aware              []energy.Sample
	OrigTransmissionS  float64
	AwareTransmissionS float64
	AwareDormantS      float64
}

// Fig9 reproduces Fig. 9: total (radio + CPU) power sampled at 0.25 s while
// loading espn.go.com/sports, then through a 20-second reading window. The
// energy-aware trace must drop to near-idle shortly after its transmission
// ends; the original keeps burning FACH power.
func Fig9() (*Fig9Result, error) {
	page, err := ESPNPage()
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
		s, err := New(mode, WithObsKey("fig9/"+mode.String()))
		if err != nil {
			return nil, err
		}
		meter, err := energy.NewMeter(s.Clock, energy.DefaultInterval,
			s.Radio.RadioPower, s.Engine.CPUPower)
		if err != nil {
			return nil, err
		}
		meter.Start()
		r, err := s.LoadToEnd(page)
		if err != nil {
			return nil, err
		}
		s.Clock.RunFor(20 * time.Second)
		meter.Stop()
		// Seal the ledger so the trace ends with the load's phase
		// attribution, as every other paper session's does.
		s.Engine.CloseLedger()
		switch mode {
		case browser.ModeOriginal:
			res.Original = meter.Samples()
			res.OrigTransmissionS = r.TransmissionTime.Seconds()
		case browser.ModeEnergyAware:
			res.Aware = meter.Samples()
			res.AwareTransmissionS = r.TransmissionTime.Seconds()
			res.AwareDormantS = r.DormantAt.Seconds()
		}
	}
	return res, nil
}

// Fig12Result carries the intermediate/final display timings of the espn
// page (the paper shows screenshots in Fig. 12/13; the measurable content is
// when each display appears).
type Fig12Result struct {
	OrigFirstDisplayS  float64
	AwareFirstDisplayS float64
	FirstDisplayGainS  float64
	OrigFinalDisplayS  float64
	AwareFinalDisplayS float64
	FinalDisplayGainS  float64
}

// Fig12 reproduces the Fig. 12/13 timings: the energy-aware simplified
// intermediate display appears much earlier and the final display somewhat
// earlier (the paper's times are the ClaimFig12* claims).
func Fig12() (*Fig12Result, error) {
	page, err := ESPNPage()
	if err != nil {
		return nil, err
	}
	// The two pipelines run on independent phones — load them concurrently.
	modes := []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware}
	outs, err := runner.Collect(len(modes), func(i int) (LoadOutcome, error) {
		return LoadPage(page, modes[i], 0)
	})
	if err != nil {
		return nil, err
	}
	orig, aware := outs[0], outs[1]
	res := &Fig12Result{
		OrigFirstDisplayS:  orig.Result.FirstDisplayAt.Seconds(),
		AwareFirstDisplayS: aware.Result.FirstDisplayAt.Seconds(),
		OrigFinalDisplayS:  orig.Result.FinalDisplayAt.Seconds(),
		AwareFinalDisplayS: aware.Result.FinalDisplayAt.Seconds(),
	}
	res.FirstDisplayGainS = res.OrigFirstDisplayS - res.AwareFirstDisplayS
	res.FinalDisplayGainS = res.OrigFinalDisplayS - res.AwareFinalDisplayS
	if res.AwareFirstDisplayS == 0 {
		return nil, fmt.Errorf("fig12: energy-aware pipeline drew no intermediate display")
	}
	return res, nil
}

// Fig14Result is the average screen display time comparison over both
// benchmarks (Fig. 14).
type Fig14Result struct {
	Mobile *BenchComparison
	Full   *BenchComparison
}

// Fig14 reproduces Fig. 14: first (intermediate) and final display times
// averaged over the mobile and full benchmarks. The paper reports the
// energy-aware approach cutting the full benchmark's first and final display
// times (claims ClaimFig14FullFirst and ClaimFig14FullFinal); on mobile pages
// it draws only the final display, roughly when the original draws its
// intermediate one.
func Fig14() (*Fig14Result, error) {
	mobile, err := MobilePages()
	if err != nil {
		return nil, err
	}
	full, err := FullPages()
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	if res.Mobile, err = ComparePagesTraced("fig14/mobile", "mobile benchmark", mobile, 0); err != nil {
		return nil, err
	}
	if res.Full, err = ComparePagesTraced("fig14/full", "full benchmark", full, 0); err != nil {
		return nil, err
	}
	return res, nil
}
