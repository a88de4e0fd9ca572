package experiments

import (
	"fmt"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/energy"
	"eabrowse/internal/netsim"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

// Fig1Result is the sampled power trace of the radio walking through its
// states (Fig. 1: IDLE → DCH → FACH → IDLE).
type Fig1Result struct {
	Samples []energy.Sample
	// Landmarks for the plot annotations.
	MeanPowerW float64
}

// Fig1 reproduces Fig. 1: the radio promotes from IDLE, transmits on DCH for
// a few seconds, then decays through T1 (DCH), T2 (FACH) back to IDLE, with
// power sampled every 0.25 s like the Agilent rig.
func Fig1() (*Fig1Result, error) {
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, bed.umts)
	if err != nil {
		return nil, err
	}
	meter, err := energy.NewMeter(clock, energy.DefaultInterval, radio.RadioPower)
	if err != nil {
		return nil, err
	}
	meter.Start()
	// Idle lead-in, then a 5-second transfer, then the timer decay.
	clock.RunUntil(3 * time.Second)
	radio.RequestActive(func() {
		if err := radio.BeginTransfer(); err != nil {
			return
		}
		clock.After(5*time.Second, func() {
			_ = radio.EndTransfer()
		})
	})
	clock.RunUntil(40 * time.Second)
	meter.Stop()
	return &Fig1Result{Samples: meter.Samples(), MeanPowerW: meter.MeanPower()}, nil
}

// Fig3Point is one x-position of Fig. 3.
type Fig3Point struct {
	IntervalS  float64
	OriginalJ  float64
	IntuitiveJ float64
	SavingJ    float64
}

// Fig3Result is the Fig. 3 sweep plus the measured crossover.
type Fig3Result struct {
	Points []Fig3Point
	// CrossoverS is the smallest interval at which the intuitive approach
	// (drop to IDLE after every transfer) starts saving energy.
	CrossoverS float64
}

// Fig3 reproduces Fig. 3 (Section 3.1): send 1 KB, wait the interval, send
// 1 KB again — once following the timers, once forcing IDLE after each
// transfer — and compare per-cycle energy. The paper's crossover is claim
// ClaimFig3Crossover.
func Fig3() (*Fig3Result, error) {
	intervals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24}
	res := &Fig3Result{}
	for _, iv := range intervals {
		orig, err := fig3Cycle(iv, false)
		if err != nil {
			return nil, err
		}
		intuitive, err := fig3Cycle(iv, true)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig3Point{
			IntervalS:  iv,
			OriginalJ:  orig,
			IntuitiveJ: intuitive,
			SavingJ:    orig - intuitive,
		})
	}
	for _, p := range res.Points {
		// Break-even counts: the paper's "only when the interval is larger
		// than 9 s" places the crossover exactly at 9.
		if p.SavingJ >= -1e-9 {
			res.CrossoverS = p.IntervalS
			break
		}
	}
	return res, nil
}

// fig3Cycle measures the energy of one transfer-wait-transfer cycle: from
// the end of the first 1 KB transfer, through the interval, to the end of
// the second transfer's promotion+transfer. Forcing idle adds the release
// cost now and the IDLE→DCH re-promotion later.
func fig3Cycle(intervalS float64, forceIdle bool) (float64, error) {
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, bed.umts)
	if err != nil {
		return 0, err
	}
	link, err := netsim.NewLink(clock, radio, bed.link)
	if err != nil {
		return 0, err
	}
	// The paper's experiment *sends* 1 KB from the phone to a server.
	transfer := func(done func()) {
		if err := link.Send("1kb", 1024, done); err != nil {
			panic(err)
		}
	}

	var startJ, endJ float64
	finished := false
	transfer(func() {
		startJ = radio.EnergyJ()
		if forceIdle {
			// The intuitive approach of Section 3.1.
			clock.After(0, func() { _ = radio.ForceIdle() })
		}
		clock.After(time.Duration(intervalS*float64(time.Second)), func() {
			transfer(func() {
				endJ = radio.EnergyJ()
				finished = true
			})
		})
	})
	for !finished {
		if !clock.Step() {
			return 0, fmt.Errorf("fig3: cycle stalled at interval %v", intervalS)
		}
	}
	return endJ - startJ, nil
}

// Fig4Bin is one 0.5-second traffic bucket of Fig. 4.
type Fig4Bin struct {
	StartS    float64
	TrafficKB float64
}

// Fig4Result compares the browser's spread-out transfers with a raw socket
// download of the same bytes.
type Fig4Result struct {
	BrowserBins   []Fig4Bin
	BulkBins      []Fig4Bin
	BrowserTotalS float64
	BulkTotalS    float64
	TotalKB       int
}

// Fig4 reproduces Fig. 4: the original browser opening the espn-like page
// spreads its transfers across the whole load, while a single socket
// download of the same bytes finishes several times sooner.
func Fig4() (*Fig4Result, error) {
	page, err := ESPNPage()
	if err != nil {
		return nil, err
	}

	// Browser load, original pipeline.
	s, err := New(browser.ModeOriginal)
	if err != nil {
		return nil, err
	}
	if _, err := s.LoadToEnd(page); err != nil {
		return nil, err
	}
	browserRecords := s.Link.Records()

	// Raw socket download of the same total bytes.
	bulk, err := New(browser.ModeOriginal)
	if err != nil {
		return nil, err
	}
	total := page.TotalBytes()
	bulkDone := false
	if err := bulk.Link.Fetch("bulk", total, func() { bulkDone = true }); err != nil {
		return nil, err
	}
	for !bulkDone {
		if !bulk.Clock.Step() {
			return nil, fmt.Errorf("fig4: bulk download stalled")
		}
	}
	bulkRecords := bulk.Link.Records()

	res := &Fig4Result{TotalKB: total / 1024}
	res.BrowserBins, res.BrowserTotalS = binTraffic(browserRecords)
	res.BulkBins, res.BulkTotalS = binTraffic(bulkRecords)
	return res, nil
}

// binTraffic buckets transfer bytes into 0.5 s bins (bytes are spread
// uniformly over each transfer's duration).
func binTraffic(records []netsim.Record) ([]Fig4Bin, float64) {
	if len(records) == 0 {
		return nil, 0
	}
	end := 0.0
	for _, r := range records {
		if e := r.End.Seconds(); e > end {
			end = e
		}
	}
	const binW = 0.5
	nBins := int(end/binW) + 1
	bins := make([]Fig4Bin, nBins)
	for i := range bins {
		bins[i].StartS = float64(i) * binW
	}
	for _, r := range records {
		s := r.Start.Seconds()
		e := r.End.Seconds()
		dur := e - s
		if dur <= 0 {
			continue
		}
		kbPerSec := float64(r.Bytes) / 1024 / dur
		for b := int(s / binW); b < nBins; b++ {
			lo := max(s, float64(b)*binW)
			hi := min(e, float64(b+1)*binW)
			if hi <= lo {
				if float64(b)*binW > e {
					break
				}
				continue
			}
			bins[b].TrafficKB += kbPerSec * (hi - lo)
		}
	}
	return bins, end
}
