package experiments

import "math"

// ClaimID names one result the paper reports. The claims table below holds
// every such number once: eabench's and eatrace's "paper:" lines read their
// values from it, TestPaperClaims holds each measured value to its band, and
// the same test renders the table into EXPERIMENTS.md. Inputs the paper
// measured and the testbed is calibrated to (Table 5's powers, T1/T2, Table
// 7's 10,000-tree point) are not claims; they live in the testbed.
type ClaimID int

const (
	ClaimFig3Crossover ClaimID = iota
	ClaimFig3Saving24
	ClaimFig4Browser
	ClaimFig4Socket
	ClaimFig4Slowdown
	ClaimTable4MaxR
	ClaimFig7Under2
	ClaimFig7Under9
	ClaimFig7Under20
	ClaimFig8MobileTrans
	ClaimFig8MobileTotal
	ClaimFig8FullTrans
	ClaimFig8FullTotal
	ClaimFig8MCNNTrans
	ClaimFig8MCNNTotal
	ClaimFig8EbayTrans
	ClaimFig9OrigTrans
	ClaimFig9AwareTrans
	ClaimFig10Mobile
	ClaimFig10Full
	ClaimFig10MCNN
	ClaimFig10ESPN
	ClaimFig10Headline
	ClaimFig11Mobile
	ClaimFig11Full
	ClaimFig12FirstOrig
	ClaimFig12FirstAware
	ClaimFig12FirstGain
	ClaimFig12FinalOrig
	ClaimFig12FinalAware
	ClaimFig12FinalGain
	ClaimFig14FullFirst
	ClaimFig14FullFinal
	ClaimFig15Gain
	ClaimFig16OrigOffDelay
	ClaimFig16EAOffDelay
	ClaimFig16Accurate9Power
	ClaimFig16Accurate20Delay
	ClaimTable7Time1000
	ClaimTable7Energy1000
	ClaimTable7Time20000
	ClaimTable7Energy20000
	numClaims
)

// Paper returns the value the paper reports for the claim.
func (id ClaimID) Paper() float64 { return claims[id].paper }

// InBand reports whether a measured value lies in the band the reproduction
// is held to. A row held to no band accepts every value.
func (id ClaimID) InBand(v float64) bool { return claims[id].band.holds(v) }

// String returns the claim's stable id, such as "fig7.under-2s".
func (id ClaimID) String() string { return claims[id].id }

// claim is one row of the table: a stable id, the paper's value in unit, the
// band the reproduction is held to, and a short label.
type claim struct {
	id    string
	label string
	paper float64
	unit  string
	band  band
}

// band is the closed interval [lo, hi] a measured value must fall in. The
// zero band holds nothing: the row reports the paper's number beside ours
// without a pass/fail bound.
type band struct {
	lo, hi float64
	held   bool
}

func between(lo, hi float64) band { return band{lo, hi, true} }
func atLeast(lo float64) band     { return band{lo, math.Inf(1), true} }
func atMost(hi float64) band      { return band{math.Inf(-1), hi, true} }

func (b band) holds(v float64) bool { return !b.held || (v >= b.lo && v <= b.hi) }

// claims is the table. Savings are positive percentages of the original
// pipeline's value (the paper writes Fig. 8's "−15%" as a 15% saving).
var claims = func() [numClaims]claim {
	c := [numClaims]claim{
		ClaimFig3Crossover: {id: "fig3.crossover", label: "Fig. 3: interval past which the intuitive release saves energy",
			paper: 9, unit: "s", band: between(8, 10)},
		ClaimFig3Saving24: {id: "fig3.saving-24s", label: "Fig. 3: intuitive release's saving at a 24 s interval",
			paper: 10, unit: "J"},
		ClaimFig4Browser: {id: "fig4.browser", label: "Fig. 4: espn load, original browser",
			paper: 47, unit: "s"},
		ClaimFig4Socket: {id: "fig4.socket", label: "Fig. 4: raw socket download of the same bytes",
			paper: 8, unit: "s", band: between(7, 13)},
		ClaimFig4Slowdown: {id: "fig4.slowdown", label: "Fig. 4: browser load ÷ socket download",
			unit: "×", band: atLeast(3)},
		ClaimTable4MaxR: {id: "table4.max-r", label: "Table 4: largest absolute Pearson r of reading time with one feature",
			paper: 0.067, band: atMost(0.2)},
		ClaimFig7Under2: {id: "fig7.under-2s", label: "Fig. 7: P(reading < 2 s)",
			paper: 30, unit: "%", band: between(23, 37)},
		ClaimFig7Under9: {id: "fig7.under-9s", label: "Fig. 7: P(reading < 9 s)",
			paper: 53, unit: "%", band: between(43, 63)},
		ClaimFig7Under20: {id: "fig7.under-20s", label: "Fig. 7: P(reading < 20 s)",
			paper: 68, unit: "%", band: between(61, 75)},
		ClaimFig8MobileTrans: {id: "fig8.mobile.trans", label: "Fig. 8: mobile benchmark transmission-time saving",
			paper: 15, unit: "%", band: between(5, 25)},
		ClaimFig8MobileTotal: {id: "fig8.mobile.total", label: "Fig. 8: mobile benchmark loading-time saving",
			paper: 2.5, unit: "%", band: atLeast(0)},
		ClaimFig8FullTrans: {id: "fig8.full.trans", label: "Fig. 8: full benchmark transmission-time saving",
			paper: 27, unit: "%", band: between(20, 42)},
		ClaimFig8FullTotal: {id: "fig8.full.total", label: "Fig. 8: full benchmark loading-time saving (the headline's faster loads)",
			paper: 17, unit: "%", band: between(10, 28)},
		ClaimFig8MCNNTrans: {id: "fig8.mcnn.trans", label: "Fig. 8: m.cnn.com transmission-time saving",
			paper: 15, unit: "%", band: between(5, 25)},
		ClaimFig8MCNNTotal: {id: "fig8.mcnn.total", label: "Fig. 8: m.cnn.com loading-time saving",
			paper: 2.2, unit: "%"},
		ClaimFig8EbayTrans: {id: "fig8.ebay.trans", label: "Fig. 8: www.motors.ebay.com transmission-time saving",
			paper: 31, unit: "%", band: between(20, 45)},
		ClaimFig9OrigTrans: {id: "fig9.orig.trans", label: "Fig. 9: espn original transmission ends",
			paper: 32.5, unit: "s"},
		ClaimFig9AwareTrans: {id: "fig9.aware.trans", label: "Fig. 9: espn energy-aware transmission ends",
			paper: 25, unit: "s"},
		ClaimFig10Mobile: {id: "fig10.mobile", label: "Fig. 10: mobile benchmark energy saving (load + 20 s read)",
			paper: 35.7, unit: "%", band: between(25, 50)},
		ClaimFig10Full: {id: "fig10.full", label: "Fig. 10: full benchmark energy saving",
			paper: 30.8, unit: "%", band: between(25, 50)},
		ClaimFig10MCNN: {id: "fig10.mcnn", label: "Fig. 10: m.cnn.com energy saving",
			paper: 35.5, unit: "%", band: between(25, 50)},
		ClaimFig10ESPN: {id: "fig10.espn", label: "Fig. 10: espn.go.com/sports energy saving",
			paper: 43.6, unit: "%", band: between(25, 50)},
		ClaimFig10Headline: {id: "fig10.headline", label: "Headline: energy saving, at least (lowest Fig. 10 benchmark)",
			paper: 30, unit: "%"},
		ClaimFig11Mobile: {id: "fig11.mobile", label: "Fig. 11: mobile capacity gain at 2% dropping",
			paper: 14.3, unit: "%"},
		ClaimFig11Full: {id: "fig11.full", label: "Fig. 11: full capacity gain at 2% dropping",
			paper: 19.6, unit: "%"},
		ClaimFig12FirstOrig: {id: "fig12.first.orig", label: "Fig. 12: espn intermediate display, original",
			paper: 17.6, unit: "s"},
		ClaimFig12FirstAware: {id: "fig12.first.aware", label: "Fig. 12: espn intermediate display, energy-aware",
			paper: 7.0, unit: "s"},
		ClaimFig12FirstGain: {id: "fig12.first.gain", label: "Fig. 12: intermediate display gain",
			unit: "s", band: atLeast(2)},
		ClaimFig12FinalOrig: {id: "fig12.final.orig", label: "Fig. 12: espn final display, original",
			paper: 34.5, unit: "s"},
		ClaimFig12FinalAware: {id: "fig12.final.aware", label: "Fig. 12: espn final display, energy-aware",
			paper: 28.6, unit: "s"},
		ClaimFig12FinalGain: {id: "fig12.final.gain", label: "Fig. 12: final display gain",
			unit: "s", band: atLeast(2)},
		ClaimFig14FullFirst: {id: "fig14.full.first", label: "Fig. 14: full benchmark first-display saving",
			paper: 45.5, unit: "%", band: between(30, 60)},
		ClaimFig14FullFinal: {id: "fig14.full.final", label: "Fig. 14: full benchmark final-display saving",
			paper: 16.8, unit: "%"},
		ClaimFig15Gain: {id: "fig15.gain", label: "Fig. 15: accuracy the interest threshold adds, at least (smaller of Tp, Td)",
			paper: 10, unit: "points"},
		ClaimFig16OrigOffDelay: {id: "fig16.orig-off.delay", label: "Fig. 16: Original Always-off delay saving",
			paper: -1.47, unit: "%"},
		ClaimFig16EAOffDelay: {id: "fig16.ea-off.delay", label: "Fig. 16: Energy-Aware Always-off delay saving",
			paper: 9.2, unit: "%"},
		ClaimFig16Accurate9Power: {id: "fig16.accurate-9.power", label: "Fig. 16: Accurate-9 power saving (best)",
			paper: 26.1, unit: "%"},
		ClaimFig16Accurate20Delay: {id: "fig16.accurate-20.delay", label: "Fig. 16: Accurate-20 delay saving (best)",
			paper: 13.6, unit: "%"},
		ClaimTable7Time1000: {id: "table7.1000.time", label: "Table 7: 1,000 trees, phone time",
			paper: 0.027, unit: "s"},
		ClaimTable7Energy1000: {id: "table7.1000.energy", label: "Table 7: 1,000 trees, phone energy",
			paper: 0.016, unit: "J"},
		ClaimTable7Time20000: {id: "table7.20000.time", label: "Table 7: 20,000 trees, phone time",
			paper: 0.543, unit: "s"},
		ClaimTable7Energy20000: {id: "table7.20000.energy", label: "Table 7: 20,000 trees, phone energy",
			paper: 0.326, unit: "J"},
	}
	// Rows the paper states only through two other numbers.
	c[ClaimFig4Slowdown].paper = c[ClaimFig4Browser].paper / c[ClaimFig4Socket].paper
	c[ClaimFig12FirstGain].paper = c[ClaimFig12FirstOrig].paper - c[ClaimFig12FirstAware].paper
	c[ClaimFig12FinalGain].paper = c[ClaimFig12FinalOrig].paper - c[ClaimFig12FinalAware].paper
	return c
}()
