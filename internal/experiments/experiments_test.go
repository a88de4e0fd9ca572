package experiments

import (
	"math"
	"testing"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/rrc"
)

func TestSessionValidation(t *testing.T) {
	if _, err := New(browser.Mode(0)); err == nil {
		t.Fatal("invalid mode accepted")
	}
}

func TestPageByName(t *testing.T) {
	page, err := PageByName("m.cnn.com")
	if err != nil {
		t.Fatalf("PageByName: %v", err)
	}
	if page.Name != "m.cnn.com" {
		t.Fatalf("page = %s", page.Name)
	}
	full, err := PageByName("espn.go.com/sports")
	if err != nil {
		t.Fatalf("PageByName: %v", err)
	}
	if full.Mobile {
		t.Fatal("espn marked mobile")
	}
	if _, err := PageByName("no.such.page"); err == nil {
		t.Fatal("unknown page accepted")
	}
}

func TestLoadPageReadingEnergy(t *testing.T) {
	page, err := PageByName("m.cnn.com")
	if err != nil {
		t.Fatalf("PageByName: %v", err)
	}
	out, err := LoadPage(page, browser.ModeOriginal, 20*time.Second)
	if err != nil {
		t.Fatalf("LoadPage: %v", err)
	}
	if out.ReadingJ <= 0 {
		t.Fatalf("ReadingJ = %v", out.ReadingJ)
	}
	// Original reading window follows the timers: 4 s DCH + 15 s FACH +
	// 1 s idle ≈ 14.2 J.
	cfg := rrc.DefaultConfig()
	want := 4*cfg.PowerDCHIdle + 15*cfg.PowerFACH + 1*cfg.PowerIdle
	if math.Abs(out.ReadingJ-want) > 1.0 {
		t.Fatalf("original 20s reading = %.1f J, want ≈%.1f", out.ReadingJ, want)
	}
}

// TestFig1Shape: the power trace must visit all three plateaus in order.
func TestFig1Shape(t *testing.T) {
	res, err := Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	cfg := rrc.DefaultConfig()
	var sawIdle, sawDCH, sawFACH, sawIdleAfter bool
	for _, s := range res.Samples {
		switch {
		case !sawIdle:
			if s.Watts == cfg.PowerIdle {
				sawIdle = true
			}
		case !sawDCH:
			if s.Watts >= cfg.PowerDCHIdle {
				sawDCH = true
			}
		case !sawFACH:
			if s.Watts == cfg.PowerFACH {
				sawFACH = true
			}
		case !sawIdleAfter:
			if s.Watts == cfg.PowerIdle {
				sawIdleAfter = true
			}
		}
	}
	if !sawIdle || !sawDCH || !sawFACH || !sawIdleAfter {
		t.Fatalf("trace misses plateaus: idle=%v dch=%v fach=%v idle2=%v",
			sawIdle, sawDCH, sawFACH, sawIdleAfter)
	}
}

// TestFig3Crossover: the intuitive approach must only win past ≈9 s
// (the paper's central motivation measurement).
func TestFig3Crossover(t *testing.T) {
	res, err := Fig3()
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if res.CrossoverS < 8 || res.CrossoverS > 10 {
		t.Fatalf("crossover = %v s, want ≈9", res.CrossoverS)
	}
	// Savings must be monotone-ish: negative early, positive late.
	for _, p := range res.Points {
		if p.IntervalS <= 4 && p.SavingJ >= 0 {
			t.Fatalf("interval %v s: intuitive already saves %v J", p.IntervalS, p.SavingJ)
		}
		if p.IntervalS >= 12 && p.SavingJ <= 0 {
			t.Fatalf("interval %v s: intuitive still loses %v J", p.IntervalS, p.SavingJ)
		}
	}
}

// TestFig4Shape: the browser must take several times longer than the raw
// socket download for the same bytes (paper: 47 s vs 8 s).
func TestFig4Shape(t *testing.T) {
	res, err := Fig4()
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if res.BulkTotalS < 7 || res.BulkTotalS > 13 {
		t.Fatalf("socket download = %.1f s, want ≈8-10 (760 KB at ≈96 KB/s + promotion)", res.BulkTotalS)
	}
	if res.BrowserTotalS < 3*res.BulkTotalS {
		t.Fatalf("browser (%.1f s) not ≥3x socket (%.1f s): transfers not spread out",
			res.BrowserTotalS, res.BulkTotalS)
	}
	// Browser traffic must be spread: no 2-second window may carry more
	// than half the page.
	half := float64(res.TotalKB) / 2
	for i := 0; i+3 < len(res.BrowserBins); i++ {
		window := res.BrowserBins[i].TrafficKB + res.BrowserBins[i+1].TrafficKB +
			res.BrowserBins[i+2].TrafficKB + res.BrowserBins[i+3].TrafficKB
		if window > half {
			t.Fatalf("browser moved %.0f KB in one 2 s window (page %d KB): not spread",
				window, res.TotalKB)
		}
	}
}

// TestFig8Bands: the headline Fig. 8 savings must land near the paper's.
func TestFig8Bands(t *testing.T) {
	res, err := Fig8()
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	check := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s = %.1f%%, want in [%v, %v]", name, got, lo, hi)
		}
	}
	// Paper: mobile -15%, full -27% transmission; -2.5% / -17% total.
	check("mobile transmission saving", res.Mobile.TransmissionSavingPct(), 5, 25)
	check("full transmission saving", res.Full.TransmissionSavingPct(), 20, 42)
	check("full total saving", res.Full.TotalSavingPct(), 10, 28)
	if res.Mobile.TotalSavingPct() < 0 {
		t.Errorf("mobile total saving = %.1f%%, want non-negative", res.Mobile.TotalSavingPct())
	}
	// Named pages (paper: m.cnn -15%, ebay -31%).
	check("m.cnn transmission saving", res.MCNN.TransmissionSavingPct(), 5, 25)
	check("motors.ebay transmission saving", res.MotorsEbay.TransmissionSavingPct(), 20, 45)
}

// TestFig10Bands: the >30% energy-saving headline.
func TestFig10Bands(t *testing.T) {
	res, err := Fig10()
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	for name, c := range map[string]*BenchComparison{
		"mobile": res.Mobile, "full": res.Full, "m.cnn": res.MCNN, "espn": res.ESPN,
	} {
		if s := c.EnergySavingPct(); s < 25 || s > 50 {
			t.Errorf("%s energy saving = %.1f%%, want ≈30-45%%", name, s)
		}
	}
}

// TestFig9Shape: the energy-aware trace must end its transmission earlier
// and drop to idle power while the original still burns FACH power.
func TestFig9Shape(t *testing.T) {
	res, err := Fig9()
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if res.AwareTransmissionS >= res.OrigTransmissionS {
		t.Fatalf("aware transmission %.1f s not before original %.1f s",
			res.AwareTransmissionS, res.OrigTransmissionS)
	}
	if res.AwareDormantS <= res.AwareTransmissionS {
		t.Fatalf("dormancy at %.1f s not after transmission end %.1f s",
			res.AwareDormantS, res.AwareTransmissionS)
	}
	gap := res.AwareDormantS - res.AwareTransmissionS
	if gap < 2 || gap > 4 {
		t.Fatalf("dormancy gap = %.1f s, want ≈2.5 (Fig. 9)", gap)
	}
	cfg := rrc.DefaultConfig()
	// Late in the window the aware trace is at idle baseline while the
	// original is at FACH or above.
	awareLast := res.Aware[len(res.Aware)-1]
	if awareLast.Watts > cfg.PowerIdle+0.01 {
		t.Fatalf("aware trace ends at %.2f W, want idle %.2f", awareLast.Watts, cfg.PowerIdle)
	}
}

// TestFig12Bands: display-time gains on espn.
func TestFig12Bands(t *testing.T) {
	res, err := Fig12()
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if res.FirstDisplayGainS < 2 {
		t.Errorf("first display gain = %.1f s, want several seconds (paper: 10.6)", res.FirstDisplayGainS)
	}
	if res.FinalDisplayGainS < 2 {
		t.Errorf("final display gain = %.1f s, want several seconds (paper: 5.9)", res.FinalDisplayGainS)
	}
}

// TestFig14Bands: first-display saving on the full benchmark ≈45.5%.
func TestFig14Bands(t *testing.T) {
	res, err := Fig14()
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	if s := res.Full.FirstDisplaySavingPct(); s < 30 || s > 60 {
		t.Errorf("full first-display saving = %.1f%%, want ≈45.5%%", s)
	}
	if res.Full.Aware.FirstDisplayS >= res.Full.Original.FirstDisplayS {
		t.Error("energy-aware first display not earlier on full pages")
	}
}

// TestTable4Band: no notable single-feature correlation.
func TestTable4Band(t *testing.T) {
	res, err := Table4()
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if res.MaxAbs > 0.2 {
		t.Fatalf("max |r| = %.3f, want < 0.2 (paper: ≤ 0.067)", res.MaxAbs)
	}
}

// TestTable5Values: the Table 5 power levels are the paper's.
func TestTable5Values(t *testing.T) {
	rows := Table5()
	want := map[string]float64{
		"IDLE state":                     0.15,
		"FACH state":                     0.63,
		"DCH state without transmission": 1.15,
		"DCH state with transmission":    1.25,
		"Fully running CPU (IDLE state)": 0.60,
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		w, ok := want[row.State]
		if !ok {
			t.Fatalf("unexpected row %q", row.State)
		}
		if math.Abs(row.PowerW-w) > 1e-9 {
			t.Fatalf("%s = %v W, want %v", row.State, row.PowerW, w)
		}
	}
}

// TestTable7Values: the device cost model reproduces the measured
// prediction costs exactly.
func TestTable7Values(t *testing.T) {
	rows, err := Table7()
	if err != nil {
		t.Fatalf("Table7: %v", err)
	}
	want := []struct {
		trees int
		timeS float64
		engJ  float64
	}{
		{1000, 0.0295, 0.0177},
		{10000, 0.295, 0.177},
		{20000, 0.590, 0.354},
	}
	for i, w := range want {
		if rows[i].Trees != w.trees {
			t.Fatalf("row %d trees = %d, want %d", i, rows[i].Trees, w.trees)
		}
		if math.Abs(rows[i].TimeSeconds-w.timeS) > 1e-9 {
			t.Fatalf("row %d time = %v, want %v", i, rows[i].TimeSeconds, w.timeS)
		}
		if math.Abs(rows[i].EnergyJ-w.engJ) > 1e-9 {
			t.Fatalf("row %d energy = %v, want %v", i, rows[i].EnergyJ, w.engJ)
		}
		if rows[i].GoWallTime <= 0 {
			t.Fatalf("row %d has no Go wall time", i)
		}
	}
}

// TestAblationShape: the ablation sweep must show the expected structure.
func TestAblationShape(t *testing.T) {
	res, err := Ablations()
	if err != nil {
		t.Fatalf("Ablations: %v", err)
	}
	find := func(name string) AblationRow {
		t.Helper()
		for _, r := range res.Rows {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("ablation row %q missing", name)
		return AblationRow{}
	}
	def := find("energy-aware (default, guard 2.5s)")
	noDorm := find("reordering only (no dormancy)")
	orig := find("original (default timers)")
	halved := find("original, halved timers (T1=2s, T2=7.5s)")
	if noDorm.EnergyJ <= def.EnergyJ {
		t.Error("disabling dormancy did not cost energy")
	}
	if noDorm.EnergyJ >= orig.EnergyJ {
		t.Error("reordering alone saves nothing over the original")
	}
	if halved.EnergyJ >= orig.EnergyJ {
		t.Error("halved timers did not help the original at all")
	}
	if halved.EnergyJ <= def.EnergyJ {
		t.Error("timer tuning alone beat the full energy-aware approach — contradicts the paper's argument")
	}
}

// TestTimerSweepShape: shrinking timers helps the original but never reaches
// the energy-aware pipeline, and aggressive timers charge early clicks the
// full IDLE promotion — the introduction's argument, quantified.
func TestTimerSweepShape(t *testing.T) {
	res, err := TimerSweep()
	if err != nil {
		t.Fatalf("TimerSweep: %v", err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(res.Rows))
	}
	best := res.Rows[0].EnergyJ
	sawIdlePenalty := false
	for _, r := range res.Rows {
		if r.EnergyJ < best {
			best = r.EnergyJ
		}
		if r.NextClickDelayS > 1 {
			sawIdlePenalty = true
		}
	}
	if best <= res.EnergyAwareJ {
		t.Fatalf("a timer setting (%.1f J) beat the energy-aware pipeline (%.1f J)",
			best, res.EnergyAwareJ)
	}
	if !sawIdlePenalty {
		t.Fatal("no timer setting showed the IDLE promotion penalty")
	}
}
