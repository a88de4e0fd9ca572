package policy

import (
	"math"
	"testing"
	"time"

	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

func TestShouldSwitchToIdle(t *testing.T) {
	delay := DefaultParams() // delay-driven
	power := DefaultParams()
	power.Mode = ModePower
	tests := []struct {
		name      string
		predicted time.Duration
		params    Params
		want      bool
	}{
		{"delay mode, short read", 5 * time.Second, delay, false},
		{"delay mode, above Tp only", 12 * time.Second, delay, false},
		{"delay mode, above Td", 25 * time.Second, delay, true},
		{"power mode, short read", 5 * time.Second, power, false},
		{"power mode, above Tp", 12 * time.Second, power, true},
		{"power mode, above Td", 25 * time.Second, power, true},
		{"boundary Td exact", 20 * time.Second, delay, false},
		{"boundary Tp exact", 9 * time.Second, power, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ShouldSwitchToIdle(tt.predicted, tt.params); got != tt.want {
				t.Fatalf("ShouldSwitchToIdle(%v) = %v, want %v", tt.predicted, got, tt.want)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if ModeDelay.String() != "delay-driven" || ModePower.String() != "power-driven" {
		t.Fatal("mode names wrong")
	}
	if Mode(0).String() != "unknown-mode" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestCaseString(t *testing.T) {
	names := map[Case]string{
		CaseOriginal:      "Original",
		CaseOrigAlwaysOff: "Original Always-off",
		CaseEAAlwaysOff:   "Energy-Aware Always-off",
		CaseAccurate9:     "Accurate-9",
		CasePredict9:      "Predict-9",
		CaseAccurate20:    "Accurate-20",
		CasePredict20:     "Predict-20",
		PolicyStatic:      "static",
		PolicyAdaptive:    "adaptive",
		PolicyOracle:      "oracle",
		Case(0):           "Case(0)",
		PolicyOracle + 1:  "Case(11)",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Fatalf("Case %d = %q, want %q", int(c), got, want)
		}
	}
}

// UMTS tail stages by index in rrc.Config.Tail(): the active stage, the one
// timer-driven intermediate stage, then the terminal stage.
const (
	stageDCH  = 0
	stageFACH = 1
	stageIdle = 2
)

func TestStateAfter(t *testing.T) {
	tail := rrc.DefaultConfig().Tail()
	if tail.TerminalIndex() != stageIdle {
		t.Fatalf("UMTS terminal stage = %d, want %d", tail.TerminalIndex(), stageIdle)
	}
	tests := []struct {
		elapsed float64
		want    int
	}{
		{0, stageDCH},
		{3.9, stageDCH},
		{4.1, stageFACH},
		{18.9, stageFACH},
		{19.1, stageIdle},
		{1000, stageIdle},
	}
	for _, tt := range tests {
		if got := stageAfter(&tail, tt.elapsed); got != tt.want {
			t.Fatalf("stageAfter(%v) = %v, want %v", tt.elapsed, got, tt.want)
		}
	}
}

func TestTailEnergyPiecewise(t *testing.T) {
	cfg := rrc.DefaultConfig()
	tail := cfg.Tail()
	// Entire window in DCH.
	if got, want := tailEnergy(&tail, 0, 2), 2*cfg.PowerDCHIdle; math.Abs(got-want) > 1e-9 {
		t.Fatalf("DCH window = %v, want %v", got, want)
	}
	// Spanning DCH → FACH → idle: 4 s DCH + 15 s FACH + 1 s idle.
	want := 4*cfg.PowerDCHIdle + 15*cfg.PowerFACH + 1*cfg.PowerIdle
	if got := tailEnergy(&tail, 0, 20); math.Abs(got-want) > 1e-9 {
		t.Fatalf("20s window = %v, want %v", got, want)
	}
	// Starting mid-FACH.
	want = 10*cfg.PowerFACH + 5*cfg.PowerIdle
	if got := tailEnergy(&tail, 9, 15); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mid-FACH window = %v, want %v", got, want)
	}
	// Zero/negative duration.
	if tailEnergy(&tail, 5, 0) != 0 || tailEnergy(&tail, 5, -3) != 0 {
		t.Fatal("empty window has energy")
	}
}

// TestTailEnergyMatchesRRCMachine cross-checks the closed-form tail against
// the event-driven RRC machine over several windows.
func TestTailEnergyMatchesRRCMachine(t *testing.T) {
	cfg := rrc.DefaultConfig()
	tail := cfg.Tail()
	for _, windowS := range []float64{1, 3.5, 7, 12, 19, 25, 60} {
		clock := simtime.NewClock()
		m, err := rrc.NewMachine(clock, cfg)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		// Drive to DCH, run one instantaneous-ish transfer, then measure the
		// tail window.
		m.RequestActive(func() {
			if err := m.BeginTransfer(); err != nil {
				t.Fatalf("BeginTransfer: %v", err)
			}
			clock.After(time.Millisecond, func() {
				if err := m.EndTransfer(); err != nil {
					t.Fatalf("EndTransfer: %v", err)
				}
			})
		})
		clock.RunUntil(cfg.PromoIdleToDCH + time.Millisecond)
		tailStart := m.EnergyJ()
		clock.RunFor(time.Duration(windowS * float64(time.Second)))
		got := m.EnergyJ() - tailStart
		want := tailEnergy(&tail, 0, windowS)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("window %vs: machine %v J vs closed form %v J", windowS, got, want)
		}
	}
}

func TestSwitchedWindowEnergy(t *testing.T) {
	cfg := rrc.DefaultConfig()
	tail := cfg.Tail()
	// Switch immediately in a 20 s window starting right after a transfer:
	// release delay at release power + lump + idle for the rest.
	rel := cfg.ReleaseDelay.Seconds()
	want := rel*cfg.PowerRelease + cfg.ReleaseSignalEnergy + (20-rel)*cfg.PowerIdle
	if got := switchedWindowEnergy(&tail, 0, 20, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("switched window = %v, want %v", got, want)
	}
	// Switch at 2 s: 2 s of DCH first.
	want = 2*cfg.PowerDCHIdle + rel*cfg.PowerRelease + cfg.ReleaseSignalEnergy + (18-rel)*cfg.PowerIdle
	if got := switchedWindowEnergy(&tail, 0, 20, 2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("switched@2 window = %v, want %v", got, want)
	}
	// Switch after the window ends: plain tail.
	if got, want := switchedWindowEnergy(&tail, 0, 5, 10), tailEnergy(&tail, 0, 5); got != want {
		t.Fatalf("late switch = %v, want tail %v", got, want)
	}
}

func TestSwitchedAlwaysCheaperForLongReads(t *testing.T) {
	tail := rrc.DefaultConfig().Tail()
	// For a long reading window the forced release must beat the timers.
	stay := tailEnergy(&tail, 0, 60)
	switched := switchedWindowEnergy(&tail, 0, 60, 2)
	if switched >= stay {
		t.Fatalf("release (%v J) not cheaper than timers (%v J) for 60s read", switched, stay)
	}
	// For a very short window the full cost of releasing — window energy
	// plus the IDLE→DCH re-promotion the next click now pays — must lose
	// (the Fig. 3 lesson).
	stayShort := tailEnergy(&tail, 0, 1)
	_, promoDelta := promoAdjustStage(&tail, stageAfter(&tail, 1))
	stayShort += promoDelta // next load is cheaper from a warm radio
	switchedShort := switchedWindowEnergy(&tail, 0, 1, 0)
	if switchedShort <= stayShort {
		t.Fatalf("release (%v J) beat timers (%v J incl. warm promo) for 1s read", switchedShort, stayShort)
	}
}

func TestPromoAdjust(t *testing.T) {
	tail := rrc.DefaultConfig().Tail()
	dt, dj := promoAdjustStage(&tail, stageIdle)
	if dt != 0 || dj != 0 {
		t.Fatalf("idle adjust = %v,%v, want zero", dt, dj)
	}
	dt, dj = promoAdjustStage(&tail, stageFACH)
	if dt >= 0 || dj >= 0 {
		t.Fatalf("FACH adjust = %v,%v, want negative (faster, cheaper)", dt, dj)
	}
	dtD, djD := promoAdjustStage(&tail, stageDCH)
	if dtD >= dt || djD >= dj {
		t.Fatalf("DCH adjust (%v,%v) not better than FACH (%v,%v)", dtD, djD, dt, dj)
	}
}
