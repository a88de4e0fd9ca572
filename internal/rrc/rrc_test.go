package rrc

import (
	"errors"
	"math"
	"testing"
	"time"

	"eabrowse/internal/simtime"
)

func newTestMachine(t *testing.T, opts ...Option) (*simtime.Clock, *Machine) {
	t.Helper()
	clock := simtime.NewClock()
	m, err := NewMachine(clock, DefaultConfig(), opts...)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return clock, m
}

func TestNewMachineStartsIdle(t *testing.T) {
	_, m := newTestMachine(t)
	if m.State() != StateIdle {
		t.Fatalf("State = %v, want IDLE", m.State())
	}
	if m.Transferring() {
		t.Fatal("new machine reports transferring")
	}
}

func TestNewMachineNilClock(t *testing.T) {
	if _, err := NewMachine(nil, DefaultConfig()); err == nil {
		t.Fatal("NewMachine(nil clock) succeeded")
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero T1", func(c *Config) { c.T1 = 0 }},
		{"zero T2", func(c *Config) { c.T2 = 0 }},
		{"zero promo", func(c *Config) { c.PromoIdleToDCH = 0 }},
		{"negative release delay", func(c *Config) { c.ReleaseDelay = -time.Second }},
		{"FACH below idle", func(c *Config) { c.PowerFACH = 0.01 }},
		{"DCH below FACH", func(c *Config) { c.PowerDCHIdle = 0.2 }},
		{"tx below DCH idle", func(c *Config) { c.PowerDCHTx = 0.5 }},
		{"negative release energy", func(c *Config) { c.ReleaseSignalEnergy = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate succeeded, want error")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestPromotionFromIdle(t *testing.T) {
	clock, m := newTestMachine(t)
	ready := false
	m.RequestActive(func() { ready = true })
	if m.State() != StatePromoIdleDCH {
		t.Fatalf("State = %v, want promo", m.State())
	}
	clock.Run()
	if !ready {
		t.Fatal("DCH callback never ran")
	}
	// Promotion latency consumed, then T1+T2 demotions happened during Run.
	if m.State() != StateIdle {
		t.Fatalf("final State = %v, want IDLE after timers", m.State())
	}
}

func TestPromotionLatency(t *testing.T) {
	clock, m := newTestMachine(t)
	var readyAt time.Duration
	m.RequestActive(func() { readyAt = clock.Now() })
	clock.RunUntil(m.Config().PromoIdleToDCH)
	if readyAt != m.Config().PromoIdleToDCH {
		t.Fatalf("DCH ready at %v, want %v", readyAt, m.Config().PromoIdleToDCH)
	}
}

func TestFACHPromotionFaster(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {})
	clock.RunUntil(m.Config().PromoIdleToDCH) // now DCH
	clock.RunFor(m.Config().T1)               // demoted to FACH
	if m.State() != StateFACH {
		t.Fatalf("State = %v, want FACH after T1", m.State())
	}
	start := clock.Now()
	var readyAt time.Duration
	m.RequestActive(func() { readyAt = clock.Now() })
	clock.RunFor(time.Second)
	if got := readyAt - start; got != m.Config().PromoFACHToDCH {
		t.Fatalf("FACH→DCH latency = %v, want %v", got, m.Config().PromoFACHToDCH)
	}
}

func TestTimerChain(t *testing.T) {
	clock, m := newTestMachine(t, WithTransitionTrace())
	m.RequestActive(func() {
		if err := m.BeginTransfer(); err != nil {
			t.Fatalf("BeginTransfer: %v", err)
		}
		clock.After(time.Second, func() {
			if err := m.EndTransfer(); err != nil {
				t.Fatalf("EndTransfer: %v", err)
			}
		})
	})
	clock.Run()
	cfg := m.Config()
	// Expected: IDLE→promo at 0, promo→DCH at 1.75, transfer 1s,
	// DCH→FACH at 1.75+1+T1, FACH→IDLE T2 later.
	wantFACHAt := cfg.PromoIdleToDCH + time.Second + cfg.T1
	wantIdleAt := wantFACHAt + cfg.T2
	hist := m.History()
	var gotFACHAt, gotIdleAt time.Duration
	for _, tr := range hist {
		if tr.To == StateFACH {
			gotFACHAt = tr.At
		}
		if tr.To == StateIdle {
			gotIdleAt = tr.At
		}
	}
	if gotFACHAt != wantFACHAt {
		t.Fatalf("DCH→FACH at %v, want %v (history %v)", gotFACHAt, wantFACHAt, hist)
	}
	if gotIdleAt != wantIdleAt {
		t.Fatalf("FACH→IDLE at %v, want %v", gotIdleAt, wantIdleAt)
	}
}

func TestTransferResetsT1(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {
		mustBegin(t, m)
		clock.After(time.Second, func() { mustEnd(t, m) })
	})
	clock.RunUntil(m.Config().PromoIdleToDCH + time.Second)
	// 3 s later (inside T1) a new transfer arrives and resets the timer.
	clock.RunFor(3 * time.Second)
	if m.State() != StateDCH {
		t.Fatalf("State = %v, want DCH before T1 expiry", m.State())
	}
	mustBegin(t, m)
	clock.RunFor(2 * time.Second)
	mustEnd(t, m)
	// Still DCH: T1 restarted at transfer end.
	clock.RunFor(m.Config().T1 - time.Second)
	if m.State() != StateDCH {
		t.Fatalf("State = %v, want DCH, T1 should have been reset", m.State())
	}
	clock.RunFor(2 * time.Second)
	if m.State() != StateFACH {
		t.Fatalf("State = %v, want FACH after reset T1 expiry", m.State())
	}
}

func TestBeginTransferOutsideDCHFails(t *testing.T) {
	_, m := newTestMachine(t)
	if err := m.BeginTransfer(); err == nil {
		t.Fatal("BeginTransfer in IDLE succeeded")
	}
}

func TestEndTransferWithoutBeginFails(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {})
	clock.RunUntil(m.Config().PromoIdleToDCH)
	if err := m.EndTransfer(); err == nil {
		t.Fatal("EndTransfer without Begin succeeded")
	}
}

func TestConcurrentTransfers(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {
		mustBegin(t, m)
		mustBegin(t, m)
		clock.After(time.Second, func() { mustEnd(t, m) })
		clock.After(2*time.Second, func() { mustEnd(t, m) })
	})
	clock.RunUntil(m.Config().PromoIdleToDCH + 1500*time.Millisecond)
	if !m.Transferring() {
		t.Fatal("radio idle while one transfer still active")
	}
	clock.RunFor(time.Second)
	if m.Transferring() {
		t.Fatal("radio transferring after both transfers ended")
	}
	// T1 armed only at the last EndTransfer (t=3.75s), so it expires at
	// 3.75s+T1; at 7.25s the radio must still be in DCH.
	clock.RunFor(3 * time.Second)
	if m.State() != StateDCH {
		t.Fatalf("State = %v, want DCH before T1", m.State())
	}
	clock.RunFor(time.Second)
	if m.State() != StateFACH {
		t.Fatalf("State = %v, want FACH after T1", m.State())
	}
}

func TestForceIdleFromFACH(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {})
	clock.RunUntil(m.Config().PromoIdleToDCH)
	clock.RunFor(m.Config().T1) // now FACH
	if err := m.ForceIdle(); err != nil {
		t.Fatalf("ForceIdle: %v", err)
	}
	if m.State() != StateReleasing {
		t.Fatalf("State = %v, want RELEASING", m.State())
	}
	clock.RunFor(m.Config().ReleaseDelay)
	if m.State() != StateIdle {
		t.Fatalf("State = %v, want IDLE after release", m.State())
	}
}

func TestForceIdleWhileTransferringFails(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() { mustBegin(t, m) })
	clock.RunUntil(m.Config().PromoIdleToDCH)
	if err := m.ForceIdle(); !errors.Is(err, ErrBusy) {
		t.Fatalf("ForceIdle during transfer = %v, want ErrBusy", err)
	}
}

func TestForceIdleWhilePromotingFails(t *testing.T) {
	_, m := newTestMachine(t)
	m.RequestActive(func() {})
	if err := m.ForceIdle(); !errors.Is(err, ErrBusy) {
		t.Fatalf("ForceIdle during promo = %v, want ErrBusy", err)
	}
}

func TestForceIdleWhenIdleIsNoop(t *testing.T) {
	_, m := newTestMachine(t)
	if err := m.ForceIdle(); err != nil {
		t.Fatalf("ForceIdle when idle: %v", err)
	}
	if m.State() != StateIdle {
		t.Fatalf("State = %v, want IDLE", m.State())
	}
}

func TestForceIdleChargesReleaseEnergy(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {})
	clock.RunUntil(m.Config().PromoIdleToDCH)
	before := m.EnergyJ()
	if err := m.ForceIdle(); err != nil {
		t.Fatalf("ForceIdle: %v", err)
	}
	after := m.EnergyJ()
	if got := after - before; math.Abs(got-m.Config().ReleaseSignalEnergy) > 1e-9 {
		t.Fatalf("release lump energy = %v, want %v", got, m.Config().ReleaseSignalEnergy)
	}
}

func TestRequestDCHDuringRelease(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {})
	clock.RunUntil(m.Config().PromoIdleToDCH)
	if err := m.ForceIdle(); err != nil {
		t.Fatalf("ForceIdle: %v", err)
	}
	ready := false
	m.RequestActive(func() { ready = true })
	clock.RunFor(m.Config().ReleaseDelay + m.Config().PromoIdleToDCH)
	if !ready {
		t.Fatal("DCH request queued during release never served")
	}
	if m.State() != StateDCH {
		t.Fatalf("State = %v, want DCH", m.State())
	}
}

func TestRadioPowerByState(t *testing.T) {
	clock, m := newTestMachine(t)
	cfg := m.Config()
	if got := m.RadioPower(); got != cfg.PowerIdle {
		t.Fatalf("idle power = %v, want %v", got, cfg.PowerIdle)
	}
	m.RequestActive(func() {})
	if got := m.RadioPower(); got != cfg.PowerPromo {
		t.Fatalf("promo power = %v, want %v", got, cfg.PowerPromo)
	}
	clock.RunUntil(cfg.PromoIdleToDCH)
	if got := m.RadioPower(); got != cfg.PowerDCHIdle {
		t.Fatalf("DCH idle power = %v, want %v", got, cfg.PowerDCHIdle)
	}
	mustBegin(t, m)
	if got := m.RadioPower(); got != cfg.PowerDCHTx {
		t.Fatalf("DCH tx power = %v, want %v", got, cfg.PowerDCHTx)
	}
	mustEnd(t, m)
	clock.RunFor(cfg.T1)
	if got := m.RadioPower(); got != cfg.PowerFACH {
		t.Fatalf("FACH power = %v, want %v", got, cfg.PowerFACH)
	}
}

func TestEnergyIntegrationExact(t *testing.T) {
	clock, m := newTestMachine(t)
	cfg := m.Config()
	m.RequestActive(func() {
		mustBegin(t, m)
		clock.After(2*time.Second, func() { mustEnd(t, m) })
	})
	clock.Run() // promo, 2s tx, T1 in DCH, T2 in FACH, then idle forever
	clock.RunFor(10 * time.Second)
	want := cfg.PromoIdleSignalEnergy +
		cfg.PowerPromo*cfg.PromoIdleToDCH.Seconds() +
		cfg.PowerDCHTx*2 +
		cfg.PowerDCHIdle*cfg.T1.Seconds() +
		cfg.PowerFACH*cfg.T2.Seconds() +
		cfg.PowerIdle*10
	if got := m.EnergyJ(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("EnergyJ = %v, want %v", got, want)
	}
}

func TestTimeInAccounting(t *testing.T) {
	clock, m := newTestMachine(t)
	cfg := m.Config()
	m.RequestActive(func() {
		mustBegin(t, m)
		clock.After(time.Second, func() { mustEnd(t, m) })
	})
	clock.Run()
	clock.RunFor(5 * time.Second)
	if got := m.TimeIn(StateDCH); got != time.Second+cfg.T1 {
		t.Fatalf("TimeIn(DCH) = %v, want %v", got, time.Second+cfg.T1)
	}
	if got := m.TimeIn(StateFACH); got != cfg.T2 {
		t.Fatalf("TimeIn(FACH) = %v, want %v", got, cfg.T2)
	}
	if got := m.TimeIn(StateIdle); got != 5*time.Second {
		t.Fatalf("TimeIn(IDLE) = %v, want 5s", got)
	}
}

func TestTransitionHook(t *testing.T) {
	clock := simtime.NewClock()
	var seen []State
	m, err := NewMachine(clock, DefaultConfig(), WithTransitionHook(func(tr Transition) {
		seen = append(seen, tr.To)
	}))
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	m.RequestActive(func() {})
	clock.Run()
	want := []State{StatePromoIdleDCH, StateDCH, StateFACH, StateIdle}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seen, want)
		}
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		give State
		want string
	}{
		{StateIdle, "IDLE"},
		{StateFACH, "FACH"},
		{StateDCH, "DCH"},
		{StateReleasing, "RELEASING"},
		{State(99), "State(99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Fatalf("String(%d) = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestStableStates(t *testing.T) {
	for _, s := range []State{StateIdle, StateFACH, StateDCH} {
		if !s.Stable() {
			t.Fatalf("%v not stable", s)
		}
	}
	for _, s := range []State{StatePromoIdleDCH, StatePromoFACHDCH, StateReleasing} {
		if s.Stable() {
			t.Fatalf("%v stable", s)
		}
	}
}

func TestRequestDCHNilCallback(t *testing.T) {
	_, m := newTestMachine(t)
	m.RequestActive(nil) // must not panic or change state
	if m.State() != StateIdle {
		t.Fatalf("State = %v after nil request, want IDLE", m.State())
	}
}

func mustBegin(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.BeginTransfer(); err != nil {
		t.Fatalf("BeginTransfer: %v", err)
	}
}

func mustEnd(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.EndTransfer(); err != nil {
		t.Fatalf("EndTransfer: %v", err)
	}
}

func TestResidencySumsToElapsed(t *testing.T) {
	clock, m := newTestMachine(t)
	m.RequestActive(func() {
		mustBegin(t, m)
		clock.After(2*time.Second, func() { mustEnd(t, m) })
	})
	clock.Run()
	clock.RunFor(7 * time.Second)
	res := m.Residency()
	var total time.Duration
	for _, d := range res {
		total += d
	}
	if total != clock.Now() {
		t.Fatalf("residency sums to %v, elapsed %v", total, clock.Now())
	}
	if res[StateDCH] == 0 || res[StateFACH] == 0 || res[StateIdle] == 0 {
		t.Fatalf("residency missing states: %v", res)
	}
	// The returned map is a copy.
	res[StateIdle] = 0
	if m.Residency()[StateIdle] == 0 {
		t.Fatal("Residency exposed internal state")
	}
}

func TestEnergyByStateSumsToTotal(t *testing.T) {
	clock, m := newTestMachine(t)
	cfg := m.Config()
	m.RequestActive(func() {
		mustBegin(t, m)
		clock.After(2*time.Second, func() { mustEnd(t, m) })
	})
	clock.Run()
	clock.RunFor(10 * time.Second)
	byState := m.EnergyVec()
	var sum float64
	for _, j := range byState {
		if j < 0 {
			t.Fatalf("negative per-state energy: %v", byState)
		}
		sum += j
	}
	if got := m.EnergyJ(); math.Abs(sum-got) > 1e-9 {
		t.Fatalf("EnergyVec sums to %v, EnergyJ = %v", sum, got)
	}
	// The per-state split must carry the signaling lump in the promo bucket
	// and the exact per-state integrals everywhere else.
	wantPromo := cfg.PromoIdleSignalEnergy + cfg.PowerPromo*cfg.PromoIdleToDCH.Seconds()
	if got := byState[StatePromoIdleDCH]; math.Abs(got-wantPromo) > 1e-9 {
		t.Fatalf("promo bucket = %v, want %v", got, wantPromo)
	}
	wantFACH := cfg.PowerFACH * cfg.T2.Seconds()
	if got := byState[StateFACH]; math.Abs(got-wantFACH) > 1e-9 {
		t.Fatalf("FACH bucket = %v, want %v", got, wantFACH)
	}
}

func TestEnergyByStateIncludesCurrentPartial(t *testing.T) {
	clock, m := newTestMachine(t)
	cfg := m.Config()
	clock.RunFor(4 * time.Second) // sits in IDLE, no transition yet
	want := cfg.PowerIdle * 4
	if got := m.EnergyVec()[StateIdle]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("IDLE bucket mid-state = %v, want %v", got, want)
	}
}

func TestEnergyByStateChargesReleaseLump(t *testing.T) {
	clock, m := newTestMachine(t)
	cfg := m.Config()
	m.RequestActive(func() {
		mustBegin(t, m)
		clock.After(time.Second, func() {
			mustEnd(t, m)
			// Release early from DCH, before the inactivity timers demote.
			if err := m.ForceIdle(); err != nil {
				t.Errorf("ForceIdle: %v", err)
			}
		})
	})
	clock.Run()
	if m.State() != StateIdle {
		t.Fatalf("expected IDLE after the release, got %v", m.State())
	}
	rel := m.EnergyVec()[StateReleasing]
	wantMin := cfg.ReleaseSignalEnergy
	if rel < wantMin {
		t.Fatalf("RELEASING bucket = %v, want at least the %v signal lump", rel, wantMin)
	}
}
