package experiments

import (
	"reflect"
	"testing"

	"eabrowse/internal/browser"
	"eabrowse/internal/faults"
)

func TestChaosLossGrid(t *testing.T) {
	tests := []struct {
		maxLoss float64
		want    []float64
	}{
		{0, []float64{0}},
		{0.05, []float64{0, 0.02, 0.05}},
		{0.07, []float64{0, 0.02, 0.05, 0.07}},
		{0.30, []float64{0, 0.02, 0.05, 0.10, 0.20, 0.30}},
	}
	for _, tt := range tests {
		if got := chaosLossGrid(tt.maxLoss); !reflect.DeepEqual(got, tt.want) {
			t.Fatalf("chaosLossGrid(%v) = %v, want %v", tt.maxLoss, got, tt.want)
		}
	}
}

func TestChaosSweepRejectsBadLoss(t *testing.T) {
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, err := ChaosSweep(DefaultChaosProfile(), bad); err == nil {
			t.Fatalf("ChaosSweep accepted max loss %v", bad)
		}
	}
}

// TestChaosSweepDeterministicAndLive is the two central acceptance checks in
// one sweep (they share the expensive part): a fixed seed plus nonzero fault
// rates give byte-identical results across runs, and the energy-aware
// pipeline completes every page load at every loss rate up to and including
// 10% — degraded, never hung.
func TestChaosSweepDeterministicAndLive(t *testing.T) {
	profile := DefaultChaosProfile()
	a, err := ChaosSweep(profile, 0.10)
	if err != nil {
		t.Fatalf("ChaosSweep: %v", err)
	}
	b, err := ChaosSweep(profile, 0.10)
	if err != nil {
		t.Fatalf("ChaosSweep (second run): %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two chaos sweeps with identical inputs diverged")
	}
	if len(a.Points) == 0 {
		t.Fatal("sweep produced no points")
	}
	sawTenPct := false
	for _, p := range a.Points {
		for _, st := range []ChaosModeStats{p.Original, p.Aware} {
			if st.Completed != a.Pages {
				t.Fatalf("loss %.0f%% (%v): %d/%d loads completed",
					p.LossPct, st.Mode, st.Completed, a.Pages)
			}
			if st.EnergyJ <= 0 || st.LoadS <= 0 {
				t.Fatalf("loss %.0f%% (%v): non-positive aggregates %+v", p.LossPct, st.Mode, st)
			}
		}
		if p.LossPct == 10 {
			sawTenPct = true
		}
	}
	if !sawTenPct {
		t.Fatal("sweep to 10% never visited the 10% point")
	}
	// The background impairment mix must leave visible traces somewhere in
	// the sweep; a silent sweep means the injector is not wired in.
	traces := 0
	for _, p := range a.Points {
		traces += p.Aware.FetchRetries + p.Aware.LinkRetries + p.Aware.FailedTransfers +
			p.Original.FetchRetries + p.Original.LinkRetries + p.Original.FailedTransfers
	}
	if traces == 0 {
		t.Fatal("no retries or failures recorded anywhere in the sweep")
	}
}

// TestChaosZeroRatesSeedIndependent: with every fault rate zero the injector
// must be inert, so the seed cannot matter and no impairment may be counted.
func TestChaosZeroRatesSeedIndependent(t *testing.T) {
	quiet := faults.Config{Seed: 123}
	a, err := ChaosSweep(quiet, 0)
	if err != nil {
		t.Fatalf("ChaosSweep: %v", err)
	}
	quiet.Seed = 456
	b, err := ChaosSweep(quiet, 0)
	if err != nil {
		t.Fatalf("ChaosSweep: %v", err)
	}
	// Seeds differ, so strip them before comparing the measurements.
	a.Seed, b.Seed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zero-rate sweep depends on the seed")
	}
	p := a.Points[0]
	for _, st := range []ChaosModeStats{p.Original, p.Aware} {
		if st.Degraded != 0 || st.FetchRetries != 0 || st.LinkRetries != 0 ||
			st.FailedObjects != 0 || st.FailedTransfers != 0 || st.DormancyFailures != 0 {
			t.Fatalf("zero-rate sweep recorded impairments: %+v", st)
		}
	}
}

// TestNewFaultySessionWiring: a session built with WithFaultInjector must
// expose the shared injector and the RIL endpoint so callers can inspect them.
func TestNewFaultySessionWiring(t *testing.T) {
	s, err := New(browser.ModeEnergyAware, WithFaultInjector(faults.Config{Seed: 9, FailRate: 0.1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.RIL == nil || s.Faults == nil {
		t.Fatal("RIL or Faults not exposed on the session")
	}
	if !s.Faults.Enabled() {
		t.Fatal("injector with nonzero rates reports disabled")
	}
	if !s.Link.FaultsActive() {
		t.Fatal("link does not report the injector")
	}
	if _, err := New(browser.ModeEnergyAware, WithFaultInjector(faults.Config{FailRate: -1})); err == nil {
		t.Fatal("invalid fault config accepted")
	}
}
