package browser

import (
	"strings"
	"testing"

	"eabrowse/internal/channel"
	"eabrowse/internal/netsim"
	"eabrowse/internal/rrc"
)

// TestLoadFreshMatchesRig checks that LoadFresh builds the same phone as a
// hand-wired clock, UMTS radio, calibrated link and engine: every timing and
// energy of the load is equal.
func TestLoadFreshMatchesRig(t *testing.T) {
	page := testPage(t)
	for _, mode := range []Mode{ModeOriginal, ModeEnergyAware} {
		want := newRig(t, mode).load(t, page)
		got, err := LoadFresh(page, mode, rrc.DefaultConfig(), netsim.DefaultConfig(), DefaultCostModel(), nil)
		if err != nil {
			t.Fatalf("%v: LoadFresh: %v", mode, err)
		}
		if got.FinalDisplayAt != want.FinalDisplayAt || got.TransmissionTime != want.TransmissionTime ||
			got.RadioEnergyJ != want.RadioEnergyJ || got.CPUEnergyJ != want.CPUEnergyJ {
			t.Errorf("%v: LoadFresh %+v, rig %+v", mode, got, want)
		}
	}
}

// TestRunCapsWedgedLoad checks the one page-load cap: a load that cannot
// reach its final display within maxLoadTime of simulated time is an error,
// not an endless simulation.
func TestRunCapsWedgedLoad(t *testing.T) {
	sched, err := channel.Constant("wedged", channel.Conditions{
		BandwidthFactor: channel.MinBandwidthFactor,
		ExtraRTT:        channel.MaxExtraRTT,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadFresh(testPage(t), ModeOriginal, rrc.DefaultConfig(), netsim.DefaultConfig(), DefaultCostModel(), sched)
	if err == nil || !strings.Contains(err.Error(), "did not finish within 30m0s") {
		t.Fatalf("wedged load returned %v, want the 30-minute cap error", err)
	}
}
