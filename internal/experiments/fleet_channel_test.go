package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"eabrowse/internal/channel"
	"eabrowse/internal/obs"
	"eabrowse/internal/runner"
)

// TestFleetChannelPolicyValidation pins the valid-name-list error contract
// for the channel and policy knobs.
func TestFleetChannelPolicyValidation(t *testing.T) {
	err := FleetConfig{Users: 4, HoursPerUser: 0.02, Channel: "warp-drive"}.Validate()
	if err == nil {
		t.Fatal("unknown channel scenario accepted")
	}
	for _, name := range channel.Scenarios() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("channel error %q missing scenario %q", err, name)
		}
	}

	err = FleetConfig{Users: 4, HoursPerUser: 0.02, Policy: "oracle"}.Validate()
	if err == nil {
		t.Fatal("unsupported policy accepted")
	}
	for _, name := range []string{"adaptive", "static"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("policy error %q missing %q", err, name)
		}
	}

	for _, cfg := range []FleetConfig{
		{Users: 4, HoursPerUser: 0.02, Channel: "fading"},
		{Users: 4, HoursPerUser: 0.02, Policy: "adaptive"},
		{Users: 4, HoursPerUser: 0.02, Channel: "steady-3g", Policy: "static"},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", cfg, err)
		}
	}
}

// TestFleetChannelSlowsTransfers: a degraded scenario must stretch the
// fleet's transmission times relative to the fixed ideal link, and the
// result must echo the channel and resolved policy.
func TestFleetChannelSlowsTransfers(t *testing.T) {
	base := FleetConfig{Users: 6, HoursPerUser: 0.03, Seed: 7}
	ideal, err := Fleet(base)
	if err != nil {
		t.Fatalf("Fleet (ideal): %v", err)
	}
	if ideal.Channel != "" || ideal.Policy != "static" {
		t.Fatalf("ideal fleet reports channel %q policy %q", ideal.Channel, ideal.Policy)
	}

	faded := base
	faded.Channel = "fading"
	shaped, err := Fleet(faded)
	if err != nil {
		t.Fatalf("Fleet (fading): %v", err)
	}
	if shaped.Channel != "fading" {
		t.Fatalf("shaped fleet reports channel %q", shaped.Channel)
	}
	if shaped.Visits != ideal.Visits {
		t.Fatalf("visits changed with channel: %d vs %d", shaped.Visits, ideal.Visits)
	}
	if !(shaped.Original.MeanTransmissionS > ideal.Original.MeanTransmissionS) {
		t.Errorf("fading did not stretch transmissions: %.3fs vs ideal %.3fs",
			shaped.Original.MeanTransmissionS, ideal.Original.MeanTransmissionS)
	}
	if !(shaped.Original.EnergyJ > ideal.Original.EnergyJ) {
		t.Errorf("fading did not cost energy: %.1f J vs ideal %.1f J",
			shaped.Original.EnergyJ, ideal.Original.EnergyJ)
	}
}

// TestFleetAdaptivePolicyRuns: the adaptive fleet replays end to end, still
// saves energy against the original pipeline on the paper's radio, and
// reports the policy it ran.
func TestFleetAdaptivePolicyRuns(t *testing.T) {
	cfg := FleetConfig{Users: 6, HoursPerUser: 0.03, Seed: 7, Channel: "congestion-ramp", Policy: "adaptive"}
	res, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("Fleet (adaptive): %v", err)
	}
	if res.Policy != "adaptive" {
		t.Fatalf("result reports policy %q", res.Policy)
	}
	if res.Aware.Predictions == 0 {
		t.Error("adaptive fleet made no predictions")
	}
	if !(res.Aware.EnergyJ < res.Original.EnergyJ) {
		t.Errorf("adaptive pipeline did not save energy: aware %.1f J, original %.1f J",
			res.Aware.EnergyJ, res.Original.EnergyJ)
	}
}

// TestFleetChannelParallelDeterminism: the channel-shaped adaptive fleet is
// byte-identical at any worker count, like every other fleet configuration.
func TestFleetChannelParallelDeterminism(t *testing.T) {
	cfg := FleetConfig{Users: 24, HoursPerUser: 0.02, Seed: 5, Channel: "fading", Policy: "adaptive"}
	defer runner.SetWorkers(runner.Workers())

	runner.SetWorkers(1)
	seq, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("sequential Fleet: %v", err)
	}
	runner.SetWorkers(8)
	par, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("parallel Fleet: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fleet differs between 1 and 8 workers:\n%+v\nvs\n%+v", seq, par)
	}
}

// TestFleetChannelTracedMatchesTemplated cross-checks the two replay engines
// under a channel, for every built-in scenario and both policies. On
// steady-3g, whose single segment makes the template engine's epoch
// approximation exact, the engines agree to 1e-6. On the multi-segment
// scenarios the template engine holds each load at the conditions of the
// segment it starts in, while the traced engine shapes every transfer
// against the full schedule, so energies and transmission times differ by
// the approximation's error, which the test logs (EXPERIMENTS.md records
// it). Visit, prediction and switch counts must agree exactly everywhere.
func TestFleetChannelTracedMatchesTemplated(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay is slow")
	}
	for _, tc := range []struct {
		channel string
		policy  string
		pinned  bool // energies and transmission times pinned to 1e-6
	}{
		{"steady-3g", "adaptive", true},
		{"steady-3g", "static", true},
		{"fading", "static", false},
		{"fading", "adaptive", false},
		{"congestion-ramp", "static", false},
		{"congestion-ramp", "adaptive", false},
		{"cell-handover", "static", false},
		{"cell-handover", "adaptive", false},
		{"bursty-loss", "static", false},
		{"bursty-loss", "adaptive", false},
	} {
		t.Run(tc.channel+"/"+tc.policy, func(t *testing.T) {
			cfg := FleetConfig{Users: 6, HoursPerUser: 0.04, Seed: 13, Channel: tc.channel, Policy: tc.policy}
			analytic, err := Fleet(cfg)
			if err != nil {
				t.Fatalf("templated Fleet: %v", err)
			}
			obs.Enable()
			traced, err := Fleet(cfg)
			obs.Disable()
			if err != nil {
				t.Fatalf("traced Fleet: %v", err)
			}
			if analytic.Visits != traced.Visits {
				t.Errorf("visits: templated %d, traced %d", analytic.Visits, traced.Visits)
			}
			if analytic.Aware.Predictions != traced.Aware.Predictions {
				t.Errorf("predictions: templated %d, traced %d",
					analytic.Aware.Predictions, traced.Aware.Predictions)
			}
			if analytic.Aware.Switches != traced.Aware.Switches {
				t.Errorf("switches: templated %d, traced %d",
					analytic.Aware.Switches, traced.Aware.Switches)
			}
			relClose := func(name string, a, b float64) {
				t.Helper()
				scale := math.Max(math.Abs(a), math.Abs(b))
				rel := 0.0
				if scale > 0 {
					rel = math.Abs(a-b) / scale
				}
				t.Logf("%s: templated %.9f, traced %.9f (rel err %.2e)", name, a, b, rel)
				if tc.pinned && rel > 1e-6 {
					t.Errorf("%s: rel err %.2e above 1e-6", name, rel)
				}
			}
			relClose("original energy", analytic.Original.EnergyJ, traced.Original.EnergyJ)
			relClose("aware energy", analytic.Aware.EnergyJ, traced.Aware.EnergyJ)
			relClose("original mean trans", analytic.Original.MeanTransmissionS, traced.Original.MeanTransmissionS)
			relClose("aware mean trans", analytic.Aware.MeanTransmissionS, traced.Aware.MeanTransmissionS)
		})
	}
}
