package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestFleetRadioValidation checks the radio selection's failure modes: every
// malformed mix string, single-profile mixes included, is rejected with a
// pointed error.
func TestFleetRadioValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  FleetConfig
		want string
	}{
		{"unknown single profile",
			FleetConfig{Users: 2, HoursPerUser: 0.01, RadioMix: "wimax:1"},
			"unknown radio profile"},
		{"mix entry without weight",
			FleetConfig{Users: 2, HoursPerUser: 0.01, RadioMix: "umts"},
			"not name:weight"},
		{"mix with unknown profile",
			FleetConfig{Users: 2, HoursPerUser: 0.01, RadioMix: "umts:0.5,zz:0.5"},
			"unknown radio profile"},
		{"mix with duplicate profile",
			FleetConfig{Users: 2, HoursPerUser: 0.01, RadioMix: "lte:0.5,lte:0.5"},
			"twice"},
		{"mix with zero weight",
			FleetConfig{Users: 2, HoursPerUser: 0.01, RadioMix: "umts:0,lte:1"},
			"positive number"},
		{"mix with negative weight",
			FleetConfig{Users: 2, HoursPerUser: 0.01, RadioMix: "umts:-1,lte:1"},
			"positive number"},
		{"mix with garbage weight",
			FleetConfig{Users: 2, HoursPerUser: 0.01, RadioMix: "umts:heavy"},
			"positive number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Fleet(tc.cfg)
			if err == nil {
				t.Fatalf("Fleet accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFleetExplicitUMTSMatchesDefault pins the refactor's no-perturbation
// contract on the fleet path: a one-entry "umts:1" mix must reproduce the
// default fleet bit for bit (same templates, same cursor arithmetic, no
// radio-assignment draw on single-profile fleets).
func TestFleetExplicitUMTSMatchesDefault(t *testing.T) {
	cfg := FleetConfig{Users: 6, HoursPerUser: 0.02, Seed: 11}
	def, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("default Fleet: %v", err)
	}
	cfg.RadioMix = "umts:1"
	named, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("umts Fleet: %v", err)
	}
	if !reflect.DeepEqual(def, named) {
		t.Fatalf("explicit umts fleet diverged from default:\ndefault: %+v\numts:    %+v", def, named)
	}
	if def.Radio != "umts" {
		t.Errorf("Radio = %q, want umts", def.Radio)
	}
}

// TestFleetSingleRadioBackends runs a small fleet on each non-default backend
// end to end: the replay must complete, visits must flow, and the energy-aware
// pipeline must still win.
func TestFleetSingleRadioBackends(t *testing.T) {
	for _, profile := range []string{"lte", "nr"} {
		t.Run(profile, func(t *testing.T) {
			res, err := Fleet(FleetConfig{Users: 4, HoursPerUser: 0.02, Seed: 3, RadioMix: profile + ":1"})
			if err != nil {
				t.Fatalf("Fleet(%s): %v", profile, err)
			}
			if res.Radio != profile {
				t.Errorf("Radio = %q, want %q", res.Radio, profile)
			}
			if res.Visits == 0 {
				t.Fatal("fleet replayed no visits")
			}
			if res.Aware.EnergyJ >= res.Original.EnergyJ {
				t.Errorf("energy-aware %.1f J >= original %.1f J on %s",
					res.Aware.EnergyJ, res.Original.EnergyJ, profile)
			}
		})
	}
}

// TestFleetRadioMixParallelDeterminism extends the 1-vs-N worker identity
// gate to a mixed-RAN fleet: the per-user profile draw comes from the trace
// seed, not from scheduling, so worker count must not change a single field.
func TestFleetRadioMixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay is slow")
	}
	cfg := FleetConfig{Users: 12, HoursPerUser: 0.05, Seed: 7,
		RadioMix: "umts:0.5,lte:0.3,nr:0.2"}
	var seq, par *FleetResult
	withWorkers(t, 1, func() {
		var err error
		if seq, err = Fleet(cfg); err != nil {
			t.Fatalf("sequential Fleet: %v", err)
		}
	})
	withWorkers(t, 8, func() {
		var err error
		if par, err = Fleet(cfg); err != nil {
			t.Fatalf("parallel Fleet: %v", err)
		}
	})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("mixed-RAN fleet diverged between 1 and 8 workers:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.Visits == 0 {
		t.Fatal("fleet replayed no visits")
	}
	if want := "umts:0.50,lte:0.30,nr:0.20"; seq.Radio != want {
		t.Errorf("Radio = %q, want %q", seq.Radio, want)
	}
}

// TestFleetMixWeightsNormalize checks that mix weights are ratios, not
// probabilities: "umts:3,lte:1" and "umts:0.75,lte:0.25" assign users
// identically.
func TestFleetMixWeightsNormalize(t *testing.T) {
	cfg := FleetConfig{Users: 8, HoursPerUser: 0.02, Seed: 5}
	cfg.RadioMix = "umts:3,lte:1"
	a, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("ratio mix: %v", err)
	}
	cfg.RadioMix = "umts:0.75,lte:0.25"
	b, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("probability mix: %v", err)
	}
	// The description echoes the normalized weights, so both spell the same.
	if a.Radio != b.Radio {
		t.Fatalf("Radio descriptions differ: %q vs %q", a.Radio, b.Radio)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("normalized mixes diverged:\nratio: %+v\nprob:  %+v", a, b)
	}
}
