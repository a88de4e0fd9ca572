package experiments

import (
	"math"
	"testing"
)

// fleetWith runs Fleet with the fold toggle and sketch budget pinned for the
// duration of the call. budget 0 keeps the sketches exact, so both engines
// feed the capacity model identical distributions.
func fleetWith(t *testing.T, cfg FleetConfig, folded bool, budget int) *FleetResult {
	t.Helper()
	oldOff, oldBudget := fleetFoldOff, fleetSketchBudget
	fleetFoldOff, fleetSketchBudget = !folded, budget
	defer func() { fleetFoldOff, fleetSketchBudget = oldOff, oldBudget }()
	res, err := Fleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetFoldMatchesSequential pins the counted-multiplicity engine
// against the per-visit templated engine: counters and capacity figures must
// agree exactly (with exact sketches the two produce the same transmission
// multiset), energies to floating-point association.
func TestFleetFoldMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		cfg  FleetConfig
	}{
		{"", FleetConfig{Users: 400, HoursPerUser: 0.1, Seed: 20130709}},
		{"lte", FleetConfig{Users: 200, HoursPerUser: 0.1, Seed: 7, RadioMix: "lte:1"}},
		{"umts:0.5,nr:0.5", FleetConfig{Users: 200, HoursPerUser: 0.1, Seed: 11, RadioMix: "umts:0.5,nr:0.5"}},
		{"fading", FleetConfig{Users: 120, HoursPerUser: 0.1, Seed: 3, Channel: "fading"}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			folded := fleetWith(t, cfg, true, 0)
			seq := fleetWith(t, cfg, false, 0)

			if folded.Visits != seq.Visits {
				t.Fatalf("visits: folded %d, sequential %d", folded.Visits, seq.Visits)
			}
			if folded.Aware.Switches != seq.Aware.Switches {
				t.Fatalf("switches: folded %d, sequential %d", folded.Aware.Switches, seq.Aware.Switches)
			}
			if folded.Aware.Predictions != seq.Aware.Predictions {
				t.Fatalf("predictions: folded %d, sequential %d", folded.Aware.Predictions, seq.Aware.Predictions)
			}
			relClose := func(name string, a, b float64) {
				t.Helper()
				scale := math.Max(math.Abs(a), math.Abs(b))
				if scale == 0 {
					return
				}
				if math.Abs(a-b)/scale > 1e-9 {
					t.Fatalf("%s: folded %v, sequential %v (rel %.3g)", name, a, b, math.Abs(a-b)/scale)
				}
			}
			relClose("original energy", folded.Original.EnergyJ, seq.Original.EnergyJ)
			relClose("aware energy", folded.Aware.EnergyJ, seq.Aware.EnergyJ)
			relClose("prediction energy", folded.Aware.PredictionEnergyJ, seq.Aware.PredictionEnergyJ)
			relClose("orig mean trans", folded.Original.MeanTransmissionS, seq.Original.MeanTransmissionS)
			relClose("aware mean trans", folded.Aware.MeanTransmissionS, seq.Aware.MeanTransmissionS)
			// Per-visit energies agree up to association (the fold evaluates
			// constJ + slopeW·r where the cursor walks stage by stage), so a
			// quantile may land on a value differing in the last ulps; the
			// rank it lands on is the same.
			relClose("orig visit p50", folded.Original.VisitEnergyP50J, seq.Original.VisitEnergyP50J)
			relClose("orig visit p95", folded.Original.VisitEnergyP95J, seq.Original.VisitEnergyP95J)
			relClose("orig visit p99", folded.Original.VisitEnergyP99J, seq.Original.VisitEnergyP99J)
			relClose("aware visit p50", folded.Aware.VisitEnergyP50J, seq.Aware.VisitEnergyP50J)
			relClose("aware visit p95", folded.Aware.VisitEnergyP95J, seq.Aware.VisitEnergyP95J)
			relClose("aware visit p99", folded.Aware.VisitEnergyP99J, seq.Aware.VisitEnergyP99J)
			// With exact sketches the capacity inputs are identical multisets,
			// so the simulated figures must match to the bit.
			if folded.Original.SupportedAt2Pct != seq.Original.SupportedAt2Pct ||
				folded.Aware.SupportedAt2Pct != seq.Aware.SupportedAt2Pct {
				t.Fatalf("supported@2%%: folded %d/%d, sequential %d/%d",
					folded.Original.SupportedAt2Pct, folded.Aware.SupportedAt2Pct,
					seq.Original.SupportedAt2Pct, seq.Aware.SupportedAt2Pct)
			}
			if folded.Original.DropPctAtFleet != seq.Original.DropPctAtFleet ||
				folded.Aware.DropPctAtFleet != seq.Aware.DropPctAtFleet {
				t.Fatalf("drop@fleet: folded %v/%v, sequential %v/%v",
					folded.Original.DropPctAtFleet, folded.Aware.DropPctAtFleet,
					seq.Original.DropPctAtFleet, seq.Aware.DropPctAtFleet)
			}
		})
	}
}

// TestFleetSketchWithinTolerance pins the sketch tolerance contract on the
// capacity inputs: with the production budget the distributions the capacity
// model sees may be compressed, but every quantile differs from the exact
// path by at most the sketch's declared ErrorBound, and the reported mean
// transmission time is exact. Proxied through the public result: the mean
// must match the exact run to association error, and the capacity figures
// must agree between the default budget and the exact budget within the
// bisection's quantization (asserted equal here — the default fleet's
// distinct-value count stays under the budget, so no compression fires).
func TestFleetSketchWithinTolerance(t *testing.T) {
	cfg := FleetConfig{Users: 300, HoursPerUser: 0.1, Seed: 20130709}
	def := fleetWith(t, cfg, true, 512)
	exact := fleetWith(t, cfg, true, 0)
	if def.Original.SupportedAt2Pct != exact.Original.SupportedAt2Pct ||
		def.Aware.SupportedAt2Pct != exact.Aware.SupportedAt2Pct {
		t.Fatalf("capacity drifted under default budget: %d/%d vs %d/%d",
			def.Original.SupportedAt2Pct, def.Aware.SupportedAt2Pct,
			exact.Original.SupportedAt2Pct, exact.Aware.SupportedAt2Pct)
	}
	if def.Original.MeanTransmissionS != exact.Original.MeanTransmissionS {
		t.Fatalf("sketch mean not exact: %v vs %v",
			def.Original.MeanTransmissionS, exact.Original.MeanTransmissionS)
	}
}

// TestFoldPlanInvariants walks every template a mixed fleet builds and
// checks the fold-table layout invariants.
func TestFoldPlanInvariants(t *testing.T) {
	cfg := FleetConfig{Users: 60, HoursPerUser: 0.1, Seed: 5, RadioMix: "umts:0.4,lte:0.3,nr:0.3"}
	if _, err := Fleet(cfg); err != nil {
		t.Fatal(err)
	}
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.runShards(cfg, 0, FleetShardCount(cfg)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range rt.templates {
		tmpl := rt.templates[i].Load()
		if tmpl == nil {
			continue
		}
		n++
		if int(tmpl.id) != i {
			t.Errorf("template in slot %d carries id %d", i, tmpl.id)
		}
		if err := tmpl.fold.check(); err != nil {
			t.Error(err)
		}
	}
	if n == 0 {
		t.Fatal("no templates built")
	}
}

// TestFleetShardRangeValidation exercises the exported shard API's bounds.
func TestFleetShardRangeValidation(t *testing.T) {
	cfg := FleetConfig{Users: 50, HoursPerUser: 0.05, Seed: 1}
	total := FleetShardCount(cfg)
	if total != 50 {
		t.Fatalf("FleetShardCount = %d, want 50 (one per user below %d)", total, fleetShards)
	}
	if _, err := RunFleetShards(cfg, -1, 2); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := RunFleetShards(cfg, 3, 3); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := RunFleetShards(cfg, 0, total+1); err == nil {
		t.Fatal("out-of-range hi accepted")
	}
	outs, err := RunFleetShards(cfg, 0, total)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FleetFromShards(cfg, outs[:total-1]); err == nil {
		t.Fatal("incomplete shard set accepted")
	}
	bad := append([]FleetShardResult(nil), outs...)
	bad[0], bad[1] = bad[1], bad[0]
	if _, err := FleetFromShards(cfg, bad); err == nil {
		t.Fatal("out-of-order shard set accepted")
	}
	if _, err := FleetFromShards(cfg, outs); err != nil {
		t.Fatal(err)
	}
}
