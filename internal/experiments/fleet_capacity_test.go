package experiments

import (
	"encoding/json"
	"testing"

	"eabrowse/internal/capacity"
	"eabrowse/internal/stats"
)

// syntheticFleetShards hand-builds a complete shard set for cfg: a few
// distinct transmission times and visit energies per shard, the aware
// pipeline's a little shorter. With emptyAware the aware transmission
// sketches stay empty, so the aware side has no service-time distribution.
func syntheticFleetShards(cfg FleetConfig, emptyAware bool) []FleetShardResult {
	outs := make([]FleetShardResult, FleetShardCount(cfg))
	for i := range outs {
		o := FleetShardResult{
			Shard:       i,
			Visits:      int64(100 + i),
			Switches:    int64(i),
			Predictions: int64(2 * i),
			OrigJ:       1000 + float64(i),
			AwareJ:      800 + float64(i),
			PredJ:       0.5 * float64(i),
			OrigTrans:   stats.NewSketch(fleetSketchBudget),
			AwareTrans:  stats.NewSketch(fleetSketchBudget),
			OrigVisitJ:  stats.NewSketch(fleetSketchBudget),
			AwareVisitJ: stats.NewSketch(fleetSketchBudget),
		}
		for k := 0; k < 4; k++ {
			v := 15 + float64((i+k)%7)*2
			n := int64(10 + k + i%5)
			o.OrigTrans.Observe(v, n)
			if !emptyAware {
				o.AwareTrans.Observe(0.8*v, n)
			}
			o.OrigVisitJ.Observe(3*v, n)
			o.AwareVisitJ.Observe(2.5*v, n)
		}
		outs[i] = o
	}
	return outs
}

// TestFleetFromShardsPoolInvariant pins the capacity phase's concurrency:
// FleetFromShards runs its four capacity answers on the pool, and any pool
// size must give byte-identical results, or the same error, as one worker.
func TestFleetFromShardsPoolInvariant(t *testing.T) {
	small := FleetConfig{Users: 1500, HoursPerUser: 0.1, Seed: 20130709}
	smallOuts, err := RunFleetShards(small, 0, FleetShardCount(small))
	if err != nil {
		t.Fatal(err)
	}
	large := FleetConfig{Users: 300_000, HoursPerUser: 0.25, Seed: 7}
	if FleetShardCount(large) != 64 || large.Users <= capacity.MaxSimulatedFleet {
		t.Fatalf("large case no longer takes 64 shards and the Erlang-B drop")
	}
	cases := []struct {
		name    string
		cfg     FleetConfig
		outs    []FleetShardResult
		wantErr string
	}{
		{"simulated", small, smallOuts, ""},
		{"erlang-b", large, syntheticFleetShards(large, false), ""},
		{"empty-aware", large, syntheticFleetShards(large, true), "capacity: empty service-time distribution"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, workers := range []int{1, 2, 8} {
				var res *FleetResult
				var err error
				withWorkers(t, workers, func() { res, err = FleetFromShards(tc.cfg, tc.outs) })
				if tc.wantErr != "" {
					if err == nil || err.Error() != tc.wantErr {
						t.Fatalf("pool %d: error %v, want %q", workers, err, tc.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("pool %d: %v", workers, err)
				}
				if res.Original.SupportedAt2Pct <= 0 || res.Aware.SupportedAt2Pct <= 0 {
					t.Fatalf("pool %d: capacity not filled: %+v", workers, res)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if string(got) != string(want) {
					t.Fatalf("pool %d diverged from pool 1:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}
