package experiments

import (
	"math"
	"testing"

	"eabrowse/internal/policy"
)

// TestFig16Bits pins every Table 6 case of Fig. 16 to the last bit. The
// printed figure rounds to %.0f / %.2f, so a reordered float sum in the
// replay could move a result without moving a printed byte; this test
// catches that. The expected values are math.Float64bits of each field.
func TestFig16Bits(t *testing.T) {
	want := []struct {
		c                       policy.Case
		energy, delay, pwr, dly uint64
		switches, predictions   int
	}{
		{policy.CaseOriginal, 0x410154d51b0af04f, 0x40f1660df8ed9c92, 0x0000000000000000, 0x0000000000000000, 0, 0},
		{policy.CaseOrigAlwaysOff, 0x41004364e27d1f34, 0x40f228d5f8ed9c88, 0x4018a6d414928efe, 0xc0117e13bf8c1bae, 3743, 0},
		{policy.CaseEAAlwaysOff, 0x40fd674ad9b2b323, 0x40ef73cae7ff2e26, 0x402e58691b9fab2a, 0x402339bdbe1afddd, 3743, 0},
		{policy.CaseAccurate9, 0x40fc8d94da456c14, 0x40ee6a7ae7ff2e2a, 0x4031a049d9f25edc, 0x40292ea4d7986e64, 2090, 0},
		{policy.CasePredict9, 0x40fcbfc9993c8064, 0x40ee7f42e7ff2e28, 0x40310f726fe46a51, 0x4028b733c2266d4e, 2232, 2722},
		{policy.CaseAccurate20, 0x40fcd4353108bfd8, 0x40ee1552e7ff2e2e, 0x4030d48923bdb283, 0x402b1815ea2dff74, 1254, 0},
		{policy.CasePredict20, 0x40fcf7ad389fe7d2, 0x40ee2f22e7ff2e2c, 0x40306e35ca18d147, 0x402a83b9f544c580, 1400, 2722},
	}
	res, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != len(want) {
		t.Fatalf("got %d cases, want %d", len(res.Cases), len(want))
	}
	for i, w := range want {
		got := res.Cases[i]
		if got.Case != w.c {
			t.Fatalf("case %d is %v, want %v", i, got.Case, w.c)
		}
		for _, f := range []struct {
			name string
			v    float64
			want uint64
		}{
			{"EnergyJ", got.EnergyJ, w.energy},
			{"DelayS", got.DelayS, w.delay},
			{"PowerSavingPct", got.PowerSavingPct, w.pwr},
			{"DelaySavingPct", got.DelaySavingPct, w.dly},
		} {
			if b := math.Float64bits(f.v); b != f.want {
				t.Errorf("%v %s = %v (%#016x), want %v (%#016x)",
					w.c, f.name, f.v, b, math.Float64frombits(f.want), f.want)
			}
		}
		if got.Switches != w.switches || got.Predictions != w.predictions {
			t.Errorf("%v switches/predictions = %d/%d, want %d/%d",
				w.c, got.Switches, got.Predictions, w.switches, w.predictions)
		}
	}
}
