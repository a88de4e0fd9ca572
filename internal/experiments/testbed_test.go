package experiments

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eabrowse/internal/rrc"
)

// scaledTestbed multiplies every power and energy input of b by k: each
// radio's state, transmit, promotion and release powers and its signaling
// lumps, the browser's CPU busy power and the device's prediction power.
func scaledTestbed(b testbed, k float64) testbed {
	u := &b.umts
	for _, w := range []*float64{
		&u.PowerIdle, &u.PowerFACH, &u.PowerDCHIdle, &u.PowerDCHTx, &u.PowerPromo,
		&u.PowerRelease, &u.ReleaseSignalEnergy, &u.PromoIdleSignalEnergy,
		&b.cost.CPUActiveWatts, &b.device.CPUWatts,
	} {
		*w *= k
	}
	b.lte, b.nr = scaledChain(b.lte, k), scaledChain(b.nr, k)
	return b
}

func scaledChain(c rrc.ChainSpec, k float64) rrc.ChainSpec {
	c.Stable = slices.Clone(c.Stable)
	for i := range c.Stable {
		c.Stable[i].PowerW *= k
		c.Stable[i].PromoLumpJ *= k
	}
	c.TxPowerW *= k
	c.PromoPowerW *= k
	c.ReleasePowerW *= k
	c.ReleaseLumpJ *= k
	return c
}

// invariantRuns is the evaluation the ×2 relation is checked over: the
// paper's figures and tables that involve energy or power, the design
// ablations, the chaos sweep, the scenario matrix and two 2,000-user
// mixed-RAN fleets (static on the fixed link, adaptive on a fading channel).
var invariantRuns = []struct {
	name string
	run  func() (any, error)
}{
	{"fig1", func() (any, error) { return Fig1() }},
	{"fig3", func() (any, error) { return Fig3() }},
	{"fig4", func() (any, error) { return Fig4() }},
	{"fig8", func() (any, error) { return Fig8() }},
	{"fig9", func() (any, error) { return Fig9() }},
	{"fig10", func() (any, error) { return Fig10() }},
	{"fig11", func() (any, error) { return Fig11() }},
	{"fig12", func() (any, error) { return Fig12() }},
	{"fig14", func() (any, error) { return Fig14() }},
	{"fig16", func() (any, error) { return Fig16() }},
	{"table5", func() (any, error) { return Table5(), nil }},
	{"table7", func() (any, error) { return Table7() }},
	{"reorder", func() (any, error) { return Reorder() }},
	{"ablation", func() (any, error) { return Ablations() }},
	{"timers", func() (any, error) { return TimerSweep() }},
	{"chaos", func() (any, error) { return ChaosSweep(DefaultChaosProfile(), 0.30) }},
	{"scenarios", func() (any, error) { return Scenarios() }},
	{"fleet-static", func() (any, error) {
		return Fleet(FleetConfig{Users: 2000, HoursPerUser: 0.2, Seed: 20130709,
			RadioMix: "umts:0.5,lte:0.3,nr:0.2"})
	}},
	{"fleet-adaptive", func() (any, error) {
		return Fleet(FleetConfig{Users: 2000, HoursPerUser: 0.2, Seed: 20130709,
			RadioMix: "umts:0.5,lte:0.3,nr:0.2", Channel: "fading", Policy: "adaptive"})
	}},
}

// runUnder runs every invariant experiment on a cold artifact cache under
// the given testbed.
func runUnder(t *testing.T, b testbed) []any {
	t.Helper()
	old := bed
	bed = b
	defer func() { bed = old }()
	ResetArtifacts()
	out := make([]any, len(invariantRuns))
	for i, r := range invariantRuns {
		res, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		out[i] = res
	}
	return out
}

// TestDoublePowerDoublesEnergy is the testbed's physical invariant: doubling
// every watt and joule input doubles every energy and power the evaluation
// reports, bit for bit (×2 is exact in binary floating point), and moves
// nothing else: every time, count, decision and saving percentage is
// identical, because the policies decide on ratios of energies. A power
// literal that bypasses the testbed breaks the relation. The one exception
// is Table 7's GoWallTime, which is wall clock.
func TestDoublePowerDoublesEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the evaluation twice")
	}
	if raceEnabled {
		t.Skip("runs the evaluation twice; too slow under the race detector")
	}
	defer ResetArtifacts()
	base := runUnder(t, bed)
	scaled := runUnder(t, scaledTestbed(bed, 2))
	w := doubleWalk{t: t, nonzero: map[string]bool{}}
	for i, r := range invariantRuns {
		w.walk(r.name, "", reflect.ValueOf(base[i]), reflect.ValueOf(scaled[i]))
	}
	for field, nz := range w.nonzero {
		if !nz {
			t.Errorf("%s is zero in every result, so the relation does not test it", field)
		}
	}
	t.Logf("%d energy and power values doubled", w.energies)
}

// doubleWalk compares an unscaled result with its ×2 counterpart field by
// field.
type doubleWalk struct {
	t *testing.T
	// energies counts the energy and power fields seen; nonzero records,
	// per struct field, whether any instance was nonzero.
	energies int
	nonzero  map[string]bool
}

// energyField reports whether a field carries joules or watts by the
// repository's naming convention.
func energyField(name string) bool {
	return strings.HasSuffix(name, "J") || strings.HasSuffix(name, "W") || strings.HasSuffix(name, "Watts")
}

func (w *doubleWalk) walk(path, field string, base, scaled reflect.Value) {
	w.t.Helper()
	switch base.Kind() {
	case reflect.Pointer, reflect.Interface:
		if base.IsNil() != scaled.IsNil() {
			w.t.Errorf("%s: nil %v vs %v", path, base.IsNil(), scaled.IsNil())
			return
		}
		if !base.IsNil() {
			w.walk(path, field, base.Elem(), scaled.Elem())
		}
	case reflect.Struct:
		typ := base.Type()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if typ.Name() == "Table7Row" && f.Name == "GoWallTime" {
				continue
			}
			w.walk(path+"."+f.Name, typ.Name()+"."+f.Name, base.Field(i), scaled.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if base.Len() != scaled.Len() {
			w.t.Errorf("%s: length %d vs %d", path, base.Len(), scaled.Len())
			return
		}
		for i := 0; i < base.Len(); i++ {
			w.walk(path+"["+strconv.Itoa(i)+"]", field, base.Index(i), scaled.Index(i))
		}
	case reflect.Float64:
		b, s := base.Float(), scaled.Float()
		name := field[strings.LastIndexByte(field, '.')+1:]
		switch {
		case !energyField(name):
			if math.Float64bits(b) != math.Float64bits(s) {
				w.t.Errorf("%s: %v moved to %v under ×2 power", path, b, s)
			}
			return
		case s != 2*b:
			w.t.Errorf("%s: %v is not 2 × %v", path, s, b)
		}
		w.energies++
		w.nonzero[field] = w.nonzero[field] || b != 0
	case reflect.Int, reflect.Int64:
		if base.Int() != scaled.Int() {
			w.t.Errorf("%s: %d moved to %d under ×2 power", path, base.Int(), scaled.Int())
		}
	case reflect.String:
		if base.String() != scaled.String() {
			w.t.Errorf("%s: %q moved to %q under ×2 power", path, base.String(), scaled.String())
		}
	case reflect.Bool:
		if base.Bool() != scaled.Bool() {
			w.t.Errorf("%s: %v moved to %v under ×2 power", path, base.Bool(), scaled.Bool())
		}
	default:
		w.t.Fatalf("%s: unhandled kind %v", path, base.Kind())
	}
}

// TestPinnedExperimentsIgnoreDefaultRadio: the experiments that measure the
// paper's UMTS phone read the testbed's UMTS spec whatever
// SetDefaultRadioProfile selects — Fig. 1, Fig. 3, Table 5, Fig. 16, the
// dormancy ablations and the whole timer sweep, grid and energy-aware line —
// while the session-based experiments, such as Fig. 10, follow the selection.
func TestPinnedExperimentsIgnoreDefaultRadio(t *testing.T) {
	runs := []struct {
		name   string
		pinned bool
		run    func() (any, error)
	}{
		{"fig1", true, func() (any, error) { return Fig1() }},
		{"fig3", true, func() (any, error) { return Fig3() }},
		{"table5", true, func() (any, error) { return Table5(), nil }},
		{"fig16", true, func() (any, error) { return Fig16() }},
		{"ablation", true, func() (any, error) { return Ablations() }},
		{"timers grid", true, func() (any, error) {
			r, err := TimerSweep()
			if err != nil {
				return nil, err
			}
			return r.Rows, nil
		}},
		{"timers energy-aware", true, func() (any, error) {
			r, err := TimerSweep()
			if err != nil {
				return nil, err
			}
			return r.EnergyAwareJ, nil
		}},
		{"fig10", false, func() (any, error) { return Fig10() }},
	}
	collect := func() []any {
		out := make([]any, len(runs))
		for i, r := range runs {
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			out[i] = res
		}
		return out
	}
	umts := collect()
	if err := SetDefaultRadioProfile("lte"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetDefaultRadioProfile("umts"); err != nil {
			t.Fatal(err)
		}
	}()
	lte := collect()
	for i, r := range runs {
		if same := reflect.DeepEqual(umts[i], lte[i]); same != r.pinned {
			t.Errorf("%s: result under the lte default equal to umts's = %v, want %v", r.name, same, r.pinned)
		}
	}
}
