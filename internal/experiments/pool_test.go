package experiments

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"eabrowse/internal/browser"
	"eabrowse/internal/faults"
	"eabrowse/internal/obs"
)

// resultSnapshot copies the value-comparable part of a load result. Events
// and Ledger are pointers into engine-owned buffers (reused under
// WithReusableResults), so identity comparisons go through this copy.
func resultSnapshot(r *browser.Result) browser.Result {
	snap := *r
	snap.Events = nil
	snap.Ledger = nil
	return snap
}

// TestPooledSessionMatchesFresh is the pooling layer's core guarantee: a
// visit on a recycled session is byte-identical to the same visit on a
// brand-new phone — pooled buffers change where the bytes live, never what
// they say.
func TestPooledSessionMatchesFresh(t *testing.T) {
	pages, err := BenchmarkPages()
	if err != nil {
		t.Fatal(err)
	}
	pages = pages[:4]
	// Visit sequence with repeats, so the plan cache and pooled buffers see
	// both cold and warm pages.
	seq := []int{0, 1, 2, 3, 1, 0, 3, 2, 0, 0}
	for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
		pool := NewSessionPool(mode, WithEngineOptions(browser.WithReusableResults()))
		for i, pi := range seq {
			fresh, err := New(mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.LoadToEnd(pages[pi])
			if err != nil {
				t.Fatalf("%v fresh %s: %v", mode, pages[pi].Name, err)
			}
			pooled, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			got, err := pooled.LoadToEnd(pages[pi])
			if err != nil {
				t.Fatalf("%v pooled %s: %v", mode, pages[pi].Name, err)
			}
			if !reflect.DeepEqual(resultSnapshot(got), resultSnapshot(want)) {
				t.Fatalf("%v visit %d (%s): pooled result diverged from fresh\npooled: %+v\nfresh:  %+v",
					mode, i, pages[pi].Name, resultSnapshot(got), resultSnapshot(want))
			}
			if pooled.Clock.Now() != fresh.Clock.Now() {
				t.Fatalf("%v visit %d: pooled clock %v, fresh clock %v",
					mode, i, pooled.Clock.Now(), fresh.Clock.Now())
			}
			if pooled.Radio.EnergyJ() != fresh.Radio.EnergyJ() {
				t.Fatalf("%v visit %d: pooled radio %.9f J, fresh %.9f J",
					mode, i, pooled.Radio.EnergyJ(), fresh.Radio.EnergyJ())
			}
			pool.Put(pooled)
		}
	}
}

// TestSessionPoolHammer drives a shared pool — and through it the shared
// read-only load-plan cache — from many goroutines at once. Run under
// -race in CI; every goroutine must still see exactly the per-page results
// the serial reference produced.
func TestSessionPoolHammer(t *testing.T) {
	pages, err := BenchmarkPages()
	if err != nil {
		t.Fatal(err)
	}
	pages = pages[:4]
	mode := browser.ModeEnergyAware
	want := make([]browser.Result, len(pages))
	for i, page := range pages {
		s, err := New(mode)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.LoadToEnd(page)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultSnapshot(res)
	}

	pool := NewSessionPool(mode, WithEngineOptions(browser.WithReusableResults()))
	const goroutines = 8
	const visitsEach = 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := 0; v < visitsEach; v++ {
				pi := (g + v) % len(pages)
				s, err := pool.Get()
				if err != nil {
					t.Errorf("goroutine %d: Get: %v", g, err)
					return
				}
				res, err := s.LoadToEnd(pages[pi])
				if err != nil {
					t.Errorf("goroutine %d: load %s: %v", g, pages[pi].Name, err)
					return
				}
				if got := resultSnapshot(res); !reflect.DeepEqual(got, want[pi]) {
					t.Errorf("goroutine %d visit %d (%s): result diverged under concurrency",
						g, v, pages[pi].Name)
					return
				}
				pool.Put(s)
			}
		}(g)
	}
	wg.Wait()
}

// TestResetAfterFaultyVisit checks that nothing from a visit full of
// injected failures — link retries, RIL timeouts, failed dormancy — leaks
// through Reset: a reset session must replay the next visit byte-identically
// to a fresh session built with the same fault profile (Reset reseeds the
// injector, so both phones face the very same impairments).
func TestResetAfterFaultyVisit(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{
		Seed:           9,
		LossRate:       0.2,
		FailRate:       0.3,
		StallRate:      0.2,
		RILTimeoutRate: 0.6,
		RILErrorRate:   0.3,
	}
	dirty, err := New(browser.ModeEnergyAware, WithFaultInjector(cfg))
	if err != nil {
		t.Fatal(err)
	}
	dirtyRes, err := dirty.LoadToEnd(page)
	if err == nil {
		// A failed load is fine too; what matters is that faults actually hit.
		if dirtyRes.LinkRetries == 0 && !dirtyRes.DormancyFailed && dirty.Link.FailedTransfers() == 0 {
			t.Fatal("fault injection produced a perfectly clean visit; raise the rates")
		}
	}
	dirty.Reset()

	fresh, err := New(browser.ModeEnergyAware, WithFaultInjector(cfg))
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gotErr := dirty.LoadToEnd(page)
	wantRes, wantErr := fresh.LoadToEnd(page)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("reset session err %v, fresh session err %v", gotErr, wantErr)
	}
	if gotErr == nil {
		if !reflect.DeepEqual(resultSnapshot(gotRes), resultSnapshot(wantRes)) {
			t.Fatalf("visit after Reset diverged from fresh session\nreset: %+v\nfresh: %+v",
				resultSnapshot(gotRes), resultSnapshot(wantRes))
		}
	}
	if dirty.Clock.Now() != fresh.Clock.Now() {
		t.Errorf("clock after reset visit %v, fresh %v", dirty.Clock.Now(), fresh.Clock.Now())
	}
	if dirty.Radio.EnergyJ() != fresh.Radio.EnergyJ() {
		t.Errorf("radio energy after reset visit %.9f J, fresh %.9f J",
			dirty.Radio.EnergyJ(), fresh.Radio.EnergyJ())
	}
	if dirty.Link.Retries() != fresh.Link.Retries() {
		t.Errorf("link retries after reset visit %d, fresh %d",
			dirty.Link.Retries(), fresh.Link.Retries())
	}
}

// TestFleetConfigBounds checks that out-of-range fleet parameters are
// rejected with errors that state the accepted range, and that the extremes
// of the range validate.
func TestFleetConfigBounds(t *testing.T) {
	bad := []struct {
		cfg  FleetConfig
		want string
	}{
		{FleetConfig{Users: 0, HoursPerUser: 1}, "[1, 2000000]"},
		{FleetConfig{Users: -5, HoursPerUser: 1}, "[1, 2000000]"},
		{FleetConfig{Users: 2000001, HoursPerUser: 1}, "[1, 2000000]"},
		{FleetConfig{Users: 10, HoursPerUser: 0}, "(0, 24]"},
		{FleetConfig{Users: 10, HoursPerUser: -1}, "(0, 24]"},
		{FleetConfig{Users: 10, HoursPerUser: 25}, "(0, 24]"},
		{FleetConfig{Users: 10, HoursPerUser: math.NaN()}, "(0, 24]"},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("Validate accepted %+v", tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error for %+v does not state the bounds %q: %v", tc.cfg, tc.want, err)
		}
	}
	for _, cfg := range []FleetConfig{
		{Users: 1, HoursPerUser: 0.01, Seed: 1},
		{Users: 2000000, HoursPerUser: 24, Seed: 1},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected in-range %+v: %v", cfg, err)
		}
	}
}

// TestFleetTracedMatchesTemplated cross-checks the fleet's two replay
// engines on the same small fleet: the template/cursor engine (untraced
// runs) against full per-phone simulation (tracing runs). Counts must match
// exactly; energies and transmission times only to floating-point tolerance,
// because the two accumulate the same physical quantities in different
// association orders.
func TestFleetTracedMatchesTemplated(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay is slow")
	}
	cfg := FleetConfig{Users: 8, HoursPerUser: 0.05, Seed: 11}
	analytic, err := Fleet(cfg)
	if err != nil {
		t.Fatalf("templated Fleet: %v", err)
	}
	obs.Enable()
	defer obs.Disable()
	traced, err := Fleet(cfg)
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
	relClose := func(name string, a, b, tol float64) {
		t.Helper()
		scale := math.Max(math.Abs(a), math.Abs(b))
		if scale == 0 {
			return
		}
		if math.Abs(a-b)/scale > tol {
			t.Errorf("%s: templated %.9f, traced %.9f (rel err %.2e)",
				name, a, b, math.Abs(a-b)/scale)
		}
	}
	relClose("original energy", analytic.Original.EnergyJ, traced.Original.EnergyJ, 1e-6)
	relClose("aware energy", analytic.Aware.EnergyJ, traced.Aware.EnergyJ, 1e-6)
	relClose("original mean trans", analytic.Original.MeanTransmissionS, traced.Original.MeanTransmissionS, 1e-6)
	relClose("aware mean trans", analytic.Aware.MeanTransmissionS, traced.Aware.MeanTransmissionS, 1e-6)
	relClose("prediction energy", analytic.Aware.PredictionEnergyJ, traced.Aware.PredictionEnergyJ, 1e-9)
}
