package experiments

import (
	"reflect"
	"sync"
	"testing"

	"eabrowse/internal/runner"
)

// withWorkers runs fn under a fixed worker-pool size, restoring the previous
// size afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runner.Workers()
	runner.SetWorkers(n)
	defer runner.SetWorkers(prev)
	fn()
}

// TestChaosSweepParallelDeterminism is the tentpole acceptance check: the
// chaos sweep must produce identical results at one worker (fully sequential,
// no goroutines) and at eight.
func TestChaosSweepParallelDeterminism(t *testing.T) {
	profile := DefaultChaosProfile()
	var seq, par *ChaosResult
	withWorkers(t, 1, func() {
		var err error
		if seq, err = ChaosSweep(profile, 0.02); err != nil {
			t.Fatalf("sequential ChaosSweep: %v", err)
		}
	})
	withWorkers(t, 8, func() {
		var err error
		if par, err = ChaosSweep(profile, 0.02); err != nil {
			t.Fatalf("parallel ChaosSweep: %v", err)
		}
	})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("chaos sweep diverged between 1 and 8 workers:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFleetParallelDeterminism replays a small fleet at one worker and at
// eight; per-phone virtual clocks must make the outcomes identical.
func TestFleetParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay is slow")
	}
	cfg := FleetConfig{Users: 12, HoursPerUser: 0.05, Seed: 7}
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
		t.Fatalf("fleet diverged between 1 and 8 workers:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq.Visits == 0 {
		t.Fatal("fleet replayed no visits")
	}
	if seq.EnergySavingPct <= 0 {
		t.Errorf("fleet energy saving %.2f%%, want > 0", seq.EnergySavingPct)
	}
	if seq.Aware.Switches == 0 {
		t.Error("Algorithm 2 never forced a release over the whole fleet")
	}
	if seq.Aware.Predictions < seq.Aware.Switches {
		t.Errorf("predictions %d < switches %d", seq.Aware.Predictions, seq.Aware.Switches)
	}
}

func TestFleetRejectsBadConfig(t *testing.T) {
	for _, cfg := range []FleetConfig{
		{Users: 0, HoursPerUser: 1},
		{Users: 10, HoursPerUser: 0},
	} {
		if _, err := Fleet(cfg); err == nil {
			t.Errorf("Fleet accepted %+v", cfg)
		}
	}
}

// TestArtifactCacheHammer pounds the artifact store from many goroutines
// (run with -race): every accessor must build exactly once and hand every
// caller the same pointer.
func TestArtifactCacheHammer(t *testing.T) {
	const goroutines = 32
	type grab struct {
		mobile interface{}
		espn   interface{}
		ds     interface{}
		pred   interface{}
	}
	grabs := make([]grab, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mobile, err := MobilePages()
			if err != nil {
				t.Errorf("MobilePages: %v", err)
				return
			}
			espn, err := ESPNPage()
			if err != nil {
				t.Errorf("ESPNPage: %v", err)
				return
			}
			ds, err := DefaultTrace()
			if err != nil {
				t.Errorf("DefaultTrace: %v", err)
				return
			}
			pred, err := TrainedPredictor(true)
			if err != nil {
				t.Errorf("TrainedPredictor: %v", err)
				return
			}
			grabs[g] = grab{mobile: &mobile[0], espn: espn, ds: ds, pred: pred}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if grabs[g] != grabs[0] {
			t.Fatalf("goroutine %d saw different artifacts than goroutine 0", g)
		}
	}
}

// TestBenchmarkPagesFreshSlice guards the aliasing bug the cache design rules
// out: appending to the combined slice must never scribble over the cached
// mobile corpus.
func TestBenchmarkPagesFreshSlice(t *testing.T) {
	a, err := BenchmarkPages()
	if err != nil {
		t.Fatalf("BenchmarkPages: %v", err)
	}
	b, err := BenchmarkPages()
	if err != nil {
		t.Fatalf("BenchmarkPages: %v", err)
	}
	if &a[0] == &b[0] {
		t.Fatal("BenchmarkPages returned the same backing array twice")
	}
	if len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("BenchmarkPages contents diverged between calls")
	}
}
