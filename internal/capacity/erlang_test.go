package capacity

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestErlangBKnownValues(t *testing.T) {
	// Textbook values: B(N=1, A=1) = 0.5; B(2, 1) = 0.2; B(5, 3) ≈ 0.1101.
	tests := []struct {
		n    int
		a    float64
		want float64
		tol  float64
	}{
		{1, 1, 0.5, 1e-12},
		{2, 1, 0.2, 1e-12},
		{5, 3, 0.11005, 1e-4},
		{10, 5, 0.018385, 1e-4},
		{200, 100, 0, 1e-9}, // hugely over-provisioned
	}
	for _, tt := range tests {
		got, err := ErlangB(tt.n, tt.a)
		if err != nil {
			t.Fatalf("ErlangB(%d, %v): %v", tt.n, tt.a, err)
		}
		if math.Abs(got-tt.want) > tt.tol {
			t.Fatalf("ErlangB(%d, %v) = %v, want %v", tt.n, tt.a, got, tt.want)
		}
	}
}

func TestErlangBValidation(t *testing.T) {
	if _, err := ErlangB(0, 1); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := ErlangB(5, -1); err == nil {
		t.Fatal("negative load accepted")
	}
	if b, err := ErlangB(5, 0); err != nil || b != 0 {
		t.Fatalf("ErlangB(5, 0) = %v, %v", b, err)
	}
}

// TestPropertyErlangBMonotone: blocking grows with load and shrinks with
// servers, always within [0, 1].
func TestPropertyErlangBMonotone(t *testing.T) {
	f := func(nRaw, aRaw uint8) bool {
		n := 1 + int(nRaw%50)
		a := float64(aRaw%80) + 0.5
		b, err := ErlangB(n, a)
		if err != nil || b < 0 || b > 1 {
			return false
		}
		bMore, err := ErlangB(n, a+5)
		if err != nil || bMore < b-1e-12 {
			return false
		}
		bServers, err := ErlangB(n+5, a)
		if err != nil || bServers > b+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOfferedErlangs(t *testing.T) {
	cfg := DefaultConfig() // λ = 25 s
	if got := cfg.OfferedErlangs(100, 25); math.Abs(got-100) > 1e-9 {
		t.Fatalf("OfferedErlangs = %v, want 100", got)
	}
	if got := cfg.OfferedErlangs(0, 25); got != 0 {
		t.Fatalf("zero users load = %v", got)
	}
}

// validateAgainstAnalytic runs the simulation and compares its dropping
// probability with Erlang B, returning both and their absolute difference in
// percentage points.
func validateAgainstAnalytic(users int, serviceTimes []float64, cfg Config) (simPct, analyticPct, diff float64, err error) {
	res, err := Simulate(users, serviceTimes, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	mean := 0.0
	for _, s := range serviceTimes {
		mean += s
	}
	mean /= float64(len(serviceTimes))
	analytic, err := cfg.AnalyticDropPercent(users, mean)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.DropPercent, analytic, math.Abs(res.DropPercent - analytic), nil
}

// TestSimulationMatchesErlangB: the discrete-event loss system must agree
// with the closed form within Monte-Carlo noise. This is the capacity
// model's core validation.
func TestSimulationMatchesErlangB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 40
	cfg.Duration = 6 * time.Hour
	// Mixed service times; the mean is what Erlang B sees (insensitivity).
	service := []float64{10, 20, 30, 40}
	for _, users := range []int{80, 120, 160} {
		sim, analytic, diff, err := validateAgainstAnalytic(users, service, cfg)
		if err != nil {
			t.Fatalf("validateAgainstAnalytic(%d): %v", users, err)
		}
		if diff > 2.5 {
			t.Fatalf("users=%d: sim %.2f%% vs Erlang-B %.2f%% (diff %.2f points)",
				users, sim, analytic, diff)
		}
	}
}

// TestAnalyticSupportedUsersTracksSimulation: the simulated capacity at 2%
// must sit within 15% of the Erlang-B capacity. Analytic blocking grows with
// the population, so that holds when blocking stays at or under the target
// at simulated/1.15 users and exceeds it at simulated/0.85 users.
func TestAnalyticSupportedUsersTracksSimulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = time.Hour
	simulated, err := SupportedUsers([]float64{30}, 2, cfg)
	if err != nil {
		t.Fatalf("SupportedUsers: %v", err)
	}
	below, err := cfg.AnalyticDropPercent(int(float64(simulated)/1.15), 30)
	if err != nil {
		t.Fatal(err)
	}
	above, err := cfg.AnalyticDropPercent(int(math.Ceil(float64(simulated)/0.85)), 30)
	if err != nil {
		t.Fatal(err)
	}
	if below > 2 || above <= 2 {
		t.Fatalf("simulated capacity %d: Erlang-B blocking %.2f%% at /1.15, %.2f%% at /0.85",
			simulated, below, above)
	}
}
