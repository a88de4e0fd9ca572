package capacity

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 20 * time.Minute
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no channels", func(c *Config) { c.Channels = 0 }},
		{"zero interval", func(c *Config) { c.MeanSessionInterval = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate succeeded")
			}
		})
	}
}

func TestSimulateValidatesInputs(t *testing.T) {
	cfg := fastConfig()
	if _, err := Simulate(0, []float64{1}, cfg); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := Simulate(10, nil, cfg); err == nil {
		t.Fatal("empty service times accepted")
	}
	if _, err := Simulate(10, []float64{0}, cfg); err == nil {
		t.Fatal("zero service time accepted")
	}
}

func TestLightLoadNoDrops(t *testing.T) {
	cfg := fastConfig()
	// 10 users, 5 s service, 25 s intervals: offered load ≈ 2 Erlang on 200
	// channels — nothing can drop.
	res, err := Simulate(10, []float64{5}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d sessions under trivial load", res.Dropped)
	}
	if res.Offered == 0 {
		t.Fatal("no sessions offered")
	}
}

func TestOverloadDrops(t *testing.T) {
	cfg := fastConfig()
	cfg.Channels = 5
	// 100 users with 30 s sessions every 25 s: offered load 120 Erlang on 5
	// channels — most sessions must drop.
	res, err := Simulate(100, []float64{30}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.DropPercent < 50 {
		t.Fatalf("drop %.1f%% under extreme overload, want > 50%%", res.DropPercent)
	}
	if res.MaxBusy != cfg.Channels {
		t.Fatalf("MaxBusy = %d, want %d", res.MaxBusy, cfg.Channels)
	}
}

func TestDropMonotoneInUsers(t *testing.T) {
	cfg := fastConfig()
	cfg.Channels = 50
	service := []float64{20}
	prev := -1.0
	for _, users := range []int{50, 100, 200, 400} {
		res, err := Simulate(users, service, cfg)
		if err != nil {
			t.Fatalf("Simulate(%d): %v", users, err)
		}
		if res.DropPercent < prev-2 { // allow small stochastic wiggle
			t.Fatalf("drop %% fell from %.1f to %.1f as users grew", prev, res.DropPercent)
		}
		prev = res.DropPercent
	}
}

func TestShorterServiceRaisesCapacity(t *testing.T) {
	cfg := fastConfig()
	longUsers, err := SupportedUsers([]float64{30}, 2, cfg)
	if err != nil {
		t.Fatalf("SupportedUsers(long): %v", err)
	}
	shortUsers, err := SupportedUsers([]float64{21}, 2, cfg)
	if err != nil {
		t.Fatalf("SupportedUsers(short): %v", err)
	}
	if shortUsers <= longUsers {
		t.Fatalf("short service supports %d users, long %d — want strictly more", shortUsers, longUsers)
	}
	// A 30% shorter hold time should buy very roughly 20-50% more users.
	gain := float64(shortUsers-longUsers) / float64(longUsers) * 100
	if gain < 5 || gain > 80 {
		t.Fatalf("capacity gain %.1f%% implausible", gain)
	}
}

func TestSupportedUsersValidatesTarget(t *testing.T) {
	cfg := fastConfig()
	if _, err := SupportedUsers([]float64{5}, 0, cfg); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := SupportedUsers([]float64{5}, 100, cfg); err == nil {
		t.Fatal("100% target accepted")
	}
}

func TestSweep(t *testing.T) {
	cfg := fastConfig()
	cfg.Channels = 20
	results, err := Sweep([]int{10, 50, 100}, []float64{15}, cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, users := range []int{10, 50, 100} {
		if results[i].Users != users {
			t.Fatalf("result %d users = %d, want %d", i, results[i].Users, users)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := fastConfig()
	a, err := Simulate(100, []float64{10, 20, 30}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	b, err := Simulate(100, []float64{10, 20, 30}, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if a != b {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

// TestCalendarMatchesHeap drives the calendar queue and a plain eventHeap
// through the same monotone push/pop sequence and requires the same pops.
// The "spread" gaps span same-instant ties, in-bucket, in-ring and
// far-overflow distances, so the queue also jumps over an empty ring. The
// "drain" gaps are fractions of one bucket, so most pushes land in the bucket
// being drained: same-at ties, zero-delay departures and arrivals inside the
// bucket, inserted into the sorted run ahead of and behind its unread
// events, often enough that the run fills its buffer and compacts.
func TestCalendarMatchesHeap(t *testing.T) {
	cfg := Config{Channels: 8, MeanSessionInterval: 25 * time.Second}
	spread := func(time.Duration) []time.Duration {
		return []time.Duration{0, 1, time.Millisecond, 3 * time.Second, 25 * time.Second,
			5 * time.Minute, 48 * time.Hour}
	}
	drain := func(width time.Duration) []time.Duration {
		return []time.Duration{0, 0, 1, width / 7, width / 3, width - 1}
	}
	for _, c := range []struct {
		name  string
		users int
		gaps  func(width time.Duration) []time.Duration
	}{
		{"spread", 1, spread}, {"spread", 5, spread}, {"spread", 300, spread},
		{"drain", 1, drain}, {"drain", 5, drain}, {"drain", 300, drain},
	} {
		rng := rand.New(rand.NewSource(int64(c.users)))
		q := newCalendar(c.users, cfg)
		gaps := c.gaps(1 << q.shift)
		var h eventHeap
		var seq uint64
		var now time.Duration
		pending := 0
		push := func() {
			gap := gaps[rng.Intn(len(gaps))] * time.Duration(1+rng.Intn(3))
			e := event{at: now + gap, seq: seq, dep: rng.Intn(2) == 0}
			seq++
			q.push(e)
			h.push(e)
			pending++
		}
		for i := 0; i < c.users; i++ {
			push()
		}
		for step := 0; step < 20_000; step++ {
			got, want := q.pop(), h.pop()
			if got != want {
				t.Fatalf("%s, users %d, step %d: calendar popped %+v, heap %+v",
					c.name, c.users, step, got, want)
			}
			now = got.at
			pending--
			// Push up to two events, keeping at least one and at most the
			// queue's capacity pending.
			n := rng.Intn(3)
			if pending == 0 {
				n = 1 + rng.Intn(2)
			}
			for ; n > 0 && pending < c.users+cfg.Channels; n-- {
				push()
			}
		}
	}
}

// TestSimulateAllocs gates the engine's allocations as per run, not per
// event: a run ten times as long allocates exactly as often. The cases cover
// a Fig. 11-sized population through both entry points (Simulate's uniform
// sampler is Fig. 11's path, where departures fill each bucket's sorted run),
// fleet scale (where arrivals past the ring's span reach the overflow heap
// most often) and departures that all overflow.
func TestSimulateAllocs(t *testing.T) {
	spread := referenceDists(t)[1]
	long := &Dist{}
	if err := long.Add(1000, 1); err != nil {
		t.Fatal(err)
	}
	dist := func(d *Dist) func(int, Config) (Result, error) {
		return func(users int, cfg Config) (Result, error) { return SimulateDist(users, d, cfg) }
	}
	// Collect once first: the runtime's first GC starts its mark workers,
	// whose allocations would be charged to whichever run triggered it.
	runtime.GC()
	for _, c := range []struct {
		name     string
		users    int
		simulate func(int, Config) (Result, error)
	}{
		{"SimulateDist, spread", 400, dist(spread)},
		{"SimulateDist, spread", 50_000, dist(spread)},
		{"SimulateDist, 1000 s", 400, dist(long)},
		{"Simulate, fig11Service", 600, func(users int, cfg Config) (Result, error) {
			return Simulate(users, fig11Service, cfg)
		}},
	} {
		var allocs [2]float64
		for i, dur := range []time.Duration{2 * time.Minute, 20 * time.Minute} {
			cfg := DefaultConfig()
			cfg.Duration = dur
			allocs[i] = testing.AllocsPerRun(2, func() {
				if _, err := c.simulate(c.users, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s, %d users: %v allocs/run at 2 min, %v at 20 min", c.name, c.users, allocs[0], allocs[1])
		if allocs[0] != allocs[1] {
			t.Errorf("%s, %d users: %v allocs at 2 min but %v at 20 min; want a count per run, not per event",
				c.name, c.users, allocs[0], allocs[1])
		}
	}
}

var benchResult Result

// BenchmarkSimulateDist times one paper-config run (200 channels, λ = 25 s,
// 4 h) from a Fig. 11-sized population up to fleet scale.
func BenchmarkSimulateDist(b *testing.B) {
	d := referenceDists(b)[1]
	cfg := DefaultConfig()
	for _, users := range []int{16, 400, 2_000, 50_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := SimulateDist(users, d, cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = r
			}
		})
	}
}

var benchUsers int

// BenchmarkSupportedUsersFig11 times one Fig. 11 capacity search: the
// doubling-plus-bisection walk at 2% on the paper config.
func BenchmarkSupportedUsersFig11(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := SupportedUsers(fig11Service, 2, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchUsers = n
	}
}
