package capacity

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"eabrowse/internal/simtime"
)

// simulateReference is the closure-per-arrival formulation of the Erlang-loss
// loop on simtime.Clock, verbatim from before the engine was inlined. It is
// kept as the oracle the engine is pinned against: the two must agree
// bit-for-bit on every field for every (sampler, users, seed) combination,
// since Fig. 11 and fleet output determinism depend on the capacity phase
// being an exact function of its inputs.
func simulateReference[S serviceSampler](users int, smp S, cfg Config) Result {
	clock := simtime.NewClock()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{Users: users}
	busy := 0

	nextArrival := func() time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(cfg.MeanSessionInterval))
	}

	var arrive func()
	arrive = func() {
		res.Offered++
		if busy >= cfg.Channels {
			res.Dropped++
		} else {
			busy++
			if busy > res.MaxBusy {
				res.MaxBusy = busy
			}
			clock.After(time.Duration(smp.draw(rng)*float64(time.Second)), func() { busy-- })
		}
		clock.After(nextArrival(), arrive)
	}
	for u := 0; u < users; u++ {
		clock.After(nextArrival(), arrive)
	}
	clock.RunUntil(cfg.Duration)

	if res.Offered > 0 {
		res.DropPercent = float64(res.Dropped) / float64(res.Offered) * 100
	}
	return res
}

// supportedUsersReference is the doubling-plus-bisection search, verbatim
// from before SupportedUsers and SupportedUsersDist shared one, run over the
// closure oracle.
func supportedUsersReference[S serviceSampler](smp S, maxDropPercent float64, cfg Config) int {
	lo := 1
	hi := 1
	for {
		if simulateReference(hi, smp, cfg).DropPercent > maxDropPercent {
			break
		}
		lo = hi
		hi *= 2
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if simulateReference(mid, smp, cfg).DropPercent > maxDropPercent {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

func referenceDists(t testing.TB) []*Dist {
	t.Helper()
	single := &Dist{}
	if err := single.Add(2.5, 10); err != nil {
		t.Fatal(err)
	}
	spread := &Dist{}
	for i, v := range []float64{0.4, 1.2, 2.8, 5.5, 9.1, 14.7} {
		if err := spread.Add(v, int64(3+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	skewed := &Dist{}
	if err := skewed.Add(0.25, 100000); err != nil {
		t.Fatal(err)
	}
	if err := skewed.Add(30, 3); err != nil {
		t.Fatal(err)
	}
	return []*Dist{single, spread, skewed}
}

// referenceSlices are the Simulate counterparts of referenceDists, drawn by
// index instead of by weight.
func referenceSlices() [][]float64 {
	skewed := make([]float64, 100)
	for i := range skewed {
		skewed[i] = 0.25
	}
	skewed[37] = 30
	return [][]float64{{2.5}, {0.4, 1.2, 2.8, 5.5, 9.1, 14.7}, skewed}
}

// fig11Service has Fig. 11's shape: per-page transmission times of the full
// benchmark, tens of seconds each.
var fig11Service = []float64{14.2, 17.9, 19.4, 21.6, 23.1, 26.8, 31.5, 18.3}

// referenceCase is one service-time input, run through the public engine
// and through the closure oracle with the same sampler.
type referenceCase struct {
	name      string
	simulate  func(users int, cfg Config) (Result, error)
	supported func(maxDropPercent float64, cfg Config) (int, error)
	reference func(users int, cfg Config) Result
	refUsers  func(maxDropPercent float64, cfg Config) int
}

// indexDraw is the closure formulation's own service draw, kept apart from
// uniformSampler so the oracle also pins the rng call Fig. 11 depends on.
type indexDraw []float64

func (s indexDraw) draw(rng *rand.Rand) float64 { return s[rng.Intn(len(s))] }

func sliceCase(name string, service []float64) referenceCase {
	smp := indexDraw(service)
	return referenceCase{
		name:     name,
		simulate: func(users int, cfg Config) (Result, error) { return Simulate(users, service, cfg) },
		supported: func(maxDrop float64, cfg Config) (int, error) {
			return SupportedUsers(service, maxDrop, cfg)
		},
		reference: func(users int, cfg Config) Result { return simulateReference(users, smp, cfg) },
		refUsers:  func(maxDrop float64, cfg Config) int { return supportedUsersReference(smp, maxDrop, cfg) },
	}
}

func referenceCases(t *testing.T) []referenceCase {
	t.Helper()
	var cases []referenceCase
	for i, d := range referenceDists(t) {
		smp, err := newDistSampler(d)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, referenceCase{
			name:     fmt.Sprintf("dist %d", i),
			simulate: func(users int, cfg Config) (Result, error) { return SimulateDist(users, d, cfg) },
			supported: func(maxDrop float64, cfg Config) (int, error) {
				return SupportedUsersDist(d, maxDrop, cfg)
			},
			reference: func(users int, cfg Config) Result { return simulateReference(users, smp, cfg) },
			refUsers:  func(maxDrop float64, cfg Config) int { return supportedUsersReference(smp, maxDrop, cfg) },
		})
	}
	for i, service := range referenceSlices() {
		cases = append(cases, sliceCase(fmt.Sprintf("slice %d", i), service))
	}
	return cases
}

func TestSimulateDistMatchesReferenceBitIdentical(t *testing.T) {
	for _, c := range referenceCases(t) {
		for _, seed := range []int64{1, 42, 987654321} {
			cfg := Config{
				Channels:            40,
				MeanSessionInterval: 25 * time.Second,
				Duration:            30 * time.Minute,
				Seed:                seed,
			}
			for _, users := range []int{1, 7, 150, 900} {
				got, err := c.simulate(users, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := c.reference(users, cfg); got != want {
					t.Fatalf("%s users %d seed %d: fast %+v != reference %+v",
						c.name, users, seed, got, want)
				}
			}
		}
		// The search walks a dozen populations of up to thousands of users
		// through the slow oracle, so it runs once per input, on a shorter
		// period.
		cfg := Config{
			Channels:            40,
			MeanSessionInterval: 25 * time.Second,
			Duration:            5 * time.Minute,
			Seed:                42,
		}
		got, err := c.supported(2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.refUsers(2, cfg); got != want {
			t.Fatalf("%s: supported users %d != reference %d", c.name, got, want)
		}
	}
}

func TestSimulateDistMatchesReferencePaperConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full-duration run")
	}
	cfg := DefaultConfig()
	d := referenceDists(t)[1]
	smp, err := newDistSampler(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateDist(3000, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := simulateReference(3000, smp, cfg); got != want {
		t.Fatalf("paper config: fast %+v != reference %+v", got, want)
	}

	// Fig. 11's shape, swept and searched at 2% on the paper config.
	fig11 := sliceCase("fig11", fig11Service)
	for _, users := range []int{200, 280, 360} {
		got, err := fig11.simulate(users, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := fig11.reference(users, cfg); got != want {
			t.Fatalf("fig11 users %d: fast %+v != reference %+v", users, got, want)
		}
	}
	supported, err := fig11.supported(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := fig11.refUsers(2, cfg); supported != want {
		t.Fatalf("fig11: supported users %d != reference %d", supported, want)
	}
}

func TestDropPercentAt(t *testing.T) {
	d := referenceDists(t)[1]
	cfg := Config{
		Channels:            40,
		MeanSessionInterval: 25 * time.Second,
		Duration:            20 * time.Minute,
		Seed:                42,
	}
	// At or below the cap: exactly the simulated figure.
	simmed, err := SimulateDist(500, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DropPercentAt(500, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != simmed.DropPercent {
		t.Fatalf("below cap: DropPercentAt %v != SimulateDist %v", got, simmed.DropPercent)
	}
	// Above the cap: exactly the Erlang-B figure from the dist mean.
	analytic, err := cfg.AnalyticDropPercent(MaxSimulatedFleet+1, d.Mean())
	if err != nil {
		t.Fatal(err)
	}
	got, err = DropPercentAt(MaxSimulatedFleet+1, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != analytic {
		t.Fatalf("above cap: DropPercentAt %v != AnalyticDropPercent %v", got, analytic)
	}
	if _, err := DropPercentAt(10, &Dist{}, cfg); err == nil {
		t.Fatal("empty dist accepted")
	}
	if _, err := DropPercentAt(MaxSimulatedFleet+1, &Dist{}, cfg); err == nil {
		t.Fatal("empty dist accepted on analytic path")
	}
	if _, err := DropPercentAt(0, d, cfg); err == nil {
		t.Fatal("zero users accepted")
	}
}

// serviceBytes encodes service times (seconds) as FuzzSimulateMatchesReference
// reads them: little-endian float64 bits, eight bytes each.
func serviceBytes(vals ...float64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzSimulateMatchesReference pins the engine against the closure oracle on
// random short runs: every Result field must match, through both Simulate and
// SimulateDist. The seed corpus reaches the calendar queue's edge cases:
// departures tied with their own arrival (1e-12 s truncates to 0 ns), events
// sharing a nanosecond, departures far beyond the ring's 8λ span (the
// overflow heap, both left pending and drained back), a single user, and
// buckets crowded enough that the current bucket's sorted run takes most
// pushes.
func FuzzSimulateMatchesReference(f *testing.F) {
	// λ is 1 + intervalNs ns; the run lasts 1 ns + durationPermille/1000 λ.
	f.Add(uint16(0), uint8(0), int64(42), uint64(25e9-1), uint32(119_000), serviceBytes(2.5))
	f.Add(uint16(399), uint8(39), int64(1), uint64(25e9-1), uint32(2_400), serviceBytes(1e-12, 3, 1e-12))
	f.Add(uint16(299), uint8(7), int64(7), uint64(5e9-1), uint32(24_000), serviceBytes(1e5, 0.5))
	f.Add(uint16(199), uint8(49), int64(3), uint64(1e9-1), uint32(119_000), serviceBytes(30, 0.2, 12))
	f.Add(uint16(0), uint8(0), int64(-9), uint64(1e9-1), uint32(119_000), serviceBytes(1e5))
	f.Add(uint16(2999), uint8(199), int64(987654321), uint64(25e9-1), uint32(1_200),
		serviceBytes(0.4, 1.2, 2.8, 5.5, 9.1, 14.7, 1e-12, 40))
	// A 3 ns λ puts many events on the same nanosecond, so the (at, seq)
	// tie order decides which of an arrival and a departure comes first.
	f.Add(uint16(49), uint8(3), int64(5), uint64(2), uint32(100_000), serviceBytes(1e-12, 2e-9, 5e-9))
	// A 1 ns λ over 999 users fills each 2 ns bucket with hundreds of
	// events, so most pushes, zero-delay departures included, are inserted
	// into the sorted run of the bucket being drained.
	f.Add(uint16(998), uint8(15), int64(11), uint64(0), uint32(20_000), serviceBytes(1e-12, 1e-9, 4e-9))
	f.Fuzz(func(t *testing.T, users uint16, channels uint8, seed int64, intervalNs uint64, durationPermille uint32, service []byte) {
		if len(service) < 8 || len(service) > 64 || len(service)%8 != 0 {
			t.Skip("want 1-8 service values")
		}
		vals := make([]float64, len(service)/8)
		d := &Dist{}
		for i := range vals {
			v := math.Float64frombits(binary.LittleEndian.Uint64(service[8*i:]))
			// Past ~292 years a departure overflows the int64 ns clock in
			// every formulation; a million seconds is far beyond any page.
			if !(v > 0 && v <= 1e6) {
				t.Skip("service time out of (0, 1e6] s")
			}
			vals[i] = v
			if err := d.Add(v, int64(1+i)); err != nil {
				t.Fatal(err)
			}
		}
		n := 1 + int(users)%3000
		interval := 1 + time.Duration(intervalNs%uint64(time.Minute))
		cfg := Config{
			Channels:            1 + int(channels),
			MeanSessionInterval: interval,
			// At most 120 mean intervals keeps every run short at any λ.
			Duration: 1 + interval*time.Duration(durationPermille%120_000)/1000,
			Seed:     seed,
		}
		got, err := Simulate(n, vals, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := simulateReference(n, indexDraw(vals), cfg); got != want {
			t.Fatalf("Simulate(%d, %v, %+v) = %+v, reference %+v", n, vals, cfg, got, want)
		}
		smp, err := newDistSampler(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err = SimulateDist(n, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := simulateReference(n, smp, cfg); got != want {
			t.Fatalf("SimulateDist(%d, %v, %+v) = %+v, reference %+v", n, vals, cfg, got, want)
		}
	})
}
