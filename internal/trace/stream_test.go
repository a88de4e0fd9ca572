package trace

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestUserVisitsRandMatchesUserVisits pins the rng-reuse fast path: one
// reseeded rand.Rand walked across many users must reproduce exactly the
// visit sequences that per-user freshly constructed rngs produce.
func TestUserVisitsRandMatchesUserVisits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 10
	cfg.HoursPerUser = 0.5
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1)) // state is overwritten by each Seed
	var reused []Visit
	for u := 0; u < cfg.Users; u++ {
		fresh := s.UserVisits(u, nil)
		reused = s.UserVisitsRand(rng, u, reused[:0])
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("user %d: reused-rng visits diverge from fresh-rng visits", u)
		}
		if len(fresh) == 0 {
			t.Fatalf("user %d: empty visit sequence", u)
		}
	}
}

// TestUserVisitsRandStockMatchesUserRand pins that a stock math/rand rng and
// NewUserRand yield the same visits, so callers that still pass a stock rng
// (the benchmark's trace probe) see exactly the replay's visit sequences.
func TestUserVisitsRandStockMatchesUserRand(t *testing.T) {
	s := benchStream(t)
	stock := rand.New(rand.NewSource(1))
	lazy := NewUserRand(1)
	var a, b []Visit
	for u := 0; u < 1000; u++ {
		a = s.UserVisitsRand(stock, u, a[:0])
		b = s.UserVisitsRand(lazy, u, b[:0])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("user %d: stock-rng and NewUserRand visits differ", u)
		}
	}
}

// benchStream is the fleet's trace shape: 0.25 h per user.
func benchStream(tb testing.TB) *Stream {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.HoursPerUser = 0.25
	cfg.Seed = 20130709
	s, err := NewStream(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func benchmarkUserVisitsRand(b *testing.B, rng *rand.Rand) {
	s := benchStream(b)
	var buf []Visit
	visits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.UserVisitsRand(rng, i, buf[:0])
		visits += len(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(visits, 1)), "ns/visit")
}

func BenchmarkUserVisitsRandStock(b *testing.B) {
	benchmarkUserVisitsRand(b, rand.New(rand.NewSource(1)))
}

func BenchmarkUserVisitsRandUser(b *testing.B) { benchmarkUserVisitsRand(b, NewUserRand(1)) }
