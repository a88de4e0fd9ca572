package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestUserRandMatchesMathRand pins NewUserRand to the stock source draw for
// draw: one reused rng, reseeded mid-stream across 2,000+ seeds (edge cases
// of the seed reduction plus the fleet's own per-user seeds), each followed
// by well over two full wraps of the 607-word state through every rand.Rand
// method the replay and its tests use.
func TestUserRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, lehmerMod - 1, lehmerMod, lehmerMod + 1, -lehmerMod,
		89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for k := int64(2); k < 40; k++ {
		seeds = append(seeds, k*lehmerMod, -k*lehmerMod, k*lehmerMod+k, k*lehmerMod-1)
	}
	seeds = append(seeds, math.MaxInt64/lehmerMod*lehmerMod, math.MinInt64/lehmerMod*lehmerMod)
	for u := 0; u < 2000; u++ {
		seeds = append(seeds, userSeed(20130709, u), userSeed(int64(u), 1000003*u))
	}

	lazy := NewUserRand(7)
	lazy.Int63() // reseeding must also reset a source that has been drawn from
	for _, seed := range seeds {
		lazy.Seed(seed)
		stock := rand.New(rand.NewSource(seed))
		fail := func(what string, got, want any) {
			t.Helper()
			t.Fatalf("seed %d: %s = %v, stock %v", seed, what, got, want)
		}
		gp, wp := lazy.Perm(40), stock.Perm(40)
		for i := range wp {
			if gp[i] != wp[i] {
				fail("Perm", gp, wp)
			}
		}
		// 250 rounds of six draws each: ≥ 1,500 source draws on top of Perm's.
		for r := 0; r < 250; r++ {
			if g, w := lazy.Intn(1000), stock.Intn(1000); g != w {
				fail("Intn", g, w)
			}
			if g, w := lazy.Float64(), stock.Float64(); g != w {
				fail("Float64", g, w)
			}
			if g, w := lazy.NormFloat64(), stock.NormFloat64(); g != w {
				fail("NormFloat64", g, w)
			}
			if g, w := lazy.ExpFloat64(), stock.ExpFloat64(); g != w {
				fail("ExpFloat64", g, w)
			}
			if g, w := lazy.Int63n(1e12+39), stock.Int63n(1e12+39); g != w {
				fail("Int63n", g, w)
			}
			if g, w := lazy.Uint64(), stock.Uint64(); g != w {
				fail("Uint64", g, w)
			}
		}
	}
}

// TestUserRandSelfCheckCatchesDrift makes sure the init-time check would
// notice a changed stream: corrupting one derived constant must fail it.
func TestUserRandSelfCheckCatchesDrift(t *testing.T) {
	if err := checkUserRand(-20130709, 2*rngLen); err != nil {
		t.Fatal(err)
	}
	saved := userCooked[500]
	defer func() { userCooked[500] = saved }()
	userCooked[500] ^= 1
	if err := checkUserRand(-20130709, 2*rngLen); err == nil {
		t.Fatal("self-check passed with a corrupted cooked word")
	}
}

func TestMulLehmer(t *testing.T) {
	for _, a := range []uint64{1, 2, 48271, 1 << 30, lehmerMod - 2, lehmerMod - 1} {
		for _, b := range []uint64{1, 3, 48271, 89482311, lehmerMod - 1} {
			if got, want := mulLehmer(a, b), a*b%lehmerMod; got != want {
				t.Fatalf("mulLehmer(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// BenchmarkUserRandSeed is one fleet user's rng cost: a reseed and 80 draws.
func BenchmarkUserRandSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		rng  *rand.Rand
	}{{"Stock", rand.New(rand.NewSource(1))}, {"User", NewUserRand(1)}} {
		b.Run(bc.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				bc.rng.Seed(userSeed(20130709, i))
				for d := 0; d < 80; d++ {
					sink += bc.rng.Float64()
				}
			}
			_ = sink
		})
	}
}
