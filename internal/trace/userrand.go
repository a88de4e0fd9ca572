package trace

import (
	"fmt"
	"math/rand"
)

// NewUserRand returns a *rand.Rand whose every draw is bit-for-bit the draw
// rand.New(rand.NewSource(seed)) makes, for this seed and for every seed a
// later Seed call installs. Only the cost of seeding differs.
//
// The stock source's Seed fills all 607 words of its additive-lagged
// state up front: 1,841 dependent Lehmer steps of two integer divisions
// each, ~13 µs. The fleet reseeds once per user, and a user draws only a few
// hundred values, so most of that work is never read. This source computes
// a state word only when the recurrence first reads it, each Lehmer value
// straight from a table of multiplier powers with one multiply and a
// Mersenne-prime reduction, so a reseed costs a few stores.
//
// The rng must not be shared across goroutines.
func NewUserRand(seed int64) *rand.Rand {
	src := &userSource{}
	src.Seed(seed)
	return rand.New(src)
}

// The stock generator's constants (math/rand rng.go).
const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	lehmerMod = 1<<31 - 1 // the Mersenne prime 2³¹−1
	lehmerMul = 48271
	// Stock Seed discards 20 Lehmer values, then spends three per state
	// word: word i is built from values 21+3i, 22+3i and 23+3i.
	lehmerSkip = 20
	// firstTouches is how many draws after a seed still read some state
	// word nobody has read before (see Uint64).
	firstTouches = rngLen - rngTap
)

var (
	// userPow[3i+j] = lehmerMul^(lehmerSkip+1+3i+j) mod lehmerMod.
	userPow [3 * rngLen]uint32
	// userCooked is math/rand's rngCooked table, solved back out of the
	// stock source's output at init (deriveCooked), never copied.
	userCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= lehmerSkip; k++ {
		p = mulLehmer(p, lehmerMul)
	}
	for k := range userPow {
		p = mulLehmer(p, lehmerMul)
		userPow[k] = uint32(p)
	}
	userCooked = deriveCooked()
	// Any change to math/rand's stream (a new cooked table, seeding or
	// recurrence) would silently change every fleet figure; refuse to run.
	if err := checkUserRand(-20130709, 2*rngLen); err != nil {
		panic(err)
	}
}

// mulLehmer returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2]. The product is
// below 2⁶², so one fold of the high bits onto the low bits leaves a value
// below 2·(2³¹−1) that is never a multiple of the prime (both factors are
// units), and one conditional subtraction finishes the reduction.
func mulLehmer(a, b uint64) uint64 {
	x := a * b
	r := x&lehmerMod + x>>31
	if r > lehmerMod {
		r -= lehmerMod
	}
	return r
}

// userSource is math/rand's additive lagged Fibonacci source with lazily
// seeded state. It implements rand.Source64.
type userSource struct {
	tap, feed int
	// drawn counts draws since the last Seed, saturating at firstTouches.
	drawn int
	x0    uint64 // the reduced seed: the Lehmer sequence's start value
	vec   [rngLen]int64
}

// Seed installs seed, reduced exactly as the stock source reduces it.
func (s *userSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.drawn = 0
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// word returns state word i as the stock Seed would have left it.
func (s *userSource) word(i int) int64 {
	p := userPow[3*i : 3*i+3 : 3*i+3]
	u := mulLehmer(uint64(p[0]), s.x0)<<40 ^
		mulLehmer(uint64(p[1]), s.x0)<<20 ^
		mulLehmer(uint64(p[2]), s.x0)
	return int64(u) ^ userCooked[i]
}

// Uint64 is the stock recurrence: vec[feed] += vec[tap], both indices
// walking down. After a seed the feed index visits 333…0 and then 606…334,
// the tap index 606…0, and only feed writes. So through draw 333 the feed
// word is always untouched, and through draw 272 the tap word is too: its
// value is computed here and stored, which is the copy the feed reads when
// it reaches that word at draws 334…606. Draw 273 onward the tap reads what
// the feed wrote at draw n−273. From draw 334 every word has been computed.
func (s *userSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < firstTouches {
		s.drawn++
		if s.tap >= firstTouches {
			s.vec[s.tap] = s.word(s.tap)
		}
		s.vec[s.feed] = s.word(s.feed)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *userSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// deriveCooked recovers the stock source's initial state from its first
// 607 outputs for seed 1 and XORs out the Lehmer part, leaving rngCooked.
// With v the initial words and o the outputs, draw n adds the tap word to
// the feed word and writes the sum back into the feed word, so:
//
//	n = 334…606: o[n] = v[940−n] + o[n−273]  (tap reads draw n−273's write)
//	n = 273…333: o[n] = v[333−n] + o[n−273]
//	n =   0…272: o[n] = v[333−n] + v[606−n]  (v[606−n] is solved above)
func deriveCooked() [rngLen]int64 {
	stock := rand.NewSource(1).(rand.Source64)
	var o, v [rngLen]int64
	for n := range o {
		o[n] = int64(stock.Uint64())
	}
	for n := firstTouches; n < rngLen; n++ {
		v[rngLen+firstTouches-1-n] = o[n] - o[n-rngTap]
	}
	for n := rngTap; n < firstTouches; n++ {
		v[firstTouches-1-n] = o[n] - o[n-rngTap]
	}
	for n := 0; n < rngTap; n++ {
		v[firstTouches-1-n] = o[n] - v[rngLen-1-n]
	}
	var seed1 userSource
	seed1.Seed(1)
	for i := range v {
		v[i] ^= seed1.word(i) // userCooked is still zero: word is the Lehmer part
	}
	return v
}

// checkUserRand compares the lazy source's first draws outputs with the
// stock source's for one seed.
func checkUserRand(seed int64, draws int) error {
	stock := rand.NewSource(seed).(rand.Source64)
	var lazy userSource
	lazy.Seed(seed)
	for n := 0; n < draws; n++ {
		if got, want := lazy.Uint64(), stock.Uint64(); got != want {
			return fmt.Errorf("trace: lazily seeded rng diverges from math/rand at seed %d draw %d: %#x != %#x", seed, n, got, want)
		}
	}
	return nil
}
