package trace

import (
	"math"
	"math/rand"

	"eabrowse/internal/features"
)

// Stream is the streaming counterpart of Synthesize for very large fleets:
// instead of materializing every user's visits up front (O(users·visits)
// memory), it holds only the measured page pool and derives each user's
// visit sequence on demand from an independent per-user random stream.
//
// The per-user streams are seeded by mixing the trace seed with the user
// index, so UserVisits(u) is a pure function of (Config, u): any number of
// workers can generate disjoint user ranges concurrently and the result is
// identical at any parallelism. The visit statistics follow the same model
// as Synthesize (same pool, same engagement and reading-time draws); the
// concrete sequences differ because Synthesize threads one shared rng
// through all users, which is inherently serial.
type Stream struct {
	cfg  Config
	pool []PoolPage
}

// NewStream measures the page pool (each pool page is loaded once through
// the energy-aware pipeline, in parallel) and returns a generator of
// per-user visit sequences. The pool draw consumes the seed rng exactly as
// Synthesize does, so both trace forms share page pools for equal configs.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool, err := buildPool(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg, pool: pool}, nil
}

// Pool returns the distinct pages visits draw from. Read-only: the slice is
// shared by every caller.
func (s *Stream) Pool() []PoolPage { return s.pool }

// UserVisits appends user u's full visit sequence to buf and returns it.
// The sequence is deterministic in (Config, u) and independent of any other
// user's. Safe for concurrent use with distinct buffers.
func (s *Stream) UserVisits(u int, buf []Visit) []Visit {
	return s.UserVisitsRand(NewUserRand(userSeed(s.cfg.Seed, u)), u, buf)
}

// UserVisitsRand is UserVisits with a caller-owned rng, reseeded in place:
// Seed resets a rand.Rand to exactly the state rand.New(rand.NewSource(seed))
// constructs, so the sequence is identical while the per-user source+rng
// allocations (several kB each at fleet scale) disappear. The rng may be a
// stock math/rand one or a NewUserRand, which draws the same values and
// reseeds far cheaper. It must not be shared across concurrent calls.
func (s *Stream) UserVisitsRand(rng *rand.Rand, u int, buf []Visit) []Visit {
	cfg := s.cfg
	rng.Seed(userSeed(cfg.Seed, u))
	liked := pickLiked(rng, cfg.Categories, cfg.LikedCategories)
	userFactor := math.Exp(rng.NormFloat64() * 0.2)
	budget := cfg.HoursPerUser * 3600
	session := 0
	elapsed := 0.0
	for elapsed < budget {
		pagesInSession := 3 + rng.Intn(10)
		for p := 0; p < pagesInSession && elapsed < budget; p++ {
			pi := rng.Intn(len(s.pool))
			page := &s.pool[pi]
			interested := engaged(rng, liked[page.Category])
			reading := readingTime(rng, page, interested, userFactor)
			if reading > cfg.CapSeconds {
				elapsed += reading
				continue
			}
			buf = append(buf, Visit{
				User:           u,
				Session:        session,
				Page:           page.Name,
				Pool:           int32(pi),
				Features:       page.Features,
				ReadingSeconds: reading,
				Interested:     interested,
			})
			elapsed += reading + page.Features[features.TransmissionTime]
		}
		session++
		elapsed += 60 + rng.Float64()*600
	}
	return buf
}

// userSeed mixes the trace seed with a user index (splitmix64 finalizer), so
// consecutive users get decorrelated streams.
func userSeed(seed int64, u int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(u+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// UserDraw returns one uniform [0, 1) draw that is a pure function of
// (seed, tag, u). Fleet-level per-user assignments (mixed-RAN profile
// picks) use it instead of consuming from the user's visit rng, so adding
// an assignment never perturbs the visit sequences; the tag decorrelates
// independent assignment families from each other and from userSeed.
func UserDraw(seed int64, tag uint64, u int) float64 {
	z := uint64(seed) ^ (tag * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15 * uint64(u+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
