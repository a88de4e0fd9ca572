package capacity

import (
	"errors"
	"fmt"
	"math/rand"
)

// Dist is an empirical service-time distribution in compressed form: each
// distinct value carries a weight (its observation count). Large fleets
// produce millions of per-visit transmission times but only a bounded set of
// distinct values (one per page/pipeline/radio-start-state template), so a
// weighted distribution keeps the capacity model's memory independent of the
// fleet size where a raw sample slice would grow with it.
type Dist struct {
	values []float64
	counts []int64
	total  int64
}

// Add records n observations of value v (appending a new slot or widening an
// existing one; lookup is linear, so callers with many distinct values should
// pre-aggregate). n must be positive and v must be a positive duration in
// seconds.
func (d *Dist) Add(v float64, n int64) error {
	if n <= 0 {
		return fmt.Errorf("capacity: non-positive weight %d", n)
	}
	if v <= 0 {
		return fmt.Errorf("capacity: non-positive service time %v", v)
	}
	for i, have := range d.values {
		if have == v {
			d.counts[i] += n
			d.total += n
			return nil
		}
	}
	d.values = append(d.values, v)
	d.counts = append(d.counts, n)
	d.total += n
	return nil
}

// Merge folds other into d, value by value in other's insertion order.
func (d *Dist) Merge(other *Dist) error {
	for i, v := range other.values {
		if err := d.Add(v, other.counts[i]); err != nil {
			return err
		}
	}
	return nil
}

// N returns the total number of observations.
func (d *Dist) N() int64 { return d.total }

// Sum returns the weighted sum of values (observations × value), accumulated
// in insertion order so it is deterministic for deterministic insertions.
func (d *Dist) Sum() float64 {
	var s float64
	for i, v := range d.values {
		s += v * float64(d.counts[i])
	}
	return s
}

// Mean returns the weighted mean (0 for an empty distribution).
func (d *Dist) Mean() float64 {
	if d.total == 0 {
		return 0
	}
	return d.Sum() / float64(d.total)
}

// distSampler draws values with probability proportional to their counts via
// a cumulative-count table and one Int63n per draw.
type distSampler struct {
	values []float64
	cum    []int64
	total  int64
}

func newDistSampler(d *Dist) (distSampler, error) {
	if d == nil || d.total == 0 {
		return distSampler{}, errors.New("capacity: empty service-time distribution")
	}
	cum := make([]int64, len(d.counts))
	var run int64
	for i, c := range d.counts {
		run += c
		cum[i] = run
	}
	return distSampler{values: d.values, cum: cum, total: run}, nil
}

func (s distSampler) draw(rng *rand.Rand) float64 {
	target := rng.Int63n(s.total)
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.values[lo]
}

// SimulateDist is Simulate over a weighted service-time distribution. Both
// run the same event loop; only the service-time draw differs (cumulative
// weight here, slice index there).
func SimulateDist(users int, d *Dist, cfg Config) (Result, error) {
	if err := checkRun(users, cfg); err != nil {
		return Result{}, err
	}
	smp, err := newDistSampler(d)
	if err != nil {
		return Result{}, err
	}
	return simulate(users, smp, cfg), nil
}

// MaxSimulatedFleet is the largest population DropPercentAt walks
// event-by-event. It matches the fleet-size ceiling that existed before the
// fleet bound was raised to 2M users, so every previously expressible
// configuration still takes the simulated path and stays byte-identical.
const MaxSimulatedFleet = 200_000

// DropPercentAt returns the dropping probability (percent) for a population
// of the given size. Populations up to MaxSimulatedFleet run the full
// discrete-event simulation; beyond that, up to the 2M-user fleet bound, the
// cost of walking hundreds of millions of arrivals buys nothing — the
// Erlang-B formula is exact for M/G/N/N loss systems regardless of the
// service-time shape (insensitivity property), so larger populations are
// answered analytically from the distribution's mean.
func DropPercentAt(users int, d *Dist, cfg Config) (float64, error) {
	if users <= MaxSimulatedFleet {
		r, err := SimulateDist(users, d, cfg)
		if err != nil {
			return 0, err
		}
		return r.DropPercent, nil
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if d == nil || d.total == 0 {
		return 0, errors.New("capacity: empty service-time distribution")
	}
	return cfg.AnalyticDropPercent(users, d.Mean())
}

// SupportedUsersDist is SupportedUsers drawing service times from the
// weighted distribution: the capacity boundary at maxDropPercent that the
// doubling-plus-bisection search meets, which need not be the largest
// passing population.
func SupportedUsersDist(d *Dist, maxDropPercent float64, cfg Config) (int, error) {
	if err := checkTarget(maxDropPercent, cfg); err != nil {
		return 0, err
	}
	smp, err := newDistSampler(d)
	if err != nil {
		return 0, err
	}
	return supportedUsers(smp, maxDropPercent, cfg)
}
