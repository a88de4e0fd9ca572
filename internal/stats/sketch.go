package stats

import (
	"math"
	"math/bits"
)

// Centroid is one weighted point of a Sketch: N observations summarized at
// value V.
type Centroid struct {
	V float64
	N int64
}

// Sketch is a mergeable, bounded-size summary of a weighted one-dimensional
// sample, in the t-digest family: observations are kept as sorted centroids
// (fixed-bin behaviour while every distinct value fits the budget), and when
// the centroid count outgrows the budget, adjacent centroids are coalesced
// into their weighted mean by a width-doubling greedy pass. Three properties
// make it fit the fleet aggregator:
//
//   - Deterministic: the state after any sequence of Observe/Merge calls is a
//     pure function of that sequence — no randomness, no time dependence — so
//     per-shard sketches built from a deterministic replay are byte-identical
//     at any worker or process count.
//   - Mergeable: Merge folds another sketch in as if its centroids had been
//     observed here, so shard sketches combine in shard order into one fleet
//     summary.
//   - Bounded error with an explicit receipt: every compression step records
//     the maximum distance any observation may have moved, and ErrorBound
//     reports the accumulated worst case. Any quantile of the sketch is
//     within ErrorBound of the exact empirical quantile; N, Sum and Mean are
//     exact regardless of compression.
//
// A budget <= 0 disables compression entirely: the sketch stores every
// distinct value exactly (ErrorBound stays 0). Tests use that mode as the
// oracle the compressed mode is compared against.
//
// Observe does not insert into the sorted centroids one value at a time: it
// parks observations in a pending run in the spare capacity of the centroid
// slice and settles the run later, in one sorted merge. Every read of the
// centroids (Centroids, NumCentroids, Quantile and both sides of Merge)
// settles first. The settled state is bit-identical to inserting each
// observation as it arrives, because the run never spans the observation at
// which a one-at-a-time insert would have compressed (see Observe). Reading a settled sketch writes nothing, so once a sketch has
// been read or merged, concurrent readers are safe; a sketch with a pending
// run is not safe for concurrent use.
//
// The zero value is not usable; construct sketches with NewSketch.
type Sketch struct {
	budget int
	// cs holds the settled centroids, sorted ascending by V with strictly
	// increasing values; cs[len(cs):len(cs)+pending] is the pending run, in
	// arrival order.
	cs      []Centroid
	pending int
	n       int64
	sum     float64 // exact Σ v·n in observation order
	errV    float64 // accumulated worst-case displacement of any observation
}

// NewSketch returns an empty sketch holding at most budget centroids after
// compression (<= 0: unbounded, exact).
func NewSketch(budget int) *Sketch {
	return &Sketch{budget: budget}
}

// N returns the total observation count.
func (s *Sketch) N() int64 { return s.n }

// Sum returns the exact weighted sum of every observation, accumulated in
// observation order (compression never touches it).
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact weighted mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// NumCentroids returns the current number of centroids.
func (s *Sketch) NumCentroids() int {
	s.settle()
	return len(s.cs)
}

// Centroids returns the centroids in ascending value order. The slice is the
// sketch's own storage: read-only, valid until the next mutating call.
func (s *Sketch) Centroids() []Centroid {
	s.settle()
	return s.cs
}

// ErrorBound returns the worst-case distance any observed value may have
// drifted from the centroid now representing it. Consequently every quantile
// of the sketch is within ErrorBound of the exact sample quantile. It is 0
// until the first compression and only grows.
func (s *Sketch) ErrorBound() float64 { return s.errV }

// Observe records n observations of value v. n must be positive and v must
// be finite.
//
// Between two compressions the centroids depend only on the multiset of
// values observed since the last one (equal values coalesce, the first-seen
// value's bits win), and a one-at-a-time insert compresses on the first new
// distinct value beyond budget·compressSlack centroids. So Observe settles
// and checks for compression as soon as the settled centroids plus the
// pending run could exceed that: if every parked value was new, compression
// fires on the same observation and the same centroids as an insert would;
// otherwise neither compresses.
func (s *Sketch) Observe(v float64, n int64) {
	if n <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.n += n
	s.sum += v * float64(n)
	m := len(s.cs)
	s.cs = append(s.cs[:m+s.pending], Centroid{V: v, N: n})[:m]
	s.pending++
	if s.pending == settleRun || (s.budget > 0 && m+s.pending > s.budget*compressSlack) {
		s.settle()
		s.maybeCompress()
	}
}

// settleRun caps the pending run, so settle's scratch is a fixed-size stack
// array and exact mode (which never compresses) settles in chunks.
const settleRun = 1024

// runKey is one pending observation during a settle: its value as an
// order-preserving unsigned key (see sortKey) and its count.
type runKey struct {
	k uint64
	n int64
}

// zeroKey is the key of both zeros, so ±0 coalesce as they compare equal.
const zeroKey = 1 << 63

// sortKey maps a finite float64 to a uint64 whose unsigned order is the
// float order: the sign bit is flipped for positives, every bit for
// negatives. Both zeros map to zeroKey.
func sortKey(v float64) uint64 {
	if v == 0 {
		return zeroKey
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyValue inverts sortKey (zeroKey decodes to +0).
func keyValue(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// settle merges the pending run into the settled centroids: the run is
// keyed and radix-sorted in stack scratch, equal values are coalesced, and
// the result is merged into cs from the back, in place, with a value equal
// to a settled centroid folding into it. The result equals inserting the
// run one value at a time.
func (s *Sketch) settle() {
	p := s.pending
	if p == 0 {
		return
	}
	s.pending = 0
	m := len(s.cs)
	var bufA, bufB [settleRun]runKey
	keys, tmp := bufA[:p], bufB[:p]
	// One pass extracts the keys, remembers the first zero's bits (it wins
	// over later zeros of the other sign) and finds the key bits that vary.
	run := s.cs[m : m+p]
	zero, sawZero := 0.0, false
	k0 := sortKey(run[0].V)
	var varying uint64
	for i, c := range run {
		k := sortKey(c.V)
		if k == zeroKey && !sawZero {
			zero, sawZero = c.V, true
		}
		keys[i] = runKey{k: k, n: c.N}
		varying |= k ^ k0
	}
	sortRun(keys, tmp, varying)
	// Coalesce equal keys within the run.
	u := 0
	for i := 1; i < p; i++ {
		if keys[i].k == keys[u].k {
			keys[u].n += keys[i].n
		} else {
			u++
			keys[u] = keys[i]
		}
	}
	keys = keys[:u+1]
	// Merge from the back into cs[:m+len(keys)], which the run's spare
	// capacity holds. w-i never drops below the run entries left, so while
	// any remain a write lands above every settled centroid not yet read.
	cs := s.cs[:m+len(keys)]
	i, w := m-1, len(cs)-1
	for j := len(keys) - 1; j >= 0; j-- {
		v := keyValue(keys[j].k)
		if keys[j].k == zeroKey {
			v = zero
		}
		for i >= 0 && cs[i].V > v {
			cs[w] = cs[i]
			i, w = i-1, w-1
		}
		if i >= 0 && cs[i].V == v {
			cs[i].N += keys[j].n
			continue
		}
		cs[w] = Centroid{V: v, N: keys[j].n}
		w--
	}
	// Values that coalesced into settled centroids leave a gap between the
	// untouched prefix cs[:i+1] and the merged tail cs[w+1:].
	if gap := w - i; gap > 0 {
		copy(cs[i+1:], cs[w+1:])
		cs = cs[:len(cs)-gap]
	}
	s.cs = cs
}

// insertionCutoff is the run length below which sortRun insertion-sorts.
const insertionCutoff = 16

// sortRun sorts keys ascending by k, with tmp (as long as keys) as scratch.
// varying has a bit set wherever two keys may differ; the keys agree on
// every other bit. It is an MSD radix sort on the top varying bits that
// recurses into the buckets and insertion-sorts short ones, so constant
// leading bits (a shared sign and exponent) cost nothing.
func sortRun(keys, tmp []runKey, varying uint64) {
	if varying == 0 {
		return
	}
	if len(keys) <= insertionCutoff {
		for i := 1; i < len(keys); i++ {
			e := keys[i]
			j := i
			for ; j > 0 && keys[j-1].k > e.k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = e
		}
		return
	}
	// About four keys per bucket: the digit is the top width varying bits.
	width := min(bits.Len(uint(len(keys)))-2, 8)
	shift := max(bits.Len64(varying)-width, 0)
	mask := uint64(1)<<width - 1
	var start [1<<8 + 1]int32
	for _, e := range keys {
		start[e.k>>shift&mask+1]++
	}
	for d := 1; d <= int(mask)+1; d++ {
		start[d] += start[d-1]
	}
	next := start
	for _, e := range keys {
		d := e.k >> shift & mask
		tmp[next[d]] = e
		next[d]++
	}
	copy(keys, tmp)
	low := varying & (1<<shift - 1)
	for d := 0; d <= int(mask); d++ {
		if lo, hi := start[d], start[d+1]; hi-lo > 1 {
			sortRun(keys[lo:hi], tmp[lo:hi], low)
		}
	}
}

// Merge folds other into s as if its centroids had been observed here, in
// ascending value order. Deterministic: merging the same pair always yields
// the same state, so a fixed merge order (shard order) gives reproducible
// fleet summaries. The error bounds combine conservatively.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.n == 0 {
		return
	}
	s.settle()
	other.settle()
	if other.errV > s.errV {
		s.errV = other.errV
	}
	// Two-way merge of the sorted centroid lists; equal values coalesce.
	merged := make([]Centroid, 0, len(s.cs)+len(other.cs))
	i, j := 0, 0
	for i < len(s.cs) && j < len(other.cs) {
		switch {
		case s.cs[i].V < other.cs[j].V:
			merged = append(merged, s.cs[i])
			i++
		case s.cs[i].V > other.cs[j].V:
			merged = append(merged, other.cs[j])
			j++
		default:
			merged = append(merged, Centroid{V: s.cs[i].V, N: s.cs[i].N + other.cs[j].N})
			i, j = i+1, j+1
		}
	}
	merged = append(merged, s.cs[i:]...)
	merged = append(merged, other.cs[j:]...)
	s.cs = merged
	s.n += other.n
	s.sum += other.sum
	s.maybeCompress()
}

// compressSlack lets the sketch run ahead of its budget between compressions
// so Observe stays amortized-cheap instead of compressing on every insert.
const compressSlack = 2

func (s *Sketch) maybeCompress() {
	if s.budget > 0 && len(s.cs) > s.budget*compressSlack {
		s.compress()
	}
}

// compress coalesces adjacent centroids into weighted means until at most
// budget remain. The pass is greedy left-to-right over a value width w,
// doubling w (starting from span/budget) until the result fits — purely
// data-dependent, hence deterministic. The widest cluster span produced is
// added to the error receipt: no observation moves farther than its
// cluster's span in one pass.
func (s *Sketch) compress() {
	span := s.cs[len(s.cs)-1].V - s.cs[0].V
	w := span / float64(s.budget)
	for {
		if s.clusters(w) <= s.budget {
			break
		}
		w *= 2
	}
	out := s.cs[:0]
	maxSpan := 0.0
	for start := 0; start < len(s.cs); {
		end := start + 1
		for end < len(s.cs) && s.cs[end].V-s.cs[start].V <= w {
			end++
		}
		if end == start+1 {
			out = append(out, s.cs[start])
		} else {
			var vn float64
			var n int64
			for k := start; k < end; k++ {
				vn += s.cs[k].V * float64(s.cs[k].N)
				n += s.cs[k].N
			}
			lo, hi := s.cs[start].V, s.cs[end-1].V
			if hi-lo > maxSpan {
				maxSpan = hi - lo
			}
			mean := vn / float64(n)
			if !(math.Abs(mean) <= math.MaxFloat64) {
				mean = scaledMean(s.cs[start:end], n, lo, hi)
			}
			out = append(out, Centroid{V: mean, N: n})
		}
		start = end
	}
	s.cs = out
	s.errV += maxSpan
}

// scaledMean is the weighted mean of cs (total count n, values in [lo, hi])
// for a cluster whose Σ V·N overflows: each value is scaled by 2^-64 first,
// so no partial sum can exceed MaxFloat64/2 (counts total below 2^63), and
// the result is clamped into the cluster's span, where the exact mean lies.
// Keeping every centroid finite keeps compress's width search terminating.
func scaledMean(cs []Centroid, n int64, lo, hi float64) float64 {
	var vn float64
	for _, c := range cs {
		vn += math.Ldexp(c.V, -64) * float64(c.N)
	}
	return min(max(math.Ldexp(vn/float64(n), 64), lo), hi)
}

// clusters counts the greedy left-to-right clusters of width w.
func (s *Sketch) clusters(w float64) int {
	count := 0
	for start := 0; start < len(s.cs); count++ {
		end := start + 1
		for end < len(s.cs) && s.cs[end].V-s.cs[start].V <= w {
			end++
		}
		start = end
	}
	return count
}

// Quantile returns the q-th (0..1) weighted empirical quantile of the
// sketch: the smallest centroid value whose cumulative count reaches
// ceil(q·N). It differs from the exact sample quantile by at most
// ErrorBound. Returns 0 for an empty sketch; q is clamped to [0, 1].
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.settle()
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range s.cs {
		cum += s.cs[i].N
		if cum >= target {
			return s.cs[i].V
		}
	}
	return s.cs[len(s.cs)-1].V
}
