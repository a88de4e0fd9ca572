package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
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
// The zero value is not usable; construct sketches with NewSketch.
type Sketch struct {
	budget int
	cs     []Centroid // sorted ascending by V, values strictly increasing
	n      int64
	sum    float64 // exact Σ v·n in observation order
	errV   float64 // accumulated worst-case displacement of any observation
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
func (s *Sketch) NumCentroids() int { return len(s.cs) }

// Centroids returns the centroids in ascending value order. The slice is the
// sketch's own storage: read-only, valid until the next mutating call.
func (s *Sketch) Centroids() []Centroid { return s.cs }

// ErrorBound returns the worst-case distance any observed value may have
// drifted from the centroid now representing it. Consequently every quantile
// of the sketch is within ErrorBound of the exact sample quantile. It is 0
// until the first compression and only grows.
func (s *Sketch) ErrorBound() float64 { return s.errV }

// Observe records n observations of value v. n must be positive and v must
// be finite.
func (s *Sketch) Observe(v float64, n int64) {
	if n <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.n += n
	s.sum += v * float64(n)
	i := sort.Search(len(s.cs), func(i int) bool { return s.cs[i].V >= v })
	if i < len(s.cs) && s.cs[i].V == v {
		s.cs[i].N += n
		return
	}
	s.cs = append(s.cs, Centroid{})
	copy(s.cs[i+1:], s.cs[i:])
	s.cs[i] = Centroid{V: v, N: n}
	s.maybeCompress()
}

// Merge folds other into s as if its centroids had been observed here, in
// ascending value order. Deterministic: merging the same pair always yields
// the same state, so a fixed merge order (shard order) gives reproducible
// fleet summaries. The error bounds combine conservatively.
func (s *Sketch) Merge(other *Sketch) {
	if other == nil || other.n == 0 {
		return
	}
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
			if cs := s.cs[end-1].V - s.cs[start].V; cs > maxSpan {
				maxSpan = cs
			}
			out = append(out, Centroid{V: vn / float64(n), N: n})
		}
		start = end
	}
	s.cs = out
	s.errV += maxSpan
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

// Wire format: everything little-endian and bit-exact, so a sketch
// round-tripped through AppendBinary/DecodeSketch is byte-identical to the
// original — the property the multi-process fleet protocol depends on.
//
//	u32 budget (two's complement)  u64 n  f64 sum  f64 errV
//	u32 numCentroids  then per centroid: f64 V  u64 N

// AppendBinary appends the sketch's exact binary encoding to b.
func (s *Sketch) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(s.budget)))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.sum))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.errV))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.cs)))
	for _, c := range s.cs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.V))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.N))
	}
	return b
}

// maxDecodeCentroids bounds a decoded centroid count so a corrupt length
// field cannot drive a huge allocation.
const maxDecodeCentroids = 1 << 22

// DecodeSketch decodes one sketch from the front of b, returning it and the
// remaining bytes. It rejects any sketch that violates the invariants
// Observe and Merge maintain (see validate).
func DecodeSketch(b []byte) (*Sketch, []byte, error) {
	const header = 4 + 8 + 8 + 8 + 4
	if len(b) < header {
		return nil, nil, fmt.Errorf("stats: sketch truncated (%d header bytes)", len(b))
	}
	s := &Sketch{
		budget: int(int32(binary.LittleEndian.Uint32(b))),
		n:      int64(binary.LittleEndian.Uint64(b[4:])),
		sum:    math.Float64frombits(binary.LittleEndian.Uint64(b[12:])),
		errV:   math.Float64frombits(binary.LittleEndian.Uint64(b[20:])),
	}
	num := int(binary.LittleEndian.Uint32(b[28:]))
	if num > maxDecodeCentroids {
		return nil, nil, fmt.Errorf("stats: sketch centroid count %d exceeds limit", num)
	}
	b = b[header:]
	if len(b) < num*16 {
		return nil, nil, fmt.Errorf("stats: sketch truncated (%d centroids, %d bytes left)", num, len(b))
	}
	if num > 0 {
		s.cs = make([]Centroid, num)
		for i := range s.cs {
			s.cs[i].V = math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:]))
			s.cs[i].N = int64(binary.LittleEndian.Uint64(b[i*16+8:]))
		}
	}
	if err := s.validate(); err != nil {
		return nil, nil, err
	}
	return s, b[num*16:], nil
}

// validate checks the invariants every encoded sketch satisfies: centroid
// values finite and strictly increasing, every count positive, the header
// count equal to their sum, and a finite, non-negative error receipt.
// (Compressing values near ±MaxFloat64 could overflow a weighted mean; no
// fleet quantity comes near that range, and such a sketch is rejected too.)
func (s *Sketch) validate() error {
	if math.IsNaN(s.errV) || math.IsInf(s.errV, 0) || s.errV < 0 {
		return fmt.Errorf("stats: sketch error bound %v is not finite and non-negative", s.errV)
	}
	var n int64
	for i, c := range s.cs {
		if math.IsNaN(c.V) || math.IsInf(c.V, 0) {
			return fmt.Errorf("stats: sketch centroid %d has non-finite value %v", i, c.V)
		}
		if i > 0 && !(c.V > s.cs[i-1].V) {
			return fmt.Errorf("stats: sketch centroids out of order at %d", i)
		}
		if c.N <= 0 || n > math.MaxInt64-c.N {
			return fmt.Errorf("stats: sketch centroid %d has count %d (running total %d)", i, c.N, n)
		}
		n += c.N
	}
	if n != s.n {
		return fmt.Errorf("stats: sketch header count %d, centroids hold %d", s.n, n)
	}
	return nil
}
