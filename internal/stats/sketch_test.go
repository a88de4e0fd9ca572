package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactQuantile mirrors Sketch.Quantile on the raw sample: the smallest
// value whose cumulative count reaches ceil(q·n).
func exactQuantile(sorted []float64, q float64) float64 {
	target := int(math.Ceil(q * float64(len(sorted))))
	if target < 1 {
		target = 1
	}
	return sorted[target-1]
}

// sampleSets generates the fuzzed distribution shapes the property tests
// sweep: uniform, exponential, tightly clustered, heavy duplicates, and a
// bimodal mix — each with its own seed per trial.
func sampleSets(t *testing.T, trial int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000 + trial)))
	n := 500 + rng.Intn(2000)
	uniform := make([]float64, n)
	exponential := make([]float64, n)
	clustered := make([]float64, n)
	duplicated := make([]float64, n)
	bimodal := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Float64() * 100
		exponential[i] = rng.ExpFloat64() * 3
		clustered[i] = 50 + rng.NormFloat64()*0.01
		duplicated[i] = float64(rng.Intn(7)) + 0.5
		if rng.Intn(2) == 0 {
			bimodal[i] = 1 + rng.Float64()
		} else {
			bimodal[i] = 100 + rng.Float64()*10
		}
	}
	return [][]float64{uniform, exponential, clustered, duplicated, bimodal}
}

func TestSketchQuantileWithinErrorBound(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
	for trial := 0; trial < 5; trial++ {
		for shape, xs := range sampleSets(t, trial) {
			for _, budget := range []int{16, 64, 256} {
				s := NewSketch(budget)
				sum := 0.0
				for _, x := range xs {
					s.Observe(x, 1)
					sum += x
				}
				if s.N() != int64(len(xs)) {
					t.Fatalf("shape %d budget %d: N = %d, want %d", shape, budget, s.N(), len(xs))
				}
				if s.Sum() != sum {
					t.Fatalf("shape %d budget %d: Sum = %v, want exact %v", shape, budget, s.Sum(), sum)
				}
				if got := s.NumCentroids(); got > budget*compressSlack {
					t.Fatalf("shape %d budget %d: %d centroids exceed slack cap", shape, budget, got)
				}
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				bound := s.ErrorBound()
				for _, q := range qs {
					got, want := s.Quantile(q), exactQuantile(sorted, q)
					if d := math.Abs(got - want); d > bound+1e-12 {
						t.Fatalf("shape %d budget %d q=%v: |%v - %v| = %v > ErrorBound %v",
							shape, budget, q, got, want, d, bound)
					}
				}
			}
		}
	}
}

func TestSketchExactModeIsLossless(t *testing.T) {
	xs := sampleSets(t, 0)[0]
	s := NewSketch(0)
	for _, x := range xs {
		s.Observe(x, 1)
	}
	if s.ErrorBound() != 0 {
		t.Fatalf("exact mode ErrorBound = %v, want 0", s.ErrorBound())
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.123, 0.5, 0.87, 1} {
		if got, want := s.Quantile(q), exactQuantile(sorted, q); got != want {
			t.Fatalf("exact mode q=%v: got %v want %v", q, got, want)
		}
	}
}

// TestSketchMergeFixedOrderDeterministic pins the property the fleet relies
// on: merging the same shard sketches in the same order always reproduces
// the same bytes, even when compression fires during the merges.
func TestSketchMergeFixedOrderDeterministic(t *testing.T) {
	build := func() *Sketch {
		shards := make([]*Sketch, 8)
		rng := rand.New(rand.NewSource(7))
		for i := range shards {
			shards[i] = NewSketch(32)
			for j := 0; j < 400; j++ {
				shards[i].Observe(rng.Float64()*50, int64(1+rng.Intn(5)))
			}
		}
		global := NewSketch(32)
		for _, sh := range shards {
			global.Merge(sh)
		}
		return global
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.AppendBinary(nil), b.AppendBinary(nil)) {
		t.Fatal("fixed-order merge is not reproducible")
	}
}

// TestSketchMergeAssociativeUncompressed: while every distinct value fits the
// budget, merge is exactly associative and commutative (the sketch is just a
// sorted multiset), so any grouping of the shard merges yields identical
// centroids.
func TestSketchMergeAssociativeUncompressed(t *testing.T) {
	mk := func(vals ...float64) *Sketch {
		s := NewSketch(1024)
		for i, v := range vals {
			s.Observe(v, int64(i+1))
		}
		return s
	}
	a := mk(1, 3, 5, 7)
	b := mk(2, 3, 8)
	c := mk(0.5, 5, 9)

	left := NewSketch(1024)
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)

	bc := NewSketch(1024)
	bc.Merge(b)
	bc.Merge(c)
	right := NewSketch(1024)
	right.Merge(a)
	right.Merge(bc)

	swapped := NewSketch(1024)
	swapped.Merge(c)
	swapped.Merge(a)
	swapped.Merge(b)

	if !reflect.DeepEqual(left.Centroids(), right.Centroids()) {
		t.Fatal("uncompressed merge is not associative")
	}
	if !reflect.DeepEqual(left.Centroids(), swapped.Centroids()) {
		t.Fatal("uncompressed merge is not commutative")
	}
	if left.N() != right.N() || left.N() != swapped.N() {
		t.Fatal("merge changed total count")
	}
}

// TestSketchMergeConservesMass: under any merge order, with compression
// firing, N and Sum are conserved exactly (Sum is FP-order-sensitive only in
// its observation order, which merges replay identically).
func TestSketchMergeConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	parts := make([]*Sketch, 4)
	var wantN int64
	for i := range parts {
		parts[i] = NewSketch(16)
		for j := 0; j < 300; j++ {
			parts[i].Observe(rng.ExpFloat64(), 2)
			wantN += 2
		}
	}
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}} {
		g := NewSketch(16)
		for _, i := range order {
			g.Merge(parts[i])
		}
		if g.N() != wantN {
			t.Fatalf("order %v: N = %d, want %d", order, g.N(), wantN)
		}
		var cn int64
		for _, c := range g.Centroids() {
			cn += c.N
		}
		if cn != wantN {
			t.Fatalf("order %v: centroid mass %d, want %d", order, cn, wantN)
		}
	}
}

func TestSketchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	s := NewSketch(24)
	for i := 0; i < 1000; i++ {
		s.Observe(rng.NormFloat64()*10+50, int64(1+rng.Intn(3)))
	}
	enc := s.AppendBinary(nil)
	got, rest, err := DecodeSketch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d bytes", len(rest))
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatal("round trip changed the sketch")
	}
	// Re-encoding must reproduce the exact bytes.
	if !reflect.DeepEqual(got.AppendBinary(nil), enc) {
		t.Fatal("re-encode differs")
	}
	// An empty sketch round-trips too.
	empty := NewSketch(0)
	got2, _, err := DecodeSketch(empty.AppendBinary(nil))
	if err != nil || got2.N() != 0 || got2.NumCentroids() != 0 {
		t.Fatalf("empty round trip: %v %+v", err, got2)
	}
}

func TestSketchDecodeRejectsCorrupt(t *testing.T) {
	s := NewSketch(8)
	s.Observe(1, 1)
	s.Observe(2, 1)
	enc := s.AppendBinary(nil)
	if _, _, err := DecodeSketch(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, _, err := DecodeSketch(enc[:3]); err == nil {
		t.Fatal("truncated header decoded")
	}
	// Swap the two centroids' values to break the order invariant.
	bad := append([]byte(nil), enc...)
	copy(bad[32:40], enc[48:56])
	copy(bad[48:56], enc[32:40])
	if _, _, err := DecodeSketch(bad); err == nil {
		t.Fatal("out-of-order centroids decoded")
	}
}

// rawSketch encodes arbitrary header and centroid fields in the wire
// format, including combinations AppendBinary never writes.
func rawSketch(n int64, errV float64, cs ...Centroid) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 8)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(errV))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cs)))
	for _, c := range cs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.V))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.N))
	}
	return b
}

func TestSketchDecodeRejectsInvariantViolations(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"zero count", rawSketch(3, 0, Centroid{1, 0}, Centroid{2, 3})},
		{"negative count", rawSketch(1, 0, Centroid{1, 2}, Centroid{2, -1})},
		{"header n above sum", rawSketch(5, 0, Centroid{1, 2}, Centroid{2, 2})},
		{"header n below sum", rawSketch(3, 0, Centroid{1, 2}, Centroid{2, 2})},
		{"header n without centroids", rawSketch(1, 0)},
		{"count sum overflows", rawSketch(math.MinInt64, 0, Centroid{1, math.MaxInt64}, Centroid{2, 1})},
		{"lone NaN centroid", rawSketch(1, 0, Centroid{nan, 1})},
		{"infinite centroid", rawSketch(2, 0, Centroid{1, 1}, Centroid{inf, 1})},
		{"NaN error bound", rawSketch(1, nan, Centroid{1, 1})},
		{"infinite error bound", rawSketch(1, inf, Centroid{1, 1})},
		{"negative error bound", rawSketch(1, -0.5, Centroid{1, 1})},
	} {
		if s, _, err := DecodeSketch(tc.enc); err == nil {
			t.Errorf("%s: decoded %+v, want an error", tc.name, s)
		}
	}
	// The same helper produces an acceptable sketch when the fields agree.
	if _, _, err := DecodeSketch(rawSketch(4, 0.25, Centroid{1, 2}, Centroid{2, 2})); err != nil {
		t.Fatalf("valid raw sketch rejected: %v", err)
	}
}

func TestSketchIgnoresInvalidObservations(t *testing.T) {
	s := NewSketch(8)
	s.Observe(math.NaN(), 1)
	s.Observe(math.Inf(1), 1)
	s.Observe(1, 0)
	s.Observe(1, -3)
	if s.N() != 0 || s.NumCentroids() != 0 {
		t.Fatalf("invalid observations were recorded: %+v", s)
	}
}

// FuzzDecodeSketch feeds arbitrary bytes to the decoder the multi-process
// fleet reads worker output through. Whatever it accepts must re-encode to
// exactly the bytes it consumed, hold every invariant an encoder keeps, and
// survive merging and quantile queries.
func FuzzDecodeSketch(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	exact, compressed, merged := NewSketch(0), NewSketch(8), NewSketch(4)
	for i := 0; i < 200; i++ {
		exact.Observe(float64(rng.Intn(20)), 1)
		compressed.Observe(rng.ExpFloat64()*3, int64(1+rng.Intn(4)))
	}
	merged.Merge(exact)
	merged.Merge(compressed)
	for _, s := range []*Sketch{NewSketch(0), exact, compressed, merged} {
		f.Add(s.AppendBinary(nil))
	}
	f.Add(append(compressed.AppendBinary(nil), 1, 2, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, rest, err := DecodeSketch(b)
		if err != nil {
			return
		}
		if enc := s.AppendBinary(nil); !bytes.Equal(enc, b[:len(b)-len(rest)]) {
			t.Fatalf("re-encode differs from the %d consumed bytes", len(b)-len(rest))
		}
		if e := s.ErrorBound(); math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			t.Fatalf("error bound %v accepted", e)
		}
		var n int64
		for i, c := range s.Centroids() {
			if math.IsNaN(c.V) || math.IsInf(c.V, 0) || c.N <= 0 || (i > 0 && !(c.V > s.Centroids()[i-1].V)) {
				t.Fatalf("centroid %d %+v accepted", i, c)
			}
			n += c.N
		}
		if n != s.N() {
			t.Fatalf("header count %d, centroids hold %d", s.N(), n)
		}
		for _, budget := range []int{0, 3} {
			m := NewSketch(budget)
			m.Merge(s)
			m.Merge(s)
			if m.N() != 2*s.N() {
				t.Fatalf("budget %d: merged count %d, want %d", budget, m.N(), 2*s.N())
			}
			_ = m.Quantile(0.5)
		}
	})
}
