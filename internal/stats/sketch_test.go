package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
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
	if !bytes.Equal(appendSketchState(nil, a), appendSketchState(nil, b)) {
		t.Fatal("fixed-order merge is not reproducible")
	}
}

// appendSketchState appends a bit-exact dump of s's settled state to b:
// budget, n, the bits of sum and errV, the centroid count, then each
// centroid's V bits and N. Two sketches with equal dumps are
// indistinguishable to every reader. It settles s first, as every read does.
func appendSketchState(b []byte, s *Sketch) []byte {
	s.settle()
	b = binary.LittleEndian.AppendUint64(b, uint64(s.budget))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.n))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.sum))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.errV))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.cs)))
	for _, c := range s.cs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.V))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.N))
	}
	return b
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

// insertObserve is Observe as one sorted insert per call — the path Observe
// took before it parked observations in a pending run. It is the oracle the
// settled batches are checked against: a sketch fed only through it never
// has a pending run.
func insertObserve(s *Sketch, v float64, n int64) {
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

// TestSketchCompressNearMaxFloat: finite observations near ±MaxFloat64 make
// compress's Σ V·N overflow. Every centroid must stay finite and inside the
// observed range, and Observe and Merge must return: an infinite centroid
// would turn compress's span into NaN and its width search would never end.
// The error receipt may be +Inf (a cluster spanning more than MaxFloat64
// moves some observation farther than a float64 can say), never NaN.
func TestSketchCompressNearMaxFloat(t *testing.T) {
	const big = math.MaxFloat64
	vals := []float64{-big, big, -big / 2, big / 2, -big, big / 3, 1, -big / 4}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for budget := 1; budget <= 3; budget++ {
			for _, n := range []int64{1, 1 << 40} {
				a, b := NewSketch(budget), NewSketch(budget)
				for i, v := range vals {
					a.Observe(v, n)
					b.Observe(-vals[len(vals)-1-i], n)
				}
				a.Merge(b)
				a.Merge(b)
				if e := a.ErrorBound(); math.IsNaN(e) || e < 0 {
					t.Errorf("budget %d n %d: ErrorBound %v", budget, n, e)
				}
				var total int64
				for i, c := range a.Centroids() {
					if math.IsInf(c.V, 0) || math.IsNaN(c.V) || (i > 0 && !(c.V > a.Centroids()[i-1].V)) {
						t.Errorf("budget %d n %d: centroid %d %+v in %v", budget, n, i, c, a.Centroids())
					}
					total += c.N
				}
				if total != a.N() || a.N() != 3*int64(len(vals))*n {
					t.Errorf("budget %d n %d: centroids hold %d of N %d", budget, n, total, a.N())
				}
				for q := 0.0; q <= 1; q += 0.125 {
					if v := a.Quantile(q); math.IsInf(v, 0) || math.IsNaN(v) {
						t.Errorf("budget %d n %d: Quantile(%v) = %v", budget, n, q, v)
					}
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Observe or Merge did not return on values near ±MaxFloat64")
	}
}

// fuzzValue decodes one observed value from two bytes, biased towards heavy
// duplicates, both zeros and extreme magnitudes. The largest stay far enough
// below MaxFloat64 that no weighted mean compress forms overflows;
// TestSketchCompressNearMaxFloat covers that range.
func fuzzValue(a, b byte) float64 {
	switch a % 16 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2, 3, 4, 5:
		return float64(b % 8)
	case 6:
		return -float64(b%8) - 0.5
	case 7:
		return math.Ldexp(float64(b)+1, 900) // ≈1e271
	case 8:
		return -math.Ldexp(float64(b)+1, 900)
	case 9:
		return math.Ldexp(float64(b), -1074) // subnormals
	case 10:
		return math.Ldexp(float64(b)+1, -1000)
	default:
		return float64(int(a)<<8|int(b))/7 - 2000
	}
}

// sketchPair is one sketch fed through Observe and its oracle fed the same
// operations through insertObserve.
type sketchPair struct{ got, want *Sketch }

// checkSketchesAgree fails unless got and want are indistinguishable to
// every reader: the full state dump, Sum, ErrorBound and a grid of
// quantiles, all compared bit for bit.
func checkSketchesAgree(t *testing.T, step int, p sketchPair) {
	t.Helper()
	if g, w := appendSketchState(nil, p.got), appendSketchState(nil, p.want); !bytes.Equal(g, w) {
		t.Fatalf("step %d: states differ\n got %x\nwant %x", step, g, w)
	}
	if g, w := math.Float64bits(p.got.Sum()), math.Float64bits(p.want.Sum()); g != w {
		t.Fatalf("step %d: Sum %v, oracle %v", step, p.got.Sum(), p.want.Sum())
	}
	if g, w := math.Float64bits(p.got.ErrorBound()), math.Float64bits(p.want.ErrorBound()); g != w {
		t.Fatalf("step %d: ErrorBound %v, oracle %v", step, p.got.ErrorBound(), p.want.ErrorBound())
	}
	for q := 0.0; q <= 1; q += 1.0 / 32 {
		if g, w := p.got.Quantile(q), p.want.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d: Quantile(%v) = %v, oracle %v", step, q, g, w)
		}
	}
}

// sketchMatchesInsert runs the op sequence data encodes on two sketch pairs
// (budgets 0..64 from the first two bytes) and requires Observe's settled
// batches to match the one-at-a-time oracle after every read and at the end.
// Ops: observe (with n = 1 or, with bit 3 set, 1..5) into either pair; a
// mid-stream Quantile, Centroids or state-dump read; a merge of the second
// pair into the first, after which the second starts afresh (so counts grow
// linearly, never doubling through repeated cross-merges).
func sketchMatchesInsert(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	budgetA, budgetB := int(data[0]%65), int(data[1]%65)
	pairs := [2]sketchPair{
		{NewSketch(budgetA), NewSketch(budgetA)},
		{NewSketch(budgetB), NewSketch(budgetB)},
	}
	data = data[2:]
	for step := 0; len(data) >= 3; step++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		p := pairs[op>>7]
		switch op % 8 {
		case 0, 1, 2, 3, 4:
			v, n := fuzzValue(a, b), int64(1)
			if op&8 != 0 {
				n = int64(b%5) + 1
			}
			p.got.Observe(v, n)
			insertObserve(p.want, v, n)
		case 5:
			q := float64(a) / 255
			if g, w := p.got.Quantile(q), p.want.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d: Quantile(%v) = %v, oracle %v", step, q, g, w)
			}
		case 6:
			g, w := p.got.Centroids(), p.want.Centroids()
			same := len(g) == len(w)
			for i := 0; same && i < len(g); i++ {
				same = math.Float64bits(g[i].V) == math.Float64bits(w[i].V) && g[i].N == w[i].N
			}
			if !same {
				t.Fatalf("step %d: centroids differ\n got %v\nwant %v", step, g, w)
			}
		case 7:
			if a%2 == 0 {
				checkSketchesAgree(t, step, p)
				continue
			}
			pairs[0].got.Merge(pairs[1].got)
			pairs[0].want.Merge(pairs[1].want)
			pairs[1] = sketchPair{NewSketch(budgetB), NewSketch(budgetB)}
		}
	}
	checkSketchesAgree(t, -1, pairs[0])
	checkSketchesAgree(t, -1, pairs[1])
}

// FuzzSketchMatchesInsert differentially checks Observe's batched settle
// against the one-at-a-time insert it replaced.
func FuzzSketchMatchesInsert(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(randomSketchOps(seed))
	}
	f.Fuzz(sketchMatchesInsert)
}

// randomSketchOps returns a seeded op sequence for sketchMatchesInsert,
// long enough to cross settle chunks and several compressions.
func randomSketchOps(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 2+3*(50+rng.Intn(3000)))
	rng.Read(b)
	// Most ops observe; keep reads and merges sparse so runs grow long.
	for i := 2; i+2 < len(b); i += 3 {
		if rng.Intn(40) != 0 {
			b[i] = b[i]&^7 | byte(rng.Intn(5))
		}
	}
	return b
}

// TestSketchMatchesInsertRandom runs the differential check on seeded op
// sequences, so the plain test suite covers it without a fuzzing run.
func TestSketchMatchesInsertRandom(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		sketchMatchesInsert(t, randomSketchOps(seed))
	}
}

// BenchmarkSketchObserve files continuous values into a fleet-sized sketch
// (budget 512), the per-visit energy pattern: nearly every observation is a
// new distinct value, so the sketch compresses every few hundred calls.
func BenchmarkSketchObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = 5 + 3*float64(rng.Intn(6)) + 0.8*rng.ExpFloat64()
	}
	s := NewSketch(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(vals[i&(len(vals)-1)], 1)
	}
}

// TestSketchObserveAllocs gates Observe at zero allocations once the centroid
// slice has grown to its working capacity: pending runs park in its spare
// capacity and settle in stack scratch.
func TestSketchObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; run the allocation gates without -race")
	}
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1<<14)
	for i := range vals {
		vals[i] = 5 + 3*float64(rng.Intn(6)) + 0.8*rng.ExpFloat64()
	}
	for _, budget := range []int{16, 512} {
		s := NewSketch(budget)
		for _, v := range vals {
			s.Observe(v, 1)
		}
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			for k := 0; k < 2000; k++ {
				s.Observe(vals[i&(len(vals)-1)], 1)
				i++
			}
			_ = s.Quantile(0.99)
		})
		if allocs != 0 {
			t.Errorf("budget %d: %v allocs per 2,000 observations, want 0", budget, allocs)
		}
	}
}

// TestSketchConcurrentReadsAfterMerge: a merged sketch is settled, so
// reading it from several goroutines writes nothing (the race detector
// checks this under -race) and every reader sees the same state.
func TestSketchConcurrentReadsAfterMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	global := NewSketch(64)
	for sh := 0; sh < 4; sh++ {
		shard := NewSketch(64)
		for i := 0; i < 300+sh*50; i++ {
			shard.Observe(rng.ExpFloat64()*10, 1)
		}
		global.Merge(shard)
	}
	var wg sync.WaitGroup
	encs := make([][]byte, 2)
	for g := range encs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b []byte
			for _, c := range global.Centroids() {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.V))
			}
			for _, q := range []float64{0.5, 0.95, 0.99} {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(global.Quantile(q)))
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(global.NumCentroids()))
			encs[g] = appendSketchState(b, global)
		}()
	}
	wg.Wait()
	if !bytes.Equal(encs[0], encs[1]) {
		t.Fatal("concurrent readers of a merged sketch saw different states")
	}
}
