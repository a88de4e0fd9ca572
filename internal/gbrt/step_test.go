package gbrt

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// stepModel is a forest of the fleet's shape (10 features, 8-leaf trees) on
// data mixing continuous and integer-valued columns, trained once per test
// binary.
var stepModel = sync.OnceValues(func() (*Model, [][]float64) {
	xs, ys := fleetShapeData()
	m, err := Train(xs, ys, Config{Trees: 120, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5})
	if err != nil {
		panic(err)
	}
	return m, xs
})

// stepValue is what a step table built from Thresholds stores for x: the
// model evaluated at the upper threshold of x's interval, or just above the
// last threshold for x beyond it.
func stepValue(t *testing.T, m *Model, base []float64, f int, thr []float64, x float64) float64 {
	t.Helper()
	rep := 0.0
	switch i := sort.SearchFloat64s(thr, x); {
	case i < len(thr):
		rep = thr[i]
	case len(thr) > 0:
		rep = math.Nextafter(thr[len(thr)-1], math.Inf(1))
	}
	return predictAt(t, m, base, f, rep)
}

// predictAt is Predict on base with feature f replaced by x.
func predictAt(t *testing.T, m *Model, base []float64, f int, x float64) float64 {
	t.Helper()
	v := append([]float64(nil), base...)
	v[f] = x
	got, err := m.Predict(v)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestThresholdStepMatchesPredict checks the step-function contract of
// Thresholds bit for bit: on every threshold, on both of its float
// neighbours and at random points, Predict equals Predict at the
// representative of the point's interval.
func TestThresholdStepMatchesPredict(t *testing.T) {
	m, xs := stepModel()
	rng := rand.New(rand.NewSource(3))
	split := 0
	for f := 0; f < m.NumFeatures(); f++ {
		thr := m.Thresholds(f)
		for i := range thr {
			if math.IsNaN(thr[i]) || (i > 0 && !(thr[i-1] < thr[i])) {
				t.Fatalf("feature %d: thresholds not strictly ascending at %d: %v", f, i, thr)
			}
		}
		split += len(thr)
		for _, row := range []int{0, 17, 123, 499} {
			base := xs[row]
			var probes []float64
			for _, th := range thr {
				probes = append(probes, th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1)))
			}
			for k := 0; k < 200; k++ {
				probes = append(probes, rng.Float64()*120-10)
			}
			probes = append(probes, math.Inf(-1), math.Inf(1), -0.0)
			for _, x := range probes {
				want := predictAt(t, m, base, f, x)
				got := stepValue(t, m, base, f, thr, x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("feature %d row %d x=%v: step %v, Predict %v", f, row, x, got, want)
				}
			}
		}
	}
	if split == 0 {
		t.Fatal("model has no splits")
	}
}

// FuzzStepMatchesPredict is TestThresholdStepMatchesPredict over arbitrary
// (feature, base row, x, perturbation of another feature).
func FuzzStepMatchesPredict(f *testing.F) {
	f.Add(uint8(0), uint16(0), 50.0, uint8(1), 3.0)
	f.Add(uint8(1), uint16(7), 3.5, uint8(0), 0.0)
	f.Add(uint8(9), uint16(400), -1.0, uint8(9), 1e300)
	f.Add(uint8(4), uint16(42), math.Inf(1), uint8(2), -7.25)
	f.Fuzz(func(t *testing.T, feat uint8, row uint16, x float64, other uint8, ov float64) {
		m, xs := stepModel()
		fi := int(feat) % m.NumFeatures()
		if math.IsNaN(x) || math.IsNaN(ov) {
			t.Skip("NaN features are outside the model's domain")
		}
		base := append([]float64(nil), xs[int(row)%len(xs)]...)
		base[int(other)%m.NumFeatures()] = ov
		thr := m.Thresholds(fi)
		want := predictAt(t, m, base, fi, x)
		got := stepValue(t, m, base, fi, thr, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("feature %d x=%v: step %v, Predict %v", fi, x, got, want)
		}
	})
}
