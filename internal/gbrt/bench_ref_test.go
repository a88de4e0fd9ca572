package gbrt

import (
	"math/rand"
	"testing"
)

// The fleet-scale training shape: one per-user model of the 300-phone
// replay (Section 5 / the fleet experiment) — n≈500 visits, the 10 Table 1
// features, 400 boosting iterations.
func fleetShapeData() ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(77))
	const n, numF = 500, 10
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, numF)
		for f := range row {
			if f%2 == 0 {
				row[f] = rng.Float64() * 100
			} else {
				row[f] = float64(rng.Intn(8))
			}
		}
		xs[i] = row
		ys[i] = row[0]*0.3 + row[9]*2 + rng.NormFloat64()*5
	}
	return xs, ys
}

var fleetShapeCfg = Config{Trees: 400, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5}

// BenchmarkTrainFleetShape measures the presorted engine on the fleet-scale
// shape. Its ratio against BenchmarkReferenceTrainFleetShape is the tracked
// training speedup (EXPERIMENTS.md).
func BenchmarkTrainFleetShape(b *testing.B) {
	xs, ys := fleetShapeData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(xs, ys, fleetShapeCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceTrainFleetShape runs the pre-refactor engine (kept in
// reference_test.go) on the identical workload, so the speedup is always
// measured on the same machine as the new number, never quoted from an old
// run elsewhere.
func BenchmarkReferenceTrainFleetShape(b *testing.B) {
	xs, ys := fleetShapeData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refTrain(xs, ys, fleetShapeCfg, true); err != nil {
			b.Fatal(err)
		}
	}
}
