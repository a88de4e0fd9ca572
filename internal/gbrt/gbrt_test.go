package gbrt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no trees", func(c *Config) { c.Trees = 0 }},
		{"one leaf", func(c *Config) { c.MaxLeaves = 1 }},
		{"65 leaves", func(c *Config) { c.MaxLeaves = maxTreeLeaves + 1 }},
		{"zero shrinkage", func(c *Config) { c.Shrinkage = 0 }},
		{"shrinkage > 1", func(c *Config) { c.Shrinkage = 1.5 }},
		{"zero min leaf", func(c *Config) { c.MinSamplesLeaf = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate succeeded")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestTrainValidatesData(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Train(nil, nil, cfg); err == nil {
		t.Fatal("empty training set accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, cfg); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, cfg); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := Train([][]float64{{math.NaN()}}, []float64{1}, cfg); err == nil {
		t.Fatal("NaN feature accepted")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, cfg); err == nil {
		t.Fatal("zero-width features accepted")
	}
}

func TestConstantTargetConverges(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{7, 7, 7, 7}
	m, err := Train(xs, ys, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.NumTrees() != 0 {
		t.Fatalf("NumTrees = %d on constant target, want 0", m.NumTrees())
	}
	got, err := m.Predict([]float64{2.5})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if got != 7 {
		t.Fatalf("Predict = %v, want 7", got)
	}
}

func TestLearnsStepFunction(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 10
		y := 1.0
		if x > 10 {
			y = 5.0
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y)
	}
	m, err := Train(xs, ys, Config{Trees: 100, MaxLeaves: 4, Shrinkage: 0.3, MinSamplesLeaf: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	lo, _ := m.Predict([]float64{5})
	hi, _ := m.Predict([]float64{15})
	if math.Abs(lo-1) > 0.2 || math.Abs(hi-5) > 0.2 {
		t.Fatalf("step not learned: f(5)=%v f(15)=%v", lo, hi)
	}
}

func TestLearnsInteraction(t *testing.T) {
	// y depends on the XOR of two thresholded features — invisible to any
	// single-feature linear model, exactly the situation Table 4 documents.
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 600; i++ {
		a := rng.Float64()
		b := rng.Float64()
		y := 1.0
		if (a > 0.5) != (b > 0.5) {
			y = 9.0
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, y)
	}
	m, err := Train(xs, ys, Config{Trees: 200, MaxLeaves: 8, Shrinkage: 0.2, MinSamplesLeaf: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	check := func(a, b, want float64) {
		got, _ := m.Predict([]float64{a, b})
		if math.Abs(got-want) > 1.0 {
			t.Fatalf("f(%v,%v) = %v, want ≈%v", a, b, got, want)
		}
	}
	check(0.2, 0.2, 1)
	check(0.8, 0.8, 1)
	check(0.2, 0.8, 9)
	check(0.8, 0.2, 9)
}

func TestLeavesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 10
		xs = append(xs, []float64{x, rng.Float64()})
		ys = append(ys, math.Sin(x)+rng.NormFloat64()*0.1)
	}
	cfg := Config{Trees: 30, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 3}
	m, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.NumTrees() == 0 {
		t.Fatal("no trees fitted")
	}
	for i, tree := range m.trees {
		if tree.Leaves() > cfg.MaxLeaves {
			t.Fatalf("tree %d has %d leaves, budget %d", i, tree.Leaves(), cfg.MaxLeaves)
		}
		if tree.Leaves() < 2 {
			t.Fatalf("tree %d has %d leaves", i, tree.Leaves())
		}
	}
}

func TestMoreTreesReduceTrainingError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		x := rng.Float64() * 6
		xs = append(xs, []float64{x})
		ys = append(ys, x*x)
	}
	mse := func(trees int) float64 {
		m, err := Train(xs, ys, Config{Trees: trees, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 3})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		sum := 0.0
		for i := range xs {
			p, _ := m.Predict(xs[i])
			d := p - ys[i]
			sum += d * d
		}
		return sum / float64(len(xs))
	}
	few := mse(5)
	many := mse(80)
	if many >= few {
		t.Fatalf("mse(80 trees)=%v not below mse(5 trees)=%v", many, few)
	}
}

func TestPredictChecksWidth(t *testing.T) {
	m, err := Train([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, []float64{1, 2, 3, 4}, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Fatal("wrong width accepted")
	}
	if m.NumFeatures() != 2 {
		t.Fatalf("NumFeatures = %d", m.NumFeatures())
	}
}

func TestBaseIsMedian(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}, {5}}
	ys := []float64{10, 20, 30, 40, 1000}
	m, err := Train(xs, ys, Config{Trees: 1, MaxLeaves: 2, Shrinkage: 0.1, MinSamplesLeaf: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.Base() != 30 {
		t.Fatalf("Base = %v, want median 30", m.Base())
	}
}

func TestTreeDepthAndNodes(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	ys := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	tree := buildTree(xs, ys, 4, 1)
	if tree.Leaves() != 4 {
		t.Fatalf("Leaves = %d, want 4", tree.Leaves())
	}
	if tree.Nodes() != 7 {
		t.Fatalf("Nodes = %d, want 7 (4 leaves + 3 internal)", tree.Nodes())
	}
	if d := tree.Depth(); d < 2 || d > 4 {
		t.Fatalf("Depth = %d", d)
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		xs = append(xs, []float64{rng.Float64(), rng.Float64()})
		ys = append(ys, rng.Float64())
	}
	cfg := Config{Trees: 20, MaxLeaves: 6, Shrinkage: 0.1, MinSamplesLeaf: 2}
	a, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	b, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		pa, _ := a.Predict(x)
		pb, _ := b.Predict(x)
		if pa != pb {
			t.Fatalf("nondeterministic: %v vs %v", pa, pb)
		}
	}
}

func TestDeviceCostTable7(t *testing.T) {
	d := DefaultDeviceCost()
	tests := []struct {
		trees      int
		wantTimeS  float64
		wantEnergy float64
	}{
		{1000, 0.0295, 0.0177},
		{10000, 0.295, 0.177},
		{20000, 0.590, 0.354},
	}
	for _, tt := range tests {
		gotT := d.PredictionTime(tt.trees).Seconds()
		if math.Abs(gotT-tt.wantTimeS) > 1e-9 {
			t.Fatalf("PredictionTime(%d) = %v, want %v", tt.trees, gotT, tt.wantTimeS)
		}
		gotE := d.PredictionEnergyJ(tt.trees)
		if math.Abs(gotE-tt.wantEnergy) > 1e-9 {
			t.Fatalf("PredictionEnergyJ(%d) = %v, want %v", tt.trees, gotE, tt.wantEnergy)
		}
	}
	if d.PredictionTime(-1) != 0 {
		t.Fatal("negative tree count not clamped")
	}
}

// TestPropertyPredictionWithinRange: boosted square-loss predictions on the
// training inputs stay near the target hull. (Unlike a single tree, a
// boosted ensemble may overshoot [min(y), max(y)] slightly, so the property
// allows half a range of slack.)
func TestPropertyPredictionWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			ys[i] = rng.Float64() * 100
			lo = math.Min(lo, ys[i])
			hi = math.Max(hi, ys[i])
		}
		m, err := Train(xs, ys, Config{Trees: 30, MaxLeaves: 4, Shrinkage: 0.2, MinSamplesLeaf: 2})
		if err != nil {
			return false
		}
		slack := (hi - lo) / 2
		for i := range xs {
			p, err := m.Predict(xs[i])
			if err != nil || p < lo-slack || p > hi+slack {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTreePartitions: a single regression tree maps every training
// point to the mean of its leaf — so tree MSE never exceeds target variance.
func TestPropertyTreePartitions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		var sum, sq float64
		for i := range xs {
			xs[i] = []float64{rng.Float64()}
			ys[i] = rng.Float64() * 10
			sum += ys[i]
			sq += ys[i] * ys[i]
		}
		variance := sq/float64(n) - (sum/float64(n))*(sum/float64(n))
		tree := buildTree(xs, ys, 8, 1)
		var mse float64
		for i := range xs {
			d := tree.Predict(xs[i]) - ys[i]
			mse += d * d
		}
		mse /= float64(n)
		return mse <= variance+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictSpeed(t *testing.T) {
	// Sanity: a 10k-tree forest predicts in well under a second of real time
	// (the simulated phone takes 0.295 s; the Go implementation must not be
	// the bottleneck in large experiments).
	xs := [][]float64{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}}
	ys := []float64{1, 2, 3, 4, 5, 6}
	m, err := Train(xs, ys, Config{Trees: 200, MaxLeaves: 4, Shrinkage: 0.1, MinSamplesLeaf: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if _, err := m.Predict([]float64{2.5, 3.5}); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("1000 predictions took %v", elapsed)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 150; i++ {
		xs = append(xs, []float64{rng.Float64() * 10, float64(rng.Intn(4)), rng.NormFloat64()})
		ys = append(ys, rng.Float64()*40)
	}
	m, err := Train(xs, ys, Config{Trees: 30, MaxLeaves: 6, Shrinkage: 0.1, MinSamplesLeaf: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = []float64{rng.Float64() * 10, float64(rng.Intn(4)), rng.NormFloat64()}
	}
	out := make([]float64, len(probes))
	if err := m.PredictBatch(probes, out); err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	for i, x := range probes {
		want, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("probe %d: batch %v != single %v", i, out[i], want)
		}
	}
}

func TestPredictBatchErrors(t *testing.T) {
	xs := [][]float64{{1, 2}, {2, 1}, {3, 4}, {4, 3}}
	ys := []float64{1, 2, 3, 4}
	m, err := Train(xs, ys, Config{Trees: 5, MaxLeaves: 2, Shrinkage: 0.5, MinSamplesLeaf: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if err := m.PredictBatch([][]float64{{1, 2}}, make([]float64, 2)); err == nil {
		t.Fatal("mismatched out length accepted")
	}
	if err := m.PredictBatch([][]float64{{1, 2, 3}}, make([]float64, 1)); err == nil {
		t.Fatal("wrong feature width accepted")
	}
	if err := m.PredictBatch(nil, nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
}

// TestAllConstantFeatures exercises the degenerate dataset where no feature
// can ever split: presort drops every column, every tree is root-only, and
// training converges immediately to the median base with no panic.
func TestAllConstantFeatures(t *testing.T) {
	xs := make([][]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		xs[i] = []float64{1.5, -2, 0}
		ys[i] = float64(i)
	}
	m, err := Train(xs, ys, Config{Trees: 50, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.NumTrees() != 0 {
		t.Fatalf("NumTrees = %d, want 0 (nothing to split)", m.NumTrees())
	}
	pred, err := m.Predict([]float64{1.5, -2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if pred != m.Base() {
		t.Fatalf("Predict = %v, want base %v", pred, m.Base())
	}
	// A single constant column among informative ones is skipped, not fatal:
	// the trained model must match the reference exactly (covered broadly by
	// the equivalence tests; pinned here for the minimal case).
	rng := rand.New(rand.NewSource(5))
	xs2 := make([][]float64, 40)
	ys2 := make([]float64, 40)
	for i := range xs2 {
		xs2[i] = []float64{42, rng.Float64() * 9}
		ys2[i] = xs2[i][1] * 3
	}
	cfg := Config{Trees: 10, MaxLeaves: 4, Shrinkage: 0.3, MinSamplesLeaf: 2}
	got, err := Train(xs2, ys2, cfg)
	if err != nil {
		t.Fatalf("Train with constant column: %v", err)
	}
	ref, err := refTrain(xs2, ys2, cfg, true)
	if err != nil {
		t.Fatalf("refTrain: %v", err)
	}
	if got.NumTrees() != ref.NumTrees() {
		t.Fatalf("NumTrees = %d, reference %d", got.NumTrees(), ref.NumTrees())
	}
	probe := []float64{42, 4.5}
	a, _ := got.Predict(probe)
	b, _ := ref.Predict(probe)
	if a != b {
		t.Fatalf("constant-column model diverged: %v vs %v", a, b)
	}
}
