package gbrt

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// Config holds the boosting hyperparameters of Algorithm 1.
type Config struct {
	// Trees is the number of boosting iterations M.
	Trees int
	// MaxLeaves is J, the terminal-node budget per tree. The paper's phones
	// ran forests of 8-node trees (Table 7).
	MaxLeaves int
	// Shrinkage is the learning rate applied to every tree's contribution.
	Shrinkage float64
	// MinSamplesLeaf keeps leaves from memorizing single samples.
	MinSamplesLeaf int
}

// DefaultConfig mirrors the paper's setup: modest forests of small trees.
func DefaultConfig() Config {
	return Config{
		Trees:          400,
		MaxLeaves:      8,
		Shrinkage:      0.1,
		MinSamplesLeaf: 5,
	}
}

// Validate checks the hyperparameters.
func (c Config) Validate() error {
	switch {
	case c.Trees <= 0:
		return errors.New("gbrt: need at least one tree")
	case c.MaxLeaves < 2:
		return errors.New("gbrt: need at least two leaves per tree")
	case c.Shrinkage <= 0 || c.Shrinkage > 1:
		return errors.New("gbrt: shrinkage must be in (0, 1]")
	case c.MinSamplesLeaf < 1:
		return errors.New("gbrt: min samples per leaf must be >= 1")
	}
	return nil
}

// Model is a trained gradient-boosted forest: F(x) = F0 + ν·Σ tree_m(x).
type Model struct {
	base        float64
	shrink      float64
	trees       []*Tree
	numFeatures int
}

// Train fits a model with square loss (Algorithm 1): F0 is the median of the
// targets; each iteration fits a J-leaf regression tree to the current
// residuals and adds it with shrinkage. The feature columns are presorted
// once; every boosting iteration reuses the sorted orders and the trainer's
// scratch buffers.
func Train(xs [][]float64, ys []float64, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateData(xs, ys); err != nil {
		return nil, err
	}
	tr, err := newTrainer(xs, cfg.MinSamplesLeaf)
	if err != nil {
		return nil, err
	}
	m := &Model{
		base:        median(ys),
		shrink:      cfg.Shrinkage,
		numFeatures: len(xs[0]),
	}
	// residual_i = y_i - F_{m-1}(x_i); for square loss the negative gradient
	// is the plain residual.
	current := make([]float64, len(ys))
	for i := range current {
		current[i] = m.base
	}
	residual := make([]float64, len(ys))
	for iter := 0; iter < cfg.Trees; iter++ {
		for i := range ys {
			residual[i] = ys[i] - current[i]
		}
		tree := tr.buildTree(residual, cfg.MaxLeaves)
		if tree.Leaves() <= 1 {
			// Residuals are flat: boosting has converged.
			break
		}
		m.trees = append(m.trees, tree)
		// Every sample's new prediction comes straight from the leaf range
		// it was partitioned into — no per-sample tree walk.
		tr.addTo(current, m.shrink)
	}
	return m, nil
}

// Predict evaluates the model on one feature vector.
func (m *Model) Predict(x []float64) (float64, error) {
	if len(x) != m.numFeatures {
		return 0, fmt.Errorf("gbrt: got %d features, model wants %d", len(x), m.numFeatures)
	}
	sum := m.base
	for _, t := range m.trees {
		sum += m.shrink * t.Predict(x)
	}
	return sum, nil
}

// PredictBatch evaluates the model on len(xs) feature vectors, writing the
// predictions into out (which must be the same length). The forest is walked
// with the per-tree loop outermost, so each tree's nodes stay hot in cache
// across the whole batch; per-sample results are bit-identical to Predict.
func (m *Model) PredictBatch(xs [][]float64, out []float64) error {
	if len(out) != len(xs) {
		return fmt.Errorf("gbrt: batch of %d inputs with %d outputs", len(xs), len(out))
	}
	for i, x := range xs {
		if len(x) != m.numFeatures {
			return fmt.Errorf("gbrt: batch row %d has %d features, model wants %d",
				i, len(x), m.numFeatures)
		}
		out[i] = m.base
	}
	for _, t := range m.trees {
		for i, x := range xs {
			out[i] += m.shrink * t.Predict(x)
		}
	}
	return nil
}

// NumTrees returns the number of fitted trees (may be below Config.Trees if
// boosting converged early).
func (m *Model) NumTrees() int {
	return len(m.trees)
}

// NumFeatures returns the feature-vector width the model was trained on.
func (m *Model) NumFeatures() int {
	return m.numFeatures
}

// Base returns F0 (the target median).
func (m *Model) Base() float64 {
	return m.base
}

// DeviceCost models on-phone prediction cost, reproducing Table 7: the
// paper measured 0.295 s and 0.177 J to evaluate 10,000 eight-node trees on
// the Android Dev Phone 2, i.e. 29.5 µs per tree at the 0.6 W fully-running
// CPU power.
type DeviceCost struct {
	// PerTree is traversal time per 8-node tree on the device.
	PerTree time.Duration
	// CPUWatts is the device's busy-CPU power.
	CPUWatts float64
}

// DefaultDeviceCost returns the Table 7 calibration.
func DefaultDeviceCost() DeviceCost {
	return DeviceCost{PerTree: 29500 * time.Nanosecond, CPUWatts: 0.6}
}

// PredictionTime returns the simulated on-device time to evaluate a forest
// of trees trees.
func (d DeviceCost) PredictionTime(trees int) time.Duration {
	if trees < 0 {
		trees = 0
	}
	return time.Duration(trees) * d.PerTree
}

// PredictionEnergyJ returns the simulated on-device energy to evaluate a
// forest of trees trees.
func (d DeviceCost) PredictionEnergyJ(trees int) float64 {
	return d.PredictionTime(trees).Seconds() * d.CPUWatts
}

// FeatureImportance returns the normalized split-gain importance of each
// feature: the share of total SSE reduction attributable to splits on it
// across the whole forest (Breiman-style importance). The values sum to 1
// unless the model fitted no trees, in which case all are zero.
func (m *Model) FeatureImportance() []float64 {
	imp := make([]float64, m.numFeatures)
	total := 0.0
	for _, t := range m.trees {
		for _, nd := range t.nodes {
			if nd.leaf || nd.gain <= 0 {
				continue
			}
			imp[nd.feature] += nd.gain
			total += nd.gain
		}
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// Thresholds returns the distinct split thresholds the forest tests feature
// f against, ascending. Every internal node sends x left exactly when
// x[f] <= threshold, so with every other feature held fixed the model's
// output is a step function of x[f]: constant on (-∞, t_0], on each
// (t_{i-1}, t_i], and on (t_last, +∞). Evaluating Predict at any one point of
// an interval — t_i itself is the natural representative — takes the same
// branches, reaches the same leaves and sums them in the same order as any
// other point of it, so the result is bit-identical. A NaN threshold sends
// every x right and splits nothing, so it is omitted.
func (m *Model) Thresholds(f int) []float64 {
	var out []float64
	for _, t := range m.trees {
		for i := range t.nodes {
			nd := &t.nodes[i]
			if !nd.leaf && nd.feature == f && !math.IsNaN(nd.threshold) {
				out = append(out, nd.threshold)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
