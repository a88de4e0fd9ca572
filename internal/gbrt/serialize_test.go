package gbrt

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func trainedModel(t *testing.T) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		xs = append(xs, []float64{a, b})
		ys = append(ys, a*2+b*b/10+rng.NormFloat64()*0.2)
	}
	m, err := Train(xs, ys, Config{Trees: 40, MaxLeaves: 6, Shrinkage: 0.15, MinSamplesLeaf: 3})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumTrees() != m.NumTrees() || loaded.NumFeatures() != m.NumFeatures() {
		t.Fatalf("shape differs: %d/%d vs %d/%d",
			loaded.NumTrees(), loaded.NumFeatures(), m.NumTrees(), m.NumFeatures())
	}
	if loaded.Base() != m.Base() {
		t.Fatalf("base differs: %v vs %v", loaded.Base(), m.Base())
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		a, err := m.Predict(x)
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		b, err := loaded.Predict(x)
		if err != nil {
			t.Fatalf("loaded Predict: %v", err)
		}
		if a != b {
			t.Fatalf("round trip changed prediction: %v vs %v", a, b)
		}
	}
	// Importance is preserved too.
	origImp := m.FeatureImportance()
	loadedImp := loaded.FeatureImportance()
	for i := range origImp {
		if origImp[i] != loadedImp[i] {
			t.Fatalf("importance differs: %v vs %v", origImp, loadedImp)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "pickles",
		"wrong version": `{"version":99,"base":1,"shrinkage":0.1,"numFeatures":2,"trees":[]}`,
		"no features":   `{"version":1,"base":1,"shrinkage":0.1,"numFeatures":0,"trees":[]}`,
		"bad shrinkage": `{"version":1,"base":1,"shrinkage":2,"numFeatures":2,"trees":[]}`,
		"empty tree":    `{"version":1,"base":1,"shrinkage":0.1,"numFeatures":2,"trees":[{"nodes":[]}]}`,
		"backward child": `{"version":1,"base":1,"shrinkage":0.1,"numFeatures":2,
			"trees":[{"nodes":[{"feature":0,"threshold":1,"left":0,"right":0,"leaf":false}]}]}`,
		"bad feature": `{"version":1,"base":1,"shrinkage":0.1,"numFeatures":2,
			"trees":[{"nodes":[
				{"feature":7,"threshold":1,"left":1,"right":2,"leaf":false},
				{"leaf":true,"value":1},{"leaf":true,"value":2}]}]}`,
		"child past int32": `{"version":1,"base":1,"shrinkage":0.1,"numFeatures":2,
			"trees":[{"nodes":[{"leaf":true,"value":1,"right":4294967297}]}]}`,
		"65 leaves":          modelJSONWith(chainNodes(64)),
		"128 leaves by path": modelJSONWith(sharedChain(7)),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(payload)); err == nil {
				t.Fatalf("Load accepted %s", name)
			}
		})
	}
}

func TestLoadValidModelByHand(t *testing.T) {
	payload := `{"version":1,"base":5,"shrinkage":0.5,"numFeatures":1,
		"trees":[{"nodes":[
			{"feature":0,"threshold":2,"left":1,"right":2,"leaf":false,"gain":1},
			{"leaf":true,"value":-1},
			{"leaf":true,"value":1}]}]}`
	m, err := Load(strings.NewReader(payload))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	lo, err := m.Predict([]float64{1})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	hi, err := m.Predict([]float64{3})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	// F = 5 + 0.5 * leaf.
	if lo != 4.5 || hi != 5.5 {
		t.Fatalf("predictions = %v, %v; want 4.5, 5.5", lo, hi)
	}
}
