package gbrt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// prefixProbes are the inputs a prefix must predict exactly as the shorter
// training does: random rows, and rows holding NaN and ±Inf.
func prefixProbes(rng *rand.Rand, numF int) [][]float64 {
	var probes [][]float64
	for i := 0; i < 40; i++ {
		x := make([]float64, numF)
		for f := range x {
			x[f] = rng.Float64()*12 - 1
		}
		probes = append(probes, x)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for f := 0; f < numF; f++ {
			x := make([]float64, numF)
			for g := range x {
				x[g] = rng.Float64() * 10
			}
			x[f] = v
			probes = append(probes, x)
		}
		all := make([]float64, numF)
		for f := range all {
			all[f] = v
		}
		probes = append(probes, all)
	}
	return probes
}

// assertSamePrefix requires want (a Train with Trees = k) and got (a prefix
// of a longer forest) to save the same bytes and predict bit-identically on
// every probe.
func assertSamePrefix(t *testing.T, trial string, want, got *Model, probes [][]float64) {
	t.Helper()
	a, b := serializeOrDie(t, want), serializeOrDie(t, got)
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: prefix saves %d bytes, Train %d\nprefix: %.120s\ntrain:  %.120s",
			trial, len(b), len(a), b, a)
	}
	for _, x := range probes {
		pw, err := want.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := got.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(pw) != math.Float64bits(pg) {
			t.Fatalf("%s: Predict(%v) = %v on the prefix, %v on Train", trial, x, pg, pw)
		}
	}
}

// TestModelPrefixMatchesTrain pins Model.Prefix to training: Train(M).Prefix(k)
// is Train(k), for k inside the first compiled block, across a block
// boundary and at M; for a forest that converged before k; and for a model
// that went through Save and Load.
func TestModelPrefixMatchesTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const n, numF = 300, 4
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 10, float64(rng.Intn(6)), rng.Float64() * 10, float64(rng.Intn(3))}
		ys[i] = xs[i][0]*xs[i][1] + 3*xs[i][3] + rng.NormFloat64()
	}
	probes := prefixProbes(rng, numF)
	const M = 2*blockTrees + 3
	cfg := Config{Trees: M, MaxLeaves: 6, Shrinkage: 0.1, MinSamplesLeaf: 3}
	long, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if long.NumTrees() != M {
		t.Fatalf("forest converged at %d trees; the data must keep %d", long.NumTrees(), M)
	}
	var saved bytes.Buffer
	if err := long.Save(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, blockTrees, blockTrees + 1, M} {
		c := cfg
		c.Trees = k
		want, err := Train(xs, ys, c)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*Model{"trained": long, "loaded": loaded} {
			got, err := m.Prefix(k)
			if err != nil {
				t.Fatal(err)
			}
			assertSamePrefix(t, fmt.Sprintf("%s, k=%d", name, k), want, got, probes)
		}
	}

	// A step target that one stump fits exactly: the second tree finds flat
	// residuals and boosting stops at one tree, whatever M asks for.
	step := make([]float64, n)
	for i := range step {
		if xs[i][0] > 5 {
			step[i] = 4
		}
	}
	early := Config{Trees: 50, MaxLeaves: 2, Shrinkage: 1, MinSamplesLeaf: 1}
	conv, err := Train(xs, step, early)
	if err != nil {
		t.Fatal(err)
	}
	if conv.NumTrees() != 1 {
		t.Fatalf("step forest has %d trees, want it converged at 1", conv.NumTrees())
	}
	for _, k := range []int{1, 7, 50} {
		c := early
		c.Trees = k
		want, err := Train(xs, step, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := conv.Prefix(k)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePrefix(t, fmt.Sprintf("converged, k=%d", k), want, got, probes)
	}

	if _, err := long.Prefix(0); err == nil {
		t.Error("Prefix(0) = nil error, want one")
	}
}
