package gbrt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The presorted engine must reproduce the pre-refactor trainer exactly.
// Three properties pin that down from different angles:
//
//  1. On tie-free datasets every sort order is unique, so the historical
//     sort.Slice comparator and the canonical (value, index) order coincide:
//     the new engine must match the verbatim reference on arbitrary floats.
//  2. On tie-heavy datasets whose targets make every fold exact in float64,
//     summation order cannot change any value: the new engine must match
//     the verbatim reference even though their tie orders differ.
//  3. On arbitrary datasets (ties, duplicate rows, constant columns), the
//     new engine must match the reference run under the canonical index
//     tie-break bit-for-bit — the strongest statement: the rewrite is the
//     same algorithm, only faster.

// serializeOrDie returns the model's exact wire bytes.
func serializeOrDie(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func assertSameModel(t *testing.T, trial string, ref, got *Model) {
	t.Helper()
	a, b := serializeOrDie(t, ref), serializeOrDie(t, got)
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: presorted engine diverged from reference\nreference: %d bytes\nnew:       %d bytes\nref: %.120s\nnew: %.120s",
			trial, len(a), len(b), a, b)
	}
}

func randomConfig(rng *rand.Rand) Config {
	return Config{
		Trees:          5 + rng.Intn(30),
		MaxLeaves:      2 + rng.Intn(9),
		Shrinkage:      []float64{0.1, 0.3, 1.0}[rng.Intn(3)],
		MinSamplesLeaf: 1 + rng.Intn(3),
	}
}

// TestEquivalenceNoTies: arbitrary continuous targets, strictly distinct
// feature values per column, verbatim pre-refactor reference.
func TestEquivalenceNoTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(100)
		numF := 1 + rng.Intn(6)
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = make([]float64, numF)
		}
		for f := 0; f < numF; f++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i) + rng.Float64()*0.5 // strictly increasing
			}
			rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			for i := range vals {
				xs[i][f] = vals[i]
			}
		}
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = rng.NormFloat64() * 10
		}
		cfg := randomConfig(rng)
		ref, err := refTrain(xs, ys, cfg, false)
		if err != nil {
			t.Fatalf("trial %d: refTrain: %v", trial, err)
		}
		got, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatalf("trial %d: Train: %v", trial, err)
		}
		assertSameModel(t, fmt.Sprintf("no-ties trial %d (n=%d F=%d cfg=%+v)", trial, n, numF, cfg), ref, got)
	}
}

// TestEquivalenceTiesExactArithmetic: heavily tied integer-grid features and
// quarter-integer targets. Every fold the trainers perform — sums of at most
// a few hundred values that are multiples of 2⁻³ and bounded by 2⁶ — is
// exact in float64, so summation order is provably irrelevant and the
// verbatim sort.Slice reference must agree despite its different tie order.
// Trees is kept at 1 because later boosting rounds fit shrunk residuals that
// are no longer exactly representable.
func TestEquivalenceTiesExactArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(200)
		numF := 1 + rng.Intn(6)
		xs := make([][]float64, n)
		for i := range xs {
			row := make([]float64, numF)
			for f := range row {
				row[f] = float64(rng.Intn(5)) // dense ties
			}
			xs[i] = row
		}
		if numF > 1 && trial%3 == 0 {
			for i := range xs {
				xs[i][0] = 7 // constant column in front
			}
		}
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = float64(rng.Intn(256)) * 0.25
		}
		cfg := randomConfig(rng)
		cfg.Trees = 1
		ref, err := refTrain(xs, ys, cfg, false)
		if err != nil {
			t.Fatalf("trial %d: refTrain: %v", trial, err)
		}
		got, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatalf("trial %d: Train: %v", trial, err)
		}
		assertSameModel(t, fmt.Sprintf("exact-ties trial %d (n=%d F=%d cfg=%+v)", trial, n, numF, cfg), ref, got)
	}
}

// TestEquivalenceTiesStableReference: arbitrary datasets — tied, duplicated
// and constant columns, continuous targets, full boosting — against the
// reference algorithm run under the canonical (value, sample index) order.
// Bit-for-bit agreement here shows the rewrite changes how the split search
// is computed, not what it computes.
func TestEquivalenceTiesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(150)
		numF := 1 + rng.Intn(8)
		xs := make([][]float64, n)
		for i := range xs {
			row := make([]float64, numF)
			for f := range row {
				switch f % 3 {
				case 0:
					row[f] = float64(rng.Intn(6)) // tie-heavy
				case 1:
					row[f] = rng.Float64() * 100 // continuous
				default:
					row[f] = float64(rng.Intn(3)) * 2.5 // very tie-heavy
				}
			}
			xs[i] = row
		}
		if trial%4 == 0 {
			for i := range xs {
				xs[i][numF-1] = -1.5 // constant column at the back
			}
		}
		// Occasionally duplicate whole rows so identical samples share every
		// feature value and the tie-break must fall back to sample index.
		for d := 0; d < n/10; d++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			copy(xs[dst], xs[src])
		}
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = rng.NormFloat64() * 30
		}
		cfg := randomConfig(rng)
		ref, err := refTrain(xs, ys, cfg, true)
		if err != nil {
			t.Fatalf("trial %d: refTrain: %v", trial, err)
		}
		got, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatalf("trial %d: Train: %v", trial, err)
		}
		assertSameModel(t, fmt.Sprintf("stable-ties trial %d (n=%d F=%d cfg=%+v)", trial, n, numF, cfg), ref, got)
	}
}

// fuzzFeature maps one byte to a feature value: dense ties, ±0, a spread of
// distinct values, and extremes (subnormal, ±1e300) whose midpoints still
// fit, so the reference's plain (lo+hi)/2 threshold is the engine's too.
func fuzzFeature(b byte) float64 {
	switch b >> 6 {
	case 0:
		return float64(b % 4)
	case 1:
		if b%2 == 0 {
			return 0
		}
		return math.Copysign(0, -1)
	case 2:
		return float64(b&63)*0.37 - 9
	default:
		return []float64{-1e300, 1e300, 5e-324, -2.5}[b%4]
	}
}

// checkTrainMatchesReference decodes data into a small training set and
// configuration, trains it with Train and with the reference engine under
// the canonical (value, sample index) tie rule, and requires the two saved
// models to be byte-identical. It then requires one prefix of the trained
// forest (Model.Prefix) to save the bytes of a Train with that many trees.
//
// Layout: five header bytes — feature count (1–13, so every remainder of a
// multi-column group occurs), trees, J (2–16), shrinkage and MinSamplesLeaf
// (1–5), and a column to hold constant (low four bits) beside the prefix
// length (high four bits) — then one row per 1+F bytes: a target byte whose
// top bit repeats the previous row's features, and F feature bytes.
func checkTrainMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	const header, maxRows = 5, 96
	if len(data) < header {
		return
	}
	numF := 1 + int(data[0])%13
	cfg := Config{
		Trees:          1 + int(data[1])%12,
		MaxLeaves:      2 + int(data[2])%15,
		Shrinkage:      []float64{0.1, 0.5, 1}[data[3]%3],
		MinSamplesLeaf: 1 + int(data[3]/3)%5,
	}
	constCol := int(data[4]) % 16 // no constant column when >= numF
	var xs [][]float64
	var ys []float64
	for rest := data[header:]; len(rest) >= 1+numF && len(xs) < maxRows; rest = rest[1+numF:] {
		row := make([]float64, numF)
		if rest[0]&0x80 != 0 && len(xs) > 0 {
			copy(row, xs[len(xs)-1])
		} else {
			for f := range row {
				row[f] = fuzzFeature(rest[1+f])
			}
		}
		if constCol < numF {
			row[constCol] = 7
		}
		xs = append(xs, row)
		ys = append(ys, float64(rest[0]&0x7f)*0.731-20)
	}
	if len(xs) == 0 {
		return
	}
	trial := fmt.Sprintf("n=%d F=%d cfg=%+v", len(xs), numF, cfg)
	ref, err := refTrain(xs, ys, cfg, true)
	if err != nil {
		t.Fatalf("%s: refTrain: %v", trial, err)
	}
	got, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatalf("%s: Train: %v", trial, err)
	}
	assertSameModel(t, trial, ref, got)

	// One prefix per input: the top of the constant-column byte picks k.
	k := 1 + int(data[4]/16)%cfg.Trees
	pcfg := cfg
	pcfg.Trees = k
	short, err := Train(xs, ys, pcfg)
	if err != nil {
		t.Fatalf("%s: Train(%d trees): %v", trial, k, err)
	}
	prefix, err := got.Prefix(k)
	if err != nil {
		t.Fatalf("%s: Prefix(%d): %v", trial, k, err)
	}
	assertSameModel(t, fmt.Sprintf("%s prefix %d", trial, k), short, prefix)
}

// FuzzTrainMatchesReference drives checkTrainMatchesReference with
// arbitrary bytes:
//
//	go test ./internal/gbrt -run=FuzzTrainMatchesReference -fuzz=FuzzTrainMatchesReference -fuzztime=20s
func FuzzTrainMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 6, 0, 15, 10, 1, 20, 2, 40, 3, 60, 0, 80, 2, 100, 1})
	f.Add([]byte{9, 5, 14, 4, 3,
		1, 0, 64, 65, 128, 129, 192, 193, 194, 195, 3,
		200, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		77, 3, 66, 67, 140, 150, 160, 170, 180, 195, 2,
		12, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
		140, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(checkTrainMatchesReference)
}

// TestTrainMatchesReferenceRandom runs the fuzz check on random inputs, so
// plain go test covers every feature-count remainder, tie pattern and leaf
// budget.
func TestTrainMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 200; i++ {
		data := make([]byte, 5+rng.Intn(700))
		rng.Read(data)
		checkTrainMatchesReference(t, data)
	}
}
