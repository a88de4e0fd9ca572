package predictor

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/trace"
)

// update rewrites the committed golden predictor instead of comparing
// against it, mirroring the gbrt golden-model harness:
//
//	go test ./internal/predictor -run TestGoldenPredictor -update
var update = flag.Bool("update", false, "rewrite the golden predictor fixture")

const goldenPredictorPath = "testdata/golden_predictor.json"

// goldenPredictor trains the fixed configuration the fixture pins: a small
// forest on the deterministic synthetic dataset, interest threshold on.
func goldenPredictor(t *testing.T) *Predictor {
	t.Helper()
	ds, err := trace.Synthesize(trace.DefaultConfig())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	train, _, err := Split(ds.Visits, 0.3, 20130709)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := Config{
		GBRT:                 gbrt.Config{Trees: 40, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5},
		UseInterestThreshold: true,
		Alpha:                2,
	}
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return p
}

// TestGoldenPredictor trains the fixed setup and requires its serialized
// form to match the committed fixture byte for byte: any drift in the
// envelope format, the thresholds, or the underlying forest shows up here —
// and the fixture doubles as the model file the easerd examples load.
func TestGoldenPredictor(t *testing.T) {
	p := goldenPredictor(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got := buf.Bytes()

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPredictorPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPredictorPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPredictorPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPredictorPath)
	if err != nil {
		t.Fatalf("read golden predictor: %v\n(generate it with: go test ./internal/predictor -run TestGoldenPredictor -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trained predictor differs from %s (%d vs %d bytes); if intended, regenerate with -update",
			goldenPredictorPath, len(got), len(want))
	}
}

// TestGoldenPredictorRoundTrip loads the committed fixture and checks the
// full contract: metadata survives, predictions are bit-identical to the
// freshly trained model, and a second save reproduces the same bytes.
func TestGoldenPredictorRoundTrip(t *testing.T) {
	loaded, err := LoadFile(goldenPredictorPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !loaded.InterestTrained() {
		t.Fatal("fixture lost interestTrained")
	}
	th := loaded.Thresholds()
	if th.Alpha != 2*time.Second || th.Tp != 9*time.Second || th.Td != 20*time.Second {
		t.Fatalf("fixture thresholds %+v, want paper defaults", th)
	}

	p := goldenPredictor(t)
	if loaded.NumTrees() != p.NumTrees() {
		t.Fatalf("fixture has %d trees, fresh training %d", loaded.NumTrees(), p.NumTrees())
	}
	probe := features.Vector{12, 340, 25, 4, 9, 120, 0.8, 3, 2800, 320}
	a, err := p.PredictSeconds(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.PredictSeconds(probe)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fixture prediction drifted: fresh %v vs loaded %v", a, b)
	}
	c, err := loaded.PredictVecSeconds(&probe)
	if err != nil {
		t.Fatal(err)
	}
	if c != b {
		t.Fatalf("PredictVecSeconds %v != PredictSeconds %v", c, b)
	}

	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	want, err := os.ReadFile(goldenPredictorPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("save→load→save is not byte-stable")
	}
}

func TestSaveFileAtomic(t *testing.T) {
	p := goldenPredictor(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := p.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	// No temporary droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.json" {
		t.Fatalf("directory after SaveFile: %v", entries)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if loaded.NumTrees() != p.NumTrees() {
		t.Fatalf("round trip lost trees: %d vs %d", loaded.NumTrees(), p.NumTrees())
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestPredictVecSecondsAllocs pins the serving hot path at zero
// allocations.
func TestPredictVecSecondsAllocs(t *testing.T) {
	p := goldenPredictor(t)
	probe := features.Vector{12, 340, 25, 4, 9, 120, 0.8, 3, 2800, 320}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.PredictVecSeconds(&probe); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictVecSeconds allocates %.1f/op, want 0", allocs)
	}
}

// FuzzLoadPredictor feeds arbitrary bytes to LoadPredictor: it must return
// an error or a predictor that holds the envelope's invariants, answers a
// prediction and survives its own Save/Load round trip — and never panic.
//
//	go test ./internal/predictor -fuzz=FuzzLoadPredictor -fuzztime=20s
func FuzzLoadPredictor(f *testing.F) {
	golden, err := os.ReadFile(goldenPredictorPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// A one-split forest, small enough for mutations to reach every check,
	// at ordinary thresholds and at ones past time.Duration's range or
	// below its resolution.
	for _, th := range []struct{ alpha, tp, td string }{
		{"2", "4", "9"}, {"1e300", "4", "9"}, {"2", "4", "1e10"}, {"2", "1e-12", "1e-12"},
	} {
		f.Add([]byte(fmt.Sprintf(`{"version":2,"featureSchema":%d,"numFeatures":%d,`+
			`"alpha":%s,"tp_s":%s,"td_s":%s,"interestTrained":true,"model":{"version":1,`+
			`"base":3,"shrinkage":0.1,"numFeatures":%d,"trees":[{"nodes":[`+
			`{"feature":0,"threshold":10,"left":1,"right":2},`+
			`{"leaf":true,"value":-1},{"leaf":true,"value":1}]}]}}`,
			features.SchemaVersion, features.Num, th.alpha, th.tp, th.td, features.Num)))
	}
	// A forest whose root sends both branches to one shared split, with an
	// unreachable split after it: the compiled forest walks it as a tree of
	// four leaves and skips the stray node.
	f.Add([]byte(fmt.Sprintf(`{"version":2,"featureSchema":%d,"numFeatures":%d,`+
		`"alpha":2,"tp_s":4,"td_s":9,"interestTrained":true,"model":{"version":1,`+
		`"base":3,"shrinkage":0.1,"numFeatures":%d,"trees":[{"nodes":[`+
		`{"feature":0,"threshold":10,"left":1,"right":1},`+
		`{"feature":8,"threshold":2000,"left":3,"right":4},`+
		`{"feature":2,"threshold":-1,"left":3,"right":4},`+
		`{"leaf":true,"value":-1},{"leaf":true,"value":1}]}]}}`,
		features.SchemaVersion, features.Num, features.Num)))
	probe := features.Vector{12, 340, 25, 4, 9, 120, 0.8, 3, 2800, 320}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPredictor(bytes.NewReader(data))
		if err != nil {
			return
		}
		if th := p.Thresholds(); th.Alpha < 0 || th.Tp <= 0 || th.Td < th.Tp {
			t.Fatalf("loaded thresholds %+v break 0 <= Alpha, 0 < Tp <= Td", th)
		}
		if n := p.model.NumFeatures(); n != features.Num {
			t.Fatalf("loaded forest wants %d features, want %d", n, features.Num)
		}
		if _, err := p.PredictVecSeconds(&probe); err != nil {
			t.Fatalf("loaded predictor cannot predict: %v", err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("loaded predictor cannot save: %v", err)
		}
		if _, err := LoadPredictor(&buf); err != nil {
			t.Fatalf("re-saved predictor does not load: %v", err)
		}
	})
}
