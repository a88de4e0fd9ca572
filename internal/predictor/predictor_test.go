package predictor

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/trace"
)

var sharedDataset *trace.Dataset

func dataset(t *testing.T) *trace.Dataset {
	t.Helper()
	if sharedDataset == nil {
		ds, err := trace.Synthesize(trace.DefaultConfig())
		if err != nil {
			t.Fatalf("Synthesize: %v", err)
		}
		sharedDataset = ds
	}
	return sharedDataset
}

func fastGBRT() gbrt.Config {
	cfg := gbrt.DefaultConfig()
	cfg.Trees = 120
	return cfg
}

func TestDefaultThresholds(t *testing.T) {
	th := DefaultThresholds()
	if th.Alpha != 2*time.Second || th.Tp != 9*time.Second || th.Td != 20*time.Second {
		t.Fatalf("thresholds = %+v, want paper values", th)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Fatal("empty training set accepted")
	}
	// Interest threshold that excludes everything.
	visits := []trace.Visit{{ReadingSeconds: 1, Features: features.Vector{}}}
	cfg := DefaultConfig()
	cfg.Alpha = 100
	if _, err := Train(visits, cfg); err == nil {
		t.Fatal("training set fully excluded but Train succeeded")
	}
}

func TestSplit(t *testing.T) {
	ds := dataset(t)
	train, test, err := Split(ds.Visits, 0.3, 1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(train)+len(test) != len(ds.Visits) {
		t.Fatalf("split loses visits: %d + %d != %d", len(train), len(test), len(ds.Visits))
	}
	frac := float64(len(test)) / float64(len(ds.Visits))
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("test fraction = %.2f, want ≈0.3", frac)
	}
}

func TestSplitValidation(t *testing.T) {
	visits := []trace.Visit{{}, {}}
	if _, _, err := Split(visits, 0, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, _, err := Split(visits, 1, 1); err == nil {
		t.Fatal("full fraction accepted")
	}
	if _, _, err := Split(visits[:1], 0.3, 1); err == nil {
		t.Fatal("single visit accepted")
	}
}

func TestSplitDeterministic(t *testing.T) {
	ds := dataset(t)
	a1, _, err := Split(ds.Visits, 0.3, 5)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	a2, _, err := Split(ds.Visits, 0.3, 5)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(a1) != len(a2) || a1[0].ReadingSeconds != a2[0].ReadingSeconds {
		t.Fatal("same seed, different split")
	}
}

func TestEvaluateNeedsSurvivors(t *testing.T) {
	ds := dataset(t)
	train, _, err := Split(ds.Visits, 0.3, 1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := Config{GBRT: fastGBRT(), UseInterestThreshold: true, Alpha: 2}
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	shortOnly := []trace.Visit{{ReadingSeconds: 0.5, Features: train[0].Features}}
	if _, err := p.Evaluate(shortOnly, true, 9); err == nil {
		t.Fatal("evaluation with no surviving visits succeeded")
	}
}

// TestEvaluateMatchesPerVisitTally holds both Evaluates to the Fig. 15
// metric counted the plain way: one PredictSeconds per scored visit and one
// comparison per threshold, a repeated threshold counted twice. With no
// visit surviving α, both report an error.
func TestEvaluateMatchesPerVisitTally(t *testing.T) {
	ds := dataset(t)
	train, test, err := Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := Config{GBRT: gbrt.Config{Trees: 40, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5},
		UseInterestThreshold: true, Alpha: 2}
	global, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	pu, err := TrainPerUser(train, cfg)
	if err != nil {
		t.Fatalf("TrainPerUser: %v", err)
	}
	if pu.PersonalModels() == 0 {
		t.Fatal("no personal models, so per-user routing goes untested")
	}
	thresholds := []float64{0.5, 9, 20, 9}
	models := []struct {
		name     string
		evaluate func([]trace.Visit, bool) ([]Accuracy, error)
		predict  func(trace.Visit) (float64, error)
	}{
		{"global",
			func(vs []trace.Visit, interest bool) ([]Accuracy, error) {
				return global.Evaluate(vs, interest, thresholds...)
			},
			func(v trace.Visit) (float64, error) { return global.PredictSeconds(v.Features) }},
		{"per-user",
			func(vs []trace.Visit, interest bool) ([]Accuracy, error) {
				return pu.Evaluate(vs, interest, thresholds...)
			},
			func(v trace.Visit) (float64, error) { return pu.PredictSeconds(v.User, v.Features) }},
	}
	for _, m := range models {
		for _, interest := range []bool{false, true} {
			got, err := m.evaluate(test, interest)
			if err != nil {
				t.Fatalf("%s interest=%v: Evaluate: %v", m.name, interest, err)
			}
			want := make([]Accuracy, len(thresholds))
			for j, threshold := range thresholds {
				want[j].Threshold = threshold
			}
			for _, v := range test {
				if interest && v.ReadingSeconds < cfg.Alpha {
					continue
				}
				pred, err := m.predict(v)
				if err != nil {
					t.Fatalf("%s: PredictSeconds: %v", m.name, err)
				}
				for j, threshold := range thresholds {
					want[j].Total++
					if (pred > threshold) == (v.ReadingSeconds > threshold) {
						want[j].Correct++
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s interest=%v: Evaluate = %+v, per-visit tally %+v", m.name, interest, got, want)
			}
		}
		short := []trace.Visit{{ReadingSeconds: 0.5, Features: train[0].Features}}
		if _, err := m.evaluate(short, true); err == nil {
			t.Errorf("%s: evaluation with no surviving visits succeeded", m.name)
		}
	}
}

// TestFig15AccuracyBands asserts the Fig. 15 reproduction: with the interest
// threshold the accuracy at both Tp and Td is solidly higher than without.
func TestFig15AccuracyBands(t *testing.T) {
	ds := dataset(t)
	train, test, err := Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	acc := make(map[bool][2]float64)
	for _, interest := range []bool{false, true} {
		cfg := Config{GBRT: fastGBRT(), UseInterestThreshold: interest, Alpha: 2}
		p, err := Train(train, cfg)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		accs, err := p.Evaluate(test, interest, 9, 20)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		acc[interest] = [2]float64{accs[0].Pct(), accs[1].Pct()}
	}
	with, without := acc[true], acc[false]
	if with[0] < 78 || with[1] < 78 {
		t.Errorf("with-threshold accuracy = %.1f/%.1f, want ≥ 78%% at both thresholds", with[0], with[1])
	}
	if with[0]-without[0] < 8 {
		t.Errorf("interest threshold gain at Tp = %.1f points, want ≥ 8", with[0]-without[0])
	}
	if with[1] <= without[1] {
		t.Errorf("interest threshold does not help at Td: %.1f vs %.1f", with[1], without[1])
	}
}

func TestPredictorMetadata(t *testing.T) {
	ds := dataset(t)
	train, _, err := Split(ds.Visits, 0.3, 1)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := Config{GBRT: fastGBRT(), UseInterestThreshold: true, Alpha: 2}
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if !p.InterestTrained() {
		t.Fatal("InterestTrained() = false")
	}
	if p.NumTrees() <= 0 {
		t.Fatalf("NumTrees = %d", p.NumTrees())
	}
	pred, err := p.PredictSeconds(train[0].Features)
	if err != nil {
		t.Fatalf("PredictSeconds: %v", err)
	}
	if pred <= 0 {
		t.Fatalf("predicted reading time %v", pred)
	}
}

func TestAccuracyPct(t *testing.T) {
	a := Accuracy{Correct: 3, Total: 4}
	if a.Pct() != 75 {
		t.Fatalf("Pct = %v, want 75", a.Pct())
	}
	var empty Accuracy
	if empty.Pct() != 0 {
		t.Fatalf("empty Pct = %v, want 0", empty.Pct())
	}
}

func TestPredictorSaveLoad(t *testing.T) {
	ds := dataset(t)
	train, test, err := Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	p, err := Train(train, Config{GBRT: fastGBRT(), UseInterestThreshold: true, Alpha: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatalf("LoadPredictor: %v", err)
	}
	if !loaded.InterestTrained() || loaded.NumTrees() != p.NumTrees() {
		t.Fatalf("metadata lost: interest=%v trees=%d", loaded.InterestTrained(), loaded.NumTrees())
	}
	for _, v := range test[:20] {
		a, err := p.PredictSeconds(v.Features)
		if err != nil {
			t.Fatalf("PredictSeconds: %v", err)
		}
		b, err := loaded.PredictSeconds(v.Features)
		if err != nil {
			t.Fatalf("loaded PredictSeconds: %v", err)
		}
		if a != b {
			t.Fatalf("round trip changed prediction: %v vs %v", a, b)
		}
	}
}

// narrowModel is a structurally valid 1-feature gbrt forest for envelope
// tests.
const narrowModel = `{"version":1,"base":5,"shrinkage":0.5,"numFeatures":1,
	"trees":[{"nodes":[{"leaf":true,"value":1}]}]}`

func TestLoadPredictorRejectsGarbage(t *testing.T) {
	cases := []struct {
		name, payload string
	}{
		{"not json", "junk"},
		{"pre-versioned envelope", `{"alpha":2,"interestTrained":true,"model":` + narrowModel + `}`},
		{"future version", `{"version":99,"featureSchema":1,"numFeatures":10,"alpha":2,"tp_s":9,"td_s":20,"model":` + narrowModel + `}`},
		{"wrong feature schema", `{"version":2,"featureSchema":7,"numFeatures":10,"alpha":2,"tp_s":9,"td_s":20,"model":` + narrowModel + `}`},
		{"wrong feature width", `{"version":2,"featureSchema":1,"numFeatures":1,"alpha":2,"tp_s":9,"td_s":20,"model":` + narrowModel + `}`},
		{"envelope/forest width mismatch", `{"version":2,"featureSchema":1,"numFeatures":10,"alpha":2,"tp_s":9,"td_s":20,"model":` + narrowModel + `}`},
		{"negative alpha", `{"version":2,"featureSchema":1,"numFeatures":10,"alpha":-1,"tp_s":9,"td_s":20,"model":` + narrowModel + `}`},
		{"zero thresholds", `{"version":2,"featureSchema":1,"numFeatures":10,"alpha":2,"tp_s":0,"td_s":0,"model":` + narrowModel + `}`},
		{"inverted thresholds", `{"version":2,"featureSchema":1,"numFeatures":10,"alpha":2,"tp_s":20,"td_s":9,"model":` + narrowModel + `}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadPredictor(strings.NewReader(tc.payload)); err == nil {
				t.Fatalf("payload accepted: %s", tc.payload)
			}
		})
	}
}

func TestPredictBatchVecSecondsMatchesSingle(t *testing.T) {
	ds := dataset(t)
	train, test, err := Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := DefaultConfig()
	cfg.GBRT = fastGBRT()
	p, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	vs := make([]features.Vector, 0, len(test))
	for _, v := range test {
		vs = append(vs, v.Features)
	}
	out := make([]float64, len(vs))
	if _, err := p.PredictBatchVecSeconds(vs, out, nil); err != nil {
		t.Fatalf("PredictBatchVecSeconds: %v", err)
	}
	for i, v := range vs {
		want, err := p.PredictSeconds(v)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("visit %d: batch %v != single %v", i, out[i], want)
		}
	}
}
