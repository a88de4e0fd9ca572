package predictor

import (
	"testing"

	"eabrowse/internal/gbrt"
)

func TestTrainPerUser(t *testing.T) {
	ds := dataset(t)
	train, test, err := Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := Config{GBRT: gbrt.Config{Trees: 80, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5},
		UseInterestThreshold: true, Alpha: 2}
	pu, err := TrainPerUser(train, cfg)
	if err != nil {
		t.Fatalf("TrainPerUser: %v", err)
	}
	if pu.PersonalModels() == 0 {
		t.Fatal("no personal models fitted for 40 users with 2h each")
	}
	accs, err := pu.Evaluate(test, true, 9)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if accs[0].Pct() < 70 {
		t.Fatalf("per-user accuracy %.1f%%, want at least the global ballpark", accs[0].Pct())
	}
}

func TestTrainPerUserEmpty(t *testing.T) {
	if _, err := TrainPerUser(nil, DefaultConfig()); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestPerUserFallsBackToGlobal(t *testing.T) {
	ds := dataset(t)
	train, _, err := Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := Config{GBRT: gbrt.Config{Trees: 40, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5},
		UseInterestThreshold: true, Alpha: 2}
	pu, err := TrainPerUser(train, cfg)
	if err != nil {
		t.Fatalf("TrainPerUser: %v", err)
	}
	// An unseen user id must still get a prediction.
	if _, err := pu.PredictSeconds(9999, train[0].Features); err != nil {
		t.Fatalf("fallback prediction failed: %v", err)
	}
}

func TestPerUserVsGlobalAccuracy(t *testing.T) {
	ds := dataset(t)
	train, test, err := Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	cfg := Config{GBRT: gbrt.Config{Trees: 100, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5},
		UseInterestThreshold: true, Alpha: 2}
	global, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	pu, err := TrainPerUser(train, cfg)
	if err != nil {
		t.Fatalf("TrainPerUser: %v", err)
	}
	gAccs, err := global.Evaluate(test, true, 9)
	if err != nil {
		t.Fatalf("global Evaluate: %v", err)
	}
	pAccs, err := pu.Evaluate(test, true, 9)
	if err != nil {
		t.Fatalf("per-user Evaluate: %v", err)
	}
	gAcc, pAcc := gAccs[0], pAccs[0]
	// Per-user models see far less data each; they must stay within a
	// reasonable band of the global model (they may win or lose slightly).
	if pAcc.Pct() < gAcc.Pct()-10 {
		t.Fatalf("per-user %.1f%% collapsed vs global %.1f%%", pAcc.Pct(), gAcc.Pct())
	}
	t.Logf("global %.1f%% vs per-user %.1f%% (personal models: %d)",
		gAcc.Pct(), pAcc.Pct(), pu.PersonalModels())
}
