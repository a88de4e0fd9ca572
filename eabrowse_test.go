package eabrowse

// Public-API tests: what a downstream user of the library exercises.

import (
	"strings"
	"testing"
	"time"
)

func TestPhoneLoadsBothPipelines(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	energies := make(map[Mode]float64)
	for _, mode := range []Mode{ModeOriginal, ModeEnergyAware} {
		phone, err := New(mode)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := phone.LoadPage(page)
		if err != nil {
			t.Fatalf("LoadPage: %v", err)
		}
		if res.FinalDisplayAt <= 0 {
			t.Fatalf("%v: no final display", mode)
		}
		phone.Read(20 * time.Second)
		energies[mode] = phone.EnergyJ()
	}
	if energies[ModeEnergyAware] >= energies[ModeOriginal] {
		t.Fatalf("energy-aware (%.1f J) not below original (%.1f J)",
			energies[ModeEnergyAware], energies[ModeOriginal])
	}
}

func TestPhoneRadioStateVisible(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	phone, err := New(ModeEnergyAware)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if phone.RadioState() != RadioIdle {
		t.Fatalf("fresh phone radio = %v, want IDLE", phone.RadioState())
	}
	if _, err := phone.LoadPage(page); err != nil {
		t.Fatalf("LoadPage: %v", err)
	}
	phone.Read(10 * time.Second)
	if phone.RadioState() != RadioIdle {
		t.Fatalf("radio = %v after energy-aware load + reading, want IDLE", phone.RadioState())
	}
}

func TestPhoneWithCustomConfig(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	radio := DefaultRadioConfig()
	radio.T1 = 2 * time.Second
	phone, err := New(ModeOriginal, WithRadioModel(radio))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := phone.LoadPage(page); err != nil {
		t.Fatalf("LoadPage: %v", err)
	}
	phone.Read(3 * time.Second)
	if phone.RadioState() != RadioFACH {
		t.Fatalf("radio = %v with T1=2s after 3s reading, want FACH", phone.RadioState())
	}
}

func TestPhoneForceRadioIdle(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	phone, err := New(ModeOriginal)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := phone.LoadPage(page); err != nil {
		t.Fatalf("LoadPage: %v", err)
	}
	if err := phone.ForceRadioIdle(); err != nil {
		t.Fatalf("ForceRadioIdle: %v", err)
	}
	phone.Read(2 * time.Second)
	if phone.RadioState() != RadioIdle {
		t.Fatalf("radio = %v after forced release, want IDLE", phone.RadioState())
	}
}

func TestGeneratePageAndFeatures(t *testing.T) {
	page, err := GeneratePage(PageSpec{
		Name: "api.example.com", Seed: 1,
		TextKB: 8, Sections: 3, Images: 4, ImageKBMin: 2, ImageKBMax: 4,
		Stylesheets: 1, CSSKB: 4, CSSRules: 30,
		Scripts: 1, ScriptKB: 2, ScriptFetches: 1,
		Anchors: 3, PageHeightPX: 1000, PageWidthPX: 400,
	})
	if err != nil {
		t.Fatalf("GeneratePage: %v", err)
	}
	phone, err := New(ModeEnergyAware)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := phone.LoadPage(page)
	if err != nil {
		t.Fatalf("LoadPage: %v", err)
	}
	vec, err := ExtractFeatures(res)
	if err != nil {
		t.Fatalf("ExtractFeatures: %v", err)
	}
	if vec[2] != float64(res.Objects) {
		t.Fatalf("feature vector objects = %v, result %d", vec[2], res.Objects)
	}
}

func TestAlgorithm2Decision(t *testing.T) {
	params := DefaultPolicyParams()
	if ShouldSwitchToIdle(5*time.Second, params) {
		t.Fatal("switched for a 5 s read in delay mode")
	}
	if !ShouldSwitchToIdle(30*time.Second, params) {
		t.Fatal("did not switch for a 30 s read")
	}
}

func TestBenchmarkCorpora(t *testing.T) {
	mobile, err := MobileBenchmark()
	if err != nil {
		t.Fatalf("MobileBenchmark: %v", err)
	}
	full, err := FullBenchmark()
	if err != nil {
		t.Fatalf("FullBenchmark: %v", err)
	}
	if len(mobile) != 10 || len(full) != 10 {
		t.Fatalf("corpora sizes %d/%d, want 10/10", len(mobile), len(full))
	}
	espn, err := ESPNSports()
	if err != nil {
		t.Fatalf("ESPNSports: %v", err)
	}
	if espn.TotalBytes() < 500*1024 {
		t.Fatalf("espn is only %d bytes", espn.TotalBytes())
	}
	if _, err := BenchmarkPage("m.ebay.com"); err != nil {
		t.Fatalf("BenchmarkPage: %v", err)
	}
}

func TestTraceAndPredictorAPI(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Users = 6
	cfg.PoolSize = 12
	ds, err := SynthesizeTrace(cfg)
	if err != nil {
		t.Fatalf("SynthesizeTrace: %v", err)
	}
	train, test, err := SplitTrace(ds.Visits, 0.3, 1)
	if err != nil {
		t.Fatalf("SplitTrace: %v", err)
	}
	pcfg := DefaultPredictorConfig()
	pcfg.GBRT.Trees = 50
	pred, err := TrainPredictor(train, pcfg)
	if err != nil {
		t.Fatalf("TrainPredictor: %v", err)
	}
	accs, err := pred.Evaluate(test, true, 9)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if accs[0].Pct() < 50 {
		t.Fatalf("accuracy %.1f%% below coin flip", accs[0].Pct())
	}
}

func TestNewWithEngineOptions(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	// Reordering without auto-dormancy: radio must NOT be forced idle.
	phone, err := New(ModeEnergyAware, WithEngineOptions(WithoutAutoDormancy()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := phone.LoadPage(page); err != nil {
		t.Fatalf("LoadPage: %v", err)
	}
	phone.Read(2 * time.Second)
	if phone.RadioState() == RadioIdle {
		t.Fatal("radio already IDLE 2 s after load despite WithoutAutoDormancy")
	}
}

func TestNewWithFaultInjector(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatalf("MCNNPage: %v", err)
	}
	cfg := FaultConfig{Seed: 1, LossRate: 0.05}
	phone, err := New(ModeEnergyAware, WithFaultInjector(cfg))
	if err != nil {
		t.Fatalf("New(WithFaultInjector): %v", err)
	}
	res, err := phone.LoadPage(page)
	if err != nil {
		t.Fatalf("LoadPage under faults: %v", err)
	}
	if res.FinalDisplayAt <= 0 {
		t.Fatal("no final display under fault injection")
	}
}

func TestSetParallelism(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after reset, want >= 1", got)
	}
}

func TestBenchmarkPageUnknownNameListsValid(t *testing.T) {
	_, err := BenchmarkPage("no-such-page")
	if err == nil {
		t.Fatal("BenchmarkPage accepted an unknown name")
	}
	msg := err.Error()
	for _, want := range []string{"no-such-page", "m.cnn.com", "espn.go.com/sports"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}
