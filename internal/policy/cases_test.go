package policy

import (
	"strings"
	"testing"

	"eabrowse/internal/browser"
	"eabrowse/internal/channel"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/netsim"
	"eabrowse/internal/predictor"
	"eabrowse/internal/rrc"
	"eabrowse/internal/trace"
)

// The trace, the trained predictor and the Table 6 replay are built once
// for the package.
var (
	sharedDS      *trace.Dataset
	sharedPred    *predictor.Predictor
	sharedResults []CaseResult
)

func trainedTrace(t *testing.T) (*trace.Dataset, *predictor.Predictor) {
	t.Helper()
	if sharedPred != nil {
		return sharedDS, sharedPred
	}
	cfg := trace.DefaultConfig()
	ds, err := trace.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	train, _, err := predictor.Split(ds.Visits, 0.3, 7)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	pcfg := predictor.DefaultConfig()
	pcfg.GBRT = gbrt.Config{Trees: 120, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5}
	pred, err := predictor.Train(train, pcfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	sharedDS, sharedPred = ds, pred
	return ds, pred
}

func caseResults(t *testing.T) []CaseResult {
	t.Helper()
	if sharedResults != nil {
		return sharedResults
	}
	ds, pred := trainedTrace(t)
	ev, err := NewEvaluator(ds, pred, DefaultParams(), rrc.DefaultConfig(), netsim.DefaultConfig(),
		browser.DefaultCostModel(), gbrt.DefaultDeviceCost(), nil)
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	results, err := ev.EvaluateAll()
	if err != nil {
		t.Fatalf("EvaluateAll: %v", err)
	}
	sharedResults = results
	return results
}

func byCase(t *testing.T, results []CaseResult, c Case) CaseResult {
	t.Helper()
	for _, r := range results {
		if r.Case == c {
			return r
		}
	}
	t.Fatalf("case %v missing from results", c)
	return CaseResult{}
}

func TestEvaluatorValidation(t *testing.T) {
	ds, pred := trainedTrace(t)
	spec := rrc.DefaultConfig()
	link, cost, device := netsim.DefaultConfig(), browser.DefaultCostModel(), gbrt.DefaultDeviceCost()
	for _, tc := range []struct {
		name string
		ds   *trace.Dataset
		pred *predictor.Predictor
		spec rrc.ModelSpec
	}{
		{"nil dataset", nil, pred, spec},
		{"empty dataset", &trace.Dataset{}, pred, spec},
		{"nil predictor", ds, nil, spec},
		{"nil radio spec", ds, pred, nil},
	} {
		if _, err := NewEvaluator(tc.ds, tc.pred, DefaultParams(), tc.spec, link, cost, device, nil); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}

	// A visit to a page outside the pool is an error on the fixed link and
	// under a channel schedule alike, not an index panic.
	fading, err := channel.ScenarioSchedule("fading")
	if err != nil {
		t.Fatal(err)
	}
	known := ds.Visits[0]
	known.Page = ds.Pool[0].Name
	unknown := known
	unknown.Page = "no-such-page"
	small := &trace.Dataset{Pool: ds.Pool[:1], Visits: []trace.Visit{known, unknown}}
	for _, sched := range []*channel.Schedule{nil, fading} {
		ev, err := NewEvaluator(small, pred, DefaultParams(), spec, link, cost, device, sched)
		if err != nil {
			t.Fatalf("NewEvaluator(sched %v): %v", sched != nil, err)
		}
		if _, err := ev.EvaluateAll(); err == nil || !strings.Contains(err.Error(), "no cost for page no-such-page") {
			t.Errorf("sched %v: unknown page gave %v, want a no-cost error", sched != nil, err)
		}
		// Cases outside the table are rejected, not indexed.
		if _, err := ev.Evaluate(Case(0)); err == nil {
			t.Errorf("sched %v: Case(0) accepted", sched != nil)
		}
		if _, err := ev.Evaluate(Case(len(rules))); err == nil {
			t.Errorf("sched %v: Case(%d) accepted", sched != nil, len(rules))
		}
		// Under a schedule only the energy-aware pipeline is loaded, so an
		// original-browser case has no costs to replay; on the fixed link it
		// reaches the visits.
		want := "no cost for page"
		if sched != nil {
			want = "did not load"
		}
		if _, err := ev.Evaluate(CaseOrigAlwaysOff); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("sched %v: Evaluate(%v) gave %v, want an error containing %q",
				sched != nil, CaseOrigAlwaysOff, err, want)
		}
	}
}

// TestFig16Shape asserts the orderings the paper reports in Section 5.6.2:
//
//   - Original Always-off saves the least power and *costs* delay;
//   - Energy-Aware Always-off saves the least delay among the EA cases
//     (paper: 9.2%);
//   - Accurate-9 saves the most power; Accurate-20 the most delay;
//   - each Predict case performs slightly below its Accurate oracle.
func TestFig16Shape(t *testing.T) {
	results := caseResults(t)
	if len(results) != 7 {
		t.Fatalf("got %d cases, want 7 (baseline + 6)", len(results))
	}
	base := byCase(t, results, CaseOriginal)
	if base.PowerSavingPct != 0 || base.DelaySavingPct != 0 {
		t.Fatalf("baseline has nonzero savings: %+v", base)
	}

	origOff := byCase(t, results, CaseOrigAlwaysOff)
	eaOff := byCase(t, results, CaseEAAlwaysOff)
	acc9 := byCase(t, results, CaseAccurate9)
	pre9 := byCase(t, results, CasePredict9)
	acc20 := byCase(t, results, CaseAccurate20)
	pre20 := byCase(t, results, CasePredict20)

	if origOff.DelaySavingPct >= 0 {
		t.Errorf("Original Always-off delay saving = %.2f%%, want negative (paper: -1.47%%)", origOff.DelaySavingPct)
	}
	for _, r := range []CaseResult{eaOff, acc9, pre9, acc20, pre20} {
		if origOff.PowerSavingPct >= r.PowerSavingPct {
			t.Errorf("Original Always-off (%.2f%%) should save the least power, but beats %v (%.2f%%)",
				origOff.PowerSavingPct, r.Case, r.PowerSavingPct)
		}
	}
	for _, r := range []CaseResult{acc9, pre9, acc20, pre20} {
		if eaOff.DelaySavingPct > r.DelaySavingPct {
			t.Errorf("EA Always-off (%.2f%%) should save the least delay among EA cases, but beats %v (%.2f%%)",
				eaOff.DelaySavingPct, r.Case, r.DelaySavingPct)
		}
	}
	// EA Always-off delay saving near the paper's 9.2%.
	if eaOff.DelaySavingPct < 5 || eaOff.DelaySavingPct > 15 {
		t.Errorf("EA Always-off delay saving = %.2f%%, want ≈9.2%%", eaOff.DelaySavingPct)
	}
	// Accurate-9 best power.
	for _, r := range []CaseResult{origOff, eaOff, pre9, acc20, pre20} {
		if acc9.PowerSavingPct < r.PowerSavingPct {
			t.Errorf("Accurate-9 (%.2f%%) should save the most power, beaten by %v (%.2f%%)",
				acc9.PowerSavingPct, r.Case, r.PowerSavingPct)
		}
	}
	// Accurate-20 best delay.
	for _, r := range []CaseResult{origOff, eaOff, acc9, pre9, pre20} {
		if acc20.DelaySavingPct < r.DelaySavingPct {
			t.Errorf("Accurate-20 (%.2f%%) should save the most delay, beaten by %v (%.2f%%)",
				acc20.DelaySavingPct, r.Case, r.DelaySavingPct)
		}
	}
	// Predictions track but do not beat their oracles on the target metric.
	if pre9.PowerSavingPct > acc9.PowerSavingPct {
		t.Errorf("Predict-9 power (%.2f%%) beats its oracle (%.2f%%)", pre9.PowerSavingPct, acc9.PowerSavingPct)
	}
	if pre20.DelaySavingPct > acc20.DelaySavingPct {
		t.Errorf("Predict-20 delay (%.2f%%) beats its oracle (%.2f%%)", pre20.DelaySavingPct, acc20.DelaySavingPct)
	}
}

func TestPredictCasesCountPredictions(t *testing.T) {
	results := caseResults(t)
	for _, c := range []Case{CasePredict9, CasePredict20} {
		r := byCase(t, results, c)
		if r.Predictions == 0 {
			t.Errorf("%v made no predictions", c)
		}
	}
	for _, c := range []Case{CaseOriginal, CaseOrigAlwaysOff, CaseEAAlwaysOff, CaseAccurate9, CaseAccurate20} {
		r := byCase(t, results, c)
		if r.Predictions != 0 {
			t.Errorf("%v made %d predictions, want none", c, r.Predictions)
		}
	}
}

func TestSwitchCounts(t *testing.T) {
	results := caseResults(t)
	eaOff := byCase(t, results, CaseEAAlwaysOff)
	acc9 := byCase(t, results, CaseAccurate9)
	acc20 := byCase(t, results, CaseAccurate20)
	if eaOff.Switches <= acc9.Switches {
		t.Errorf("always-off switches (%d) not above Accurate-9 (%d)", eaOff.Switches, acc9.Switches)
	}
	if acc9.Switches <= acc20.Switches {
		t.Errorf("Accurate-9 switches (%d) not above Accurate-20 (%d); 9s threshold fires more often",
			acc9.Switches, acc20.Switches)
	}
}
