package eabrowse

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (Section 5). Each benchmark regenerates its
// experiment and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole results section.
//
// Paper-vs-measured values are tabulated in EXPERIMENTS.md.

import (
	"math/rand"
	"testing"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/experiments"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/policy"
	"eabrowse/internal/predictor"
	"eabrowse/internal/runner"
	"eabrowse/internal/trace"
)

// BenchmarkFig1StatePowerTrace samples the radio walking IDLE→DCH→FACH→IDLE.
func BenchmarkFig1StatePowerTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanPowerW, "meanW")
			b.ReportMetric(float64(len(res.Samples)), "samples")
		}
	}
}

// BenchmarkFig3IntuitiveCrossover sweeps the transfer interval and finds
// where immediate release starts paying (paper: 9 s).
func BenchmarkFig3IntuitiveCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.CrossoverS, "crossover_s")
		}
	}
}

// BenchmarkFig4TrafficShape compares browser vs socket transfer shapes
// (paper: ~47 s vs ~8 s for 760 KB).
func BenchmarkFig4TrafficShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BrowserTotalS, "browser_s")
			b.ReportMetric(res.BulkTotalS, "socket_s")
		}
	}
}

// BenchmarkFig7ReadingTimeCDF synthesizes the trace and reports the landmark
// quantiles (paper: 30% < 2 s, 53% < 9 s, 68% < 20 s).
func BenchmarkFig7ReadingTimeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Under2Pct, "under2_pct")
			b.ReportMetric(res.Under9Pct, "under9_pct")
			b.ReportMetric(res.Under20Pct, "under20_pct")
		}
	}
}

// BenchmarkFig8TransmissionTime measures both pipelines over both
// benchmarks (paper: -15% mobile, -27% full transmission time).
func BenchmarkFig8TransmissionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Mobile.TransmissionSavingPct(), "mobile_trans_saving_pct")
			b.ReportMetric(res.Full.TransmissionSavingPct(), "full_trans_saving_pct")
			b.ReportMetric(res.Full.TotalSavingPct(), "full_total_saving_pct")
		}
	}
}

// BenchmarkFig9PowerTrace samples both pipelines loading espn sports.
func BenchmarkFig9PowerTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.OrigTransmissionS, "orig_trans_s")
			b.ReportMetric(res.AwareTransmissionS, "aware_trans_s")
		}
	}
}

// BenchmarkFig10Energy measures open-page + 20 s reading energy
// (paper: >30% saving).
func BenchmarkFig10Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Mobile.EnergySavingPct(), "mobile_saving_pct")
			b.ReportMetric(res.Full.EnergySavingPct(), "full_saving_pct")
		}
	}
}

// BenchmarkFig11Capacity runs the Erlang-loss capacity comparison
// (paper: +14.3% mobile, +19.6% full users).
func BenchmarkFig11Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Mobile.CapacityGainPct, "mobile_gain_pct")
			b.ReportMetric(res.Full.CapacityGainPct, "full_gain_pct")
		}
	}
}

// BenchmarkFig12DisplayTimings measures intermediate/final display times on
// espn (paper: 7 s vs 17.6 s intermediate; 28.6 s vs 34.5 s final).
func BenchmarkFig12DisplayTimings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.FirstDisplayGainS, "first_gain_s")
			b.ReportMetric(res.FinalDisplayGainS, "final_gain_s")
		}
	}
}

// BenchmarkFig14DisplayTime averages display times over both benchmarks
// (paper: first display -45.5%, final -16.8% on the full benchmark).
func BenchmarkFig14DisplayTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Full.FirstDisplaySavingPct(), "full_first_saving_pct")
			b.ReportMetric(res.Full.TotalSavingPct(), "full_final_saving_pct")
		}
	}
}

// BenchmarkFig15PredictionAccuracy trains and evaluates the GBRT with and
// without the interest threshold (paper: threshold adds >= 10 points).
func BenchmarkFig15PredictionAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.WithTp, "with_tp_pct")
			b.ReportMetric(res.WithoutTp, "without_tp_pct")
			b.ReportMetric(res.GainTp, "gain_tp_points")
		}
	}
}

// BenchmarkFig16SixCases replays the trace under all Table 6 strategies.
func BenchmarkFig16SixCases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range res.Cases {
				switch c.Case {
				case policy.CaseAccurate9:
					b.ReportMetric(c.PowerSavingPct, "accurate9_power_pct")
				case policy.CaseAccurate20:
					b.ReportMetric(c.DelaySavingPct, "accurate20_delay_pct")
				}
			}
		}
	}
}

// BenchmarkTable4Correlations computes the feature/reading-time Pearson
// matrix (paper: no notable correlation).
func BenchmarkTable4Correlations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MaxAbs, "max_abs_r")
		}
	}
}

// BenchmarkTable7PredictionCost measures real GBRT prediction speed per
// 10,000 eight-node trees (the paper's phone took 0.295 s).
func BenchmarkTable7PredictionCost(b *testing.B) {
	xs := [][]float64{{1, 2}, {2, 1}, {3, 4}, {4, 3}, {5, 6}, {6, 5}, {7, 8}, {8, 7}}
	ys := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	model, err := gbrt.Train(xs, ys, gbrt.Config{Trees: 50, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 1})
	if err != nil {
		b.Fatal(err)
	}
	evalsPer10k := 10000 / model.NumTrees()
	probe := []float64{2.5, 3.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < evalsPer10k; j++ {
			if _, err := model.Predict(probe); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(gbrt.DefaultDeviceCost().PredictionTime(10000).Seconds(), "phone_s_per_10k_trees")
}

// BenchmarkPageLoadOriginal measures one full original-pipeline page load
// simulation (engineering throughput, not a paper figure).
func BenchmarkPageLoadOriginal(b *testing.B) {
	benchmarkPageLoad(b, browser.ModeOriginal)
}

// BenchmarkPageLoadEnergyAware measures one energy-aware load simulation.
func BenchmarkPageLoadEnergyAware(b *testing.B) {
	benchmarkPageLoad(b, browser.ModeEnergyAware)
}

func benchmarkPageLoad(b *testing.B, mode browser.Mode) {
	page, err := experiments.ESPNPage()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LoadPage(page, mode, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBRTTraining measures forest training on a trace-sized problem.
func BenchmarkGBRTTraining(b *testing.B) {
	ds, err := trace.Synthesize(trace.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	train, _, err := predictor.Split(ds.Visits, 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := predictor.DefaultConfig()
	cfg.GBRT.Trees = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predictor.Train(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceSynthesis measures the full 40-user trace build (including
// measuring the pool pages through real loads).
func BenchmarkTraceSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Synthesize(trace.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablation sweep.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 1 {
			b.ReportMetric(res.Rows[1].EnergyDeltaPct, "reordering_only_delta_pct")
		}
	}
}

// BenchmarkPhoneAPI measures the public-API load path end to end.
func BenchmarkPhoneAPI(b *testing.B) {
	page, err := MCNNPage()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phone, err := New(ModeEnergyAware)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := phone.LoadPage(page); err != nil {
			b.Fatal(err)
		}
		phone.Read(5 * time.Second)
	}
}

// benchmarkChaosSweep runs the chaos sweep at a fixed worker-pool size with
// the artifact cache pre-warmed, so the pair below isolates the worker pool's
// wall-clock effect. The sequential/parallel results are asserted identical —
// the determinism contract, checked where the speedup is measured.
func benchmarkChaosSweep(b *testing.B, workers int) {
	if _, err := experiments.BenchmarkPages(); err != nil {
		b.Fatal(err)
	}
	prev := runner.Workers()
	runner.SetWorkers(workers)
	defer runner.SetWorkers(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.ChaosSweep(experiments.DefaultChaosProfile(), 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Pages), "pages_per_mode")
		}
	}
}

// BenchmarkChaosSweepSequential is the 1-worker baseline for the speedup
// comparison tracked in-repo.
func BenchmarkChaosSweepSequential(b *testing.B) { benchmarkChaosSweep(b, 1) }

// BenchmarkChaosSweepParallel runs the same sweep at 8 workers; on a
// multi-core runner the wall-clock ratio against the sequential benchmark is
// the parallel runner's speedup (single-core runners show parity).
func BenchmarkChaosSweepParallel(b *testing.B) { benchmarkChaosSweep(b, 8) }

// BenchmarkFleetReplay replays a small fleet through both pipelines with
// Algorithm 2 driving the energy-aware phones.
func BenchmarkFleetReplay(b *testing.B) {
	cfg := experiments.FleetConfig{Users: 24, HoursPerUser: 0.05, Seed: 7}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.EnergySavingPct, "energy_saving_pct")
		}
	}
}

// synthGBRTData builds a deterministic synthetic regression problem of the
// given shape, mixing continuous and tie-heavy quantized columns like the
// Table 1 feature vectors do.
func synthGBRTData(n, numFeatures int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(numFeatures)))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, numFeatures)
		for f := range row {
			if f%2 == 0 {
				row[f] = rng.Float64() * 100
			} else {
				row[f] = float64(rng.Intn(8))
			}
		}
		xs[i] = row
		ys[i] = row[0]*0.3 + row[numFeatures-1]*2 + rng.NormFloat64()*5
	}
	return xs, ys
}

// BenchmarkGBRTTrain measures forest training across problem shapes; the
// n500_F10_M400 case is the fleet-scale workload (one per-user model of the
// 300-phone replay). Allocations are part of the tracked trajectory: the
// presorted engine must stay flat as shapes grow.
func BenchmarkGBRTTrain(b *testing.B) {
	shapes := []struct {
		name  string
		n, f  int
		trees int
	}{
		{"n200_F5_M100", 200, 5, 100},
		{"n500_F10_M400", 500, 10, 400},
		{"n2000_F10_M100", 2000, 10, 100},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			xs, ys := synthGBRTData(s.n, s.f)
			cfg := gbrt.Config{Trees: s.trees, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := gbrt.Train(xs, ys, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(m.NumTrees()), "trees")
				}
			}
		})
	}
}

// BenchmarkGBRTPredictBatch compares PredictBatch against the equivalent
// per-sample Predict loop on a fleet-sized evaluation batch: both evaluate
// the same compiled forest per row, so the gap is the per-call overhead.
func BenchmarkGBRTPredictBatch(b *testing.B) {
	xs, ys := synthGBRTData(500, 10)
	model, err := gbrt.Train(xs, ys, gbrt.Config{Trees: 400, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5})
	if err != nil {
		b.Fatal(err)
	}
	probes, _ := synthGBRTData(1000, 10)
	out := make([]float64, len(probes))
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := model.PredictBatch(probes, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, x := range probes {
				v, err := model.Predict(x)
				if err != nil {
					b.Fatal(err)
				}
				out[j] = v
			}
		}
	})
}
