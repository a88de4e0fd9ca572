package experiments

import (
	"fmt"
	"slices"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/capacity"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/policy"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
	"eabrowse/internal/webpage"
)

// Fig11Curve is one pipeline's dropping-probability curve.
type Fig11Curve struct {
	Mode    browser.Mode
	Users   []int
	DropPct []float64
	// SupportedAt2Pct is the capacity boundary at 2% dropping that
	// capacity.SupportedUsers' search meets (see its doc).
	SupportedAt2Pct int
}

// Fig11Bench is one benchmark's capacity comparison.
type Fig11Bench struct {
	Label           string
	Original        Fig11Curve
	Aware           Fig11Curve
	CapacityGainPct float64
}

// Fig11Result holds both benchmarks (Fig. 11 a and b).
type Fig11Result struct {
	Mobile *Fig11Bench
	Full   *Fig11Bench
}

// fig11Sweeps are the user counts Fig. 11 sweeps on the mobile and the full
// benchmark.
var fig11Sweeps = [2][]int{
	{300, 350, 400, 450, 500, 550, 600, 650, 700},
	{200, 220, 240, 260, 280, 300, 320, 340, 360},
}

// fig11Modes are the pipelines of each benchmark's two curves, in order.
var fig11Modes = [2]browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware}

// fig11Task is one capacity simulation job of Fig. 11: curve c (benchmark
// c/2, pipeline fig11Modes[c%2]) at sweep point slot, or its SupportedUsers
// search when slot is the sweep's length.
type fig11Task struct{ curve, slot int }

// fig11Order lists Fig. 11's 40 capacity jobs in pool order, longest first,
// since a run's events grow with its users. The four searches come first: a
// search runs every population its doubling and bisection visit, up to about
// twice its answer, so each costs more than any sweep point, and the mobile
// benchmark's (about 500 users) and the aware pipeline's (the larger answer
// of each benchmark) cost most. The 36 sweep points follow by falling
// population.
func fig11Order() []fig11Task {
	var tasks, points []fig11Task
	for _, c := range []int{1, 0, 3, 2} {
		tasks = append(tasks, fig11Task{c, len(fig11Sweeps[c/2])})
	}
	for c := range 4 {
		for slot := range fig11Sweeps[c/2] {
			points = append(points, fig11Task{c, slot})
		}
	}
	slices.SortStableFunc(points, func(a, b fig11Task) int {
		return fig11Sweeps[b.curve/2][b.slot] - fig11Sweeps[a.curve/2][a.slot]
	})
	return append(tasks, points...)
}

// Fig11 reproduces Fig. 11: the M/G/200 Erlang-loss simulation fed with the
// measured per-page data-transmission times of each pipeline. The paper
// reports 14.3% more users on the mobile benchmark and 19.6% on the full
// benchmark at equal dropping probability.
//
// The four curves' nine sweep points and capacity searches are 40
// independent simulations, each seeded from the same config and reading only
// its curve's service times, so they run as separate pool tasks, longest
// first (fig11Order). Each task writes its own result slot, and the curves
// are assembled afterwards, so every pool size returns the same bytes.
// Errors are checked in the serial order (benchmark, pipeline, sweep points
// before the search), so a failing run returns the same error too.
func Fig11() (*Fig11Result, error) {
	mobile, err := MobilePages()
	if err != nil {
		return nil, err
	}
	full, err := FullPages()
	if err != nil {
		return nil, err
	}
	benches := [2][]*webpage.Page{mobile, full}
	var service [4][]float64
	for c := range service {
		if service[c], err = transmissionTimes(benches[c/2], fig11Modes[c%2]); err != nil {
			return nil, err
		}
	}
	cfg := capacity.DefaultConfig()
	var curves [4]Fig11Curve
	var errs [4][]error
	for c := range curves {
		sweep := fig11Sweeps[c/2]
		curves[c] = Fig11Curve{Mode: fig11Modes[c%2], Users: sweep, DropPct: make([]float64, len(sweep))}
		errs[c] = make([]error, len(sweep)+1)
	}
	tasks := fig11Order()
	_ = runner.Map(len(tasks), func(i int) error {
		t := tasks[i]
		curve, svc, err := &curves[t.curve], service[t.curve], &errs[t.curve][t.slot]
		if t.slot == len(curve.Users) {
			curve.SupportedAt2Pct, *err = capacity.SupportedUsers(svc, 2, cfg)
			return nil
		}
		var r capacity.Result
		r, *err = capacity.Simulate(curve.Users[t.slot], svc, cfg)
		curve.DropPct[t.slot] = r.DropPercent
		return nil
	})
	for _, e := range errs {
		for _, err := range e {
			if err != nil {
				return nil, err
			}
		}
	}
	return &Fig11Result{
		Mobile: fig11Bench("mobile benchmark", curves[0], curves[1]),
		Full:   fig11Bench("full benchmark", curves[2], curves[3]),
	}, nil
}

// fig11Bench pairs one benchmark's two curves and computes its capacity gain.
func fig11Bench(label string, original, aware Fig11Curve) *Fig11Bench {
	bench := &Fig11Bench{Label: label, Original: original, Aware: aware}
	if original.SupportedAt2Pct > 0 {
		bench.CapacityGainPct = float64(aware.SupportedAt2Pct-original.SupportedAt2Pct) /
			float64(original.SupportedAt2Pct) * 100
	}
	return bench
}

// transmissionTimes loads every page once under mode (in parallel, collected
// in page order) and returns the per-page data-transmission times in seconds
// — the channel-hold times of the capacity model.
func transmissionTimes(pages []*webpage.Page, mode browser.Mode) ([]float64, error) {
	return runner.Collect(len(pages), func(i int) (float64, error) {
		res, err := LoadPage(pages[i], mode, 0)
		if err != nil {
			return 0, err
		}
		return res.Result.TransmissionTime.Seconds(), nil
	})
}

// Fig15Result is the prediction-accuracy comparison of Fig. 15.
type Fig15Result struct {
	WithoutTp float64
	WithoutTd float64
	WithTp    float64
	WithTd    float64
	// Gains are the with-minus-without improvements (paper: ≥ 10 points).
	GainTp     float64
	GainTd     float64
	TestVisits int
}

// Fig15 reproduces Fig. 15: GBRT accuracy at Tp = 9 s and Td = 20 s, trained
// and evaluated with and without the interest threshold. The trace, split
// and both trained models come from the shared artifact cache, and the two
// variants evaluate concurrently.
func Fig15() (*Fig15Result, error) {
	_, test, err := DefaultSplit()
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{TestVisits: len(test)}
	type accPair struct{ a9, a20 float64 }
	variants := []bool{false, true}
	accs, err := runner.Collect(len(variants), func(i int) (accPair, error) {
		withInterest := variants[i]
		p, err := TrainedPredictor(withInterest)
		if err != nil {
			return accPair{}, err
		}
		a9, err := p.Evaluate(test, 9, withInterest)
		if err != nil {
			return accPair{}, err
		}
		a20, err := p.Evaluate(test, 20, withInterest)
		if err != nil {
			return accPair{}, err
		}
		return accPair{a9: a9.Pct(), a20: a20.Pct()}, nil
	})
	if err != nil {
		return nil, err
	}
	res.WithoutTp, res.WithoutTd = accs[0].a9, accs[0].a20
	res.WithTp, res.WithTd = accs[1].a9, accs[1].a20
	res.GainTp = res.WithTp - res.WithoutTp
	res.GainTd = res.WithTd - res.WithoutTd
	return res, nil
}

// Fig16Result is the six-case comparison of Fig. 16.
type Fig16Result struct {
	Cases []policy.CaseResult
}

// Fig16 reproduces Fig. 16: the six Table 6 strategies replayed over the
// synthesized trace, reporting power and delay savings against the original
// browser with stock timers. The trace and the trained predictor come from
// the shared artifact cache.
func Fig16() (*Fig16Result, error) {
	ds, err := DefaultTrace()
	if err != nil {
		return nil, err
	}
	pred, err := TrainedPredictor(true)
	if err != nil {
		return nil, err
	}
	ev, err := policy.NewEvaluator(ds, pred, policy.DefaultParams(), rrc.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	cases, err := ev.EvaluateAll()
	if err != nil {
		return nil, err
	}
	return &Fig16Result{Cases: cases}, nil
}

// Table7Row is one prediction-cost entry.
type Table7Row struct {
	Trees       int
	EnergyJ     float64
	TimeSeconds float64
	// GoWallTime is how long the Go implementation actually takes for the
	// same forest size (informational; the paper's numbers are the phone's).
	GoWallTime time.Duration
}

// Table7 reproduces Table 7: simulated on-phone prediction cost for
// 1,000/10,000/20,000 eight-node trees, alongside the Go implementation's
// real wall time for the same workload.
func Table7() ([]Table7Row, error) {
	device := gbrt.DefaultDeviceCost()
	// A real forest to time: train on a small synthetic problem and re-walk
	// its trees the requested number of times.
	xs := [][]float64{{1, 2}, {2, 1}, {3, 4}, {4, 3}, {5, 6}, {6, 5}, {7, 8}, {8, 7}}
	ys := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	model, err := gbrt.Train(xs, ys, gbrt.Config{Trees: 50, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 1})
	if err != nil {
		return nil, err
	}
	if model.NumTrees() == 0 {
		return nil, fmt.Errorf("table7: empty model")
	}
	probe := []float64{2.5, 3.5}
	rows := make([]Table7Row, 0, 3)
	for _, trees := range []int{1000, 10000, 20000} {
		evals := trees / model.NumTrees()
		start := time.Now()
		for i := 0; i < evals; i++ {
			if _, err := model.Predict(probe); err != nil {
				return nil, err
			}
		}
		rows = append(rows, Table7Row{
			Trees:       trees,
			EnergyJ:     device.PredictionEnergyJ(trees),
			TimeSeconds: device.PredictionTime(trees).Seconds(),
			GoWallTime:  time.Since(start),
		})
	}
	return rows, nil
}
