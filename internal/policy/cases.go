package policy

import (
	"errors"
	"fmt"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/channel"
	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/netsim"
	"eabrowse/internal/predictor"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
	"eabrowse/internal/simtime"
	"eabrowse/internal/trace"
)

// Case is one of the Section 5.6.2 / Table 6 strategies for deciding when
// the smartphone switches to IDLE.
type Case int

const (
	// CaseOriginal is the unmodified browser and stock timers (baseline).
	CaseOriginal Case = iota + 1
	// CaseOrigAlwaysOff: original browser, forced IDLE right after every
	// page opens.
	CaseOrigAlwaysOff
	// CaseEAAlwaysOff: energy-aware browser, forced IDLE right after every
	// page opens.
	CaseEAAlwaysOff
	// CaseAccurate9: energy-aware browser; IDLE if the *actual* trace
	// reading time exceeds Tp = 9 s (oracle upper bound, power-driven).
	CaseAccurate9
	// CasePredict9: energy-aware browser; IDLE if the *predicted* reading
	// time exceeds Tp = 9 s.
	CasePredict9
	// CaseAccurate20: oracle at Td = 20 s (delay-driven).
	CaseAccurate20
	// CasePredict20: prediction at Td = 20 s.
	CasePredict20
)

// String names the case as in Table 6.
func (c Case) String() string {
	switch c {
	case CaseOriginal:
		return "Original"
	case CaseOrigAlwaysOff:
		return "Original Always-off"
	case CaseEAAlwaysOff:
		return "Energy-Aware Always-off"
	case CaseAccurate9:
		return "Accurate-9"
	case CasePredict9:
		return "Predict-9"
	case CaseAccurate20:
		return "Accurate-20"
	case CasePredict20:
		return "Predict-20"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// AllCases lists the six evaluated strategies (the baseline is implicit).
var AllCases = []Case{
	CaseOrigAlwaysOff, CaseEAAlwaysOff,
	CaseAccurate9, CasePredict9,
	CaseAccurate20, CasePredict20,
}

// CaseResult is one bar pair of Fig. 16.
type CaseResult struct {
	Case Case
	// EnergyJ is total browsing energy over the whole trace.
	EnergyJ float64
	// DelayS is total page-loading delay (including promotion penalties
	// inherited from a too-eager release).
	DelayS float64
	// PowerSavingPct and DelaySavingPct are relative to CaseOriginal.
	PowerSavingPct float64
	DelaySavingPct float64
	// Switches counts forced releases; Predictions counts GBRT evaluations.
	Switches    int
	Predictions int
}

// pageCost caches one pool page's load behaviour under both pipelines.
type pageCost struct {
	origLoadS   float64
	origEnergyJ float64
	origTailS   float64 // page-open time minus last-transfer time
	eaLoadS     float64
	eaEnergyJ   float64
	eaTailS     float64
}

// Evaluator replays a browsing trace under each case.
type Evaluator struct {
	ds     *trace.Dataset
	pred   *predictor.Predictor
	spec   rrc.ModelSpec
	tail   rrc.TailProfile
	params Params
	costs  map[string]pageCost
	device gbrt.DeviceCost
}

// NewEvaluator prepares the case replays on the paper's UMTS radio. It is
// NewEvaluatorWithRadio with rrc.DefaultConfig().
func NewEvaluator(ds *trace.Dataset, pred *predictor.Predictor, params Params) (*Evaluator, error) {
	return NewEvaluatorWithRadio(ds, pred, params, rrc.DefaultConfig())
}

// NewEvaluatorWithRadio loads every pool page once through each pipeline on
// the given radio backend (the energy-aware pipeline without automatic
// dormancy: in the policy setting the release decision belongs to
// Algorithm 2, not the engine) and prepares the case replays.
func NewEvaluatorWithRadio(ds *trace.Dataset, pred *predictor.Predictor, params Params, spec rrc.ModelSpec) (*Evaluator, error) {
	if ds == nil || len(ds.Visits) == 0 {
		return nil, errors.New("policy: empty dataset")
	}
	if pred == nil {
		return nil, errors.New("policy: nil predictor")
	}
	if spec == nil {
		return nil, errors.New("policy: nil radio spec")
	}
	ev := &Evaluator{
		ds:     ds,
		pred:   pred,
		spec:   spec,
		tail:   spec.Tail(),
		params: params,
		costs:  make(map[string]pageCost, len(ds.Pool)),
		device: gbrt.DefaultDeviceCost(),
	}
	// Each pool page loads on two fresh simulated phones — independent work,
	// run on the worker pool and folded into the cost map in pool order.
	costs, err := runner.Collect(len(ds.Pool), func(i int) (pageCost, error) {
		pp := &ds.Pool[i]
		if pp.Page == nil {
			return pageCost{}, fmt.Errorf("policy: pool page %s has no page body", pp.Name)
		}
		var cost pageCost
		origRes, err := loadOnce(pp, browser.ModeOriginal, spec, nil)
		if err != nil {
			return pageCost{}, fmt.Errorf("load %s original: %w", pp.Name, err)
		}
		cost.origLoadS = origRes.FinalDisplayAt.Seconds()
		cost.origEnergyJ = origRes.TotalEnergyJ()
		cost.origTailS = origRes.LayoutTime().Seconds()
		eaRes, err := loadOnce(pp, browser.ModeEnergyAware, spec, nil)
		if err != nil {
			return pageCost{}, fmt.Errorf("load %s energy-aware: %w", pp.Name, err)
		}
		cost.eaLoadS = eaRes.FinalDisplayAt.Seconds()
		cost.eaEnergyJ = eaRes.TotalEnergyJ()
		cost.eaTailS = eaRes.LayoutTime().Seconds()
		return cost, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range ds.Pool {
		ev.costs[ds.Pool[i].Name] = costs[i]
	}
	return ev, nil
}

// loadOnce loads one pool page to final display on a fresh phone. sched
// attaches a channel schedule to the link; nil is the fixed link.
func loadOnce(pp *trace.PoolPage, mode browser.Mode, spec rrc.ModelSpec, sched *channel.Schedule) (*browser.Result, error) {
	clock := simtime.NewClock()
	radio, err := spec.New(clock)
	if err != nil {
		return nil, err
	}
	link, err := netsim.NewLink(clock, radio, netsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	link.SetChannel(sched)
	var opts []browser.Option
	if mode == browser.ModeEnergyAware {
		opts = append(opts, browser.WithoutAutoDormancy())
	}
	engine, err := browser.NewEngine(clock, radio, link, browser.DefaultCostModel(), mode, opts...)
	if err != nil {
		return nil, err
	}
	var result *browser.Result
	if err := engine.Load(pp.Page, func(r *browser.Result) { result = r }); err != nil {
		return nil, err
	}
	for result == nil {
		if !clock.Step() {
			return nil, errors.New("policy: load stalled")
		}
		if clock.Now() > 30*time.Minute {
			return nil, errors.New("policy: load timed out")
		}
	}
	return result, nil
}

// EvaluateAll replays the trace under the baseline and all six cases.
func (ev *Evaluator) EvaluateAll() ([]CaseResult, error) {
	base, err := ev.replay(CaseOriginal)
	if err != nil {
		return nil, err
	}
	results := make([]CaseResult, 0, len(AllCases)+1)
	results = append(results, base)
	for _, c := range AllCases {
		r, err := ev.replay(c)
		if err != nil {
			return nil, err
		}
		r.PowerSavingPct = (base.EnergyJ - r.EnergyJ) / base.EnergyJ * 100
		r.DelaySavingPct = (base.DelayS - r.DelayS) / base.DelayS * 100
		results = append(results, r)
	}
	return results, nil
}

// Evaluate replays a single case (saving percentages left zero; use
// EvaluateAll for the comparison).
func (ev *Evaluator) Evaluate(c Case) (CaseResult, error) {
	return ev.replay(c)
}

// replay walks every user's visit sequence: per visit it charges the load
// (adjusted for the radio state inherited from the previous visit), decides
// whether the case releases the radio, and charges the reading window.
//
// For the prediction-driven cases every visit that survives the interest
// threshold gets its reading time predicted; those forest walks are batched
// up front (tree-major, cache-friendly) and consumed in visit order, which
// leaves the replay — energy accumulation order included — unchanged.
func (ev *Evaluator) replay(c Case) (CaseResult, error) {
	tp := &ev.tail
	alpha := ev.params.Alpha.Seconds()
	res := CaseResult{Case: c}

	var preds []float64
	if c == CasePredict9 || c == CasePredict20 {
		var vecs []features.Vector
		for _, v := range ev.ds.Visits {
			if v.ReadingSeconds >= alpha {
				vecs = append(vecs, v.Features)
			}
		}
		preds = make([]float64, len(vecs))
		if err := ev.pred.PredictBatchSeconds(vecs, preds); err != nil {
			return CaseResult{}, err
		}
	}

	prevUser := -1
	prevSession := -1
	stage := tp.TerminalIndex()
	for _, v := range ev.ds.Visits {
		cost, ok := ev.costs[v.Page]
		if !ok {
			return CaseResult{}, fmt.Errorf("policy: no cost for page %s", v.Page)
		}
		if v.User != prevUser || v.Session != prevSession {
			// Session boundaries are minutes apart: the radio has idled out.
			stage = tp.TerminalIndex()
			prevUser, prevSession = v.User, v.Session
		}

		loadS, loadJ, tailS := cost.eaLoadS, cost.eaEnergyJ, cost.eaTailS
		if c == CaseOriginal || c == CaseOrigAlwaysOff {
			loadS, loadJ, tailS = cost.origLoadS, cost.origEnergyJ, cost.origTailS
		}
		dt, dj := promoAdjustStage(tp, stage)
		res.DelayS += loadS + dt
		res.EnergyJ += loadJ + dj

		// Decide the release, per Table 6.
		reading := v.ReadingSeconds
		switchAt := -1.0 // no release
		switch c {
		case CaseOriginal:
			// Timers only.
		case CaseOrigAlwaysOff, CaseEAAlwaysOff:
			switchAt = 0
		case CaseAccurate9:
			if reading > 9 {
				switchAt = alpha
			}
		case CaseAccurate20:
			if reading > 20 {
				switchAt = alpha
			}
		case CasePredict9, CasePredict20:
			if reading >= alpha {
				pred := preds[res.Predictions]
				res.Predictions++
				res.EnergyJ += ev.device.PredictionEnergyJ(ev.pred.NumTrees())
				threshold := 9.0
				if c == CasePredict20 {
					threshold = 20
				}
				if pred > threshold {
					switchAt = alpha
				}
			}
		}

		if switchAt >= 0 && switchAt < reading {
			res.EnergyJ += switchedWindowEnergy(tp, tailS, reading, switchAt)
			res.Switches++
			stage = tp.TerminalIndex()
		} else {
			res.EnergyJ += tailEnergy(tp, tailS, reading)
			stage = stageAfter(tp, tailS+reading)
		}
	}
	return res, nil
}
