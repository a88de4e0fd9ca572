package policy

import (
	"errors"
	"fmt"
	"slices"
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

// The trace replay compares release strategies closed-form: every pool page
// is loaded once per pipeline and channel segment (under that segment's
// conditions held constant), and the replay walks the visit stream charging
// cached load costs plus analytic tail arithmetic. On the fixed link it
// replays the Section 5.6.2 / Table 6 cases of Fig. 16. Under a channel
// schedule it replays the scenario matrix: the paper's static thresholds,
// the per-user Adaptive estimator and a greedy counterfactual oracle. There
// each user carries a channel clock that starts at the schedule origin and
// advances through loads, reading windows and session gaps, so consecutive
// visits land on the segments a live phone would see.
//
// The oracle is a true per-visit lower bound over the shared action space
// {hold, release at α}: a page load always drives the radio back to the
// active state, so a window decision's full consequence is its own window
// energy plus the next load's promotion delta — greedy minimization of that
// sum is globally optimal, and the oracle pays no prediction energy.

// Case is one strategy for deciding when the smartphone switches to IDLE:
// a Table 6 case or a scenario policy.
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
	// PolicyStatic is Algorithm 2 with the paper's fixed thresholds.
	PolicyStatic
	// PolicyAdaptive is the per-user recursive threshold estimator.
	PolicyAdaptive
	// PolicyOracle is the greedy counterfactual lower bound.
	PolicyOracle
)

// rules gives each case its printed name, the page-load pipeline it
// replays, and whether it predicts the reading time of every visit that
// survives the interest threshold. The energy-aware pipeline runs without
// automatic dormancy: the release decision belongs to the case under test.
var rules = [...]struct {
	name     string
	mode     browser.Mode
	predicts bool
}{
	CaseOriginal:      {"Original", browser.ModeOriginal, false},
	CaseOrigAlwaysOff: {"Original Always-off", browser.ModeOriginal, false},
	CaseEAAlwaysOff:   {"Energy-Aware Always-off", browser.ModeEnergyAware, false},
	CaseAccurate9:     {"Accurate-9", browser.ModeEnergyAware, false},
	CasePredict9:      {"Predict-9", browser.ModeEnergyAware, true},
	CaseAccurate20:    {"Accurate-20", browser.ModeEnergyAware, false},
	CasePredict20:     {"Predict-20", browser.ModeEnergyAware, true},
	PolicyStatic:      {"static", browser.ModeEnergyAware, true},
	PolicyAdaptive:    {"adaptive", browser.ModeEnergyAware, true},
	PolicyOracle:      {"oracle", browser.ModeEnergyAware, false},
}

func (c Case) valid() bool { return c >= CaseOriginal && int(c) < len(rules) }

// String names the case as in Table 6, or the scenario policy as the
// scenario matrix prints it.
func (c Case) String() string {
	if !c.valid() {
		return fmt.Sprintf("Case(%d)", int(c))
	}
	return rules[c].name
}

// Table6Cases lists the baseline and the six evaluated strategies of
// Fig. 16, in Table 6 order.
var Table6Cases = []Case{
	CaseOriginal,
	CaseOrigAlwaysOff, CaseEAAlwaysOff,
	CaseAccurate9, CasePredict9,
	CaseAccurate20, CasePredict20,
}

// ScenarioPolicies lists the scenario policies in evaluation order.
var ScenarioPolicies = []Case{PolicyStatic, PolicyAdaptive, PolicyOracle}

// ScenarioSessionGap is the channel time charged between sessions of one
// user: long enough for any radio tail to idle out, and deliberately not a
// multiple of the built-in scenario cycles so successive sessions start at
// varied channel phases.
const ScenarioSessionGap = 247 * time.Second

// CaseResult is one case replayed over the whole trace: a bar pair of
// Fig. 16 or a cell of the scenario matrix.
type CaseResult struct {
	Case Case
	// EnergyJ is total browsing energy over the whole trace.
	EnergyJ float64
	// DelayS is total page-loading delay (including promotion penalties
	// inherited from a too-eager release).
	DelayS float64
	// PowerSavingPct and DelaySavingPct are relative to CaseOriginal; only
	// EvaluateAll on the fixed link sets them.
	PowerSavingPct float64
	DelaySavingPct float64
	// Switches counts forced releases; Predictions counts GBRT evaluations.
	Switches    int
	Predictions int
}

// loadCost caches one pool page's load through one pipeline under one
// channel segment.
type loadCost struct {
	loadS   float64
	energyJ float64
	tailS   float64 // page-open time minus last-transfer time
}

// Evaluator replays a browsing trace under each case.
type Evaluator struct {
	ds     *trace.Dataset
	pred   *predictor.Predictor
	tail   rrc.TailProfile
	params Params
	acfg   AdaptiveConfig
	// sched is the channel schedule; nil is the fixed link, one segment.
	sched *channel.Schedule
	nseg  int
	// modes lists the loaded pipelines; costs[(m*len(ds.Pool)+p)*nseg+s] is
	// pool page p loaded through modes[m] under segment s.
	modes  []browser.Mode
	costs  []loadCost
	pool   map[string]int
	device gbrt.DeviceCost
}

// NewEvaluator prepares the replay of the trace on the given radio backend.
// A nil sched is the fixed link, on which EvaluateAll replays the Table 6
// cases; under a channel schedule it replays the scenario policies. Every
// pool page is loaded once per segment through each pipeline those cases
// use.
func NewEvaluator(ds *trace.Dataset, pred *predictor.Predictor, params Params,
	spec rrc.ModelSpec, sched *channel.Schedule) (*Evaluator, error) {
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
		tail:   spec.Tail(),
		params: params,
		acfg:   DefaultAdaptiveConfig(params),
		sched:  sched,
		nseg:   1,
		pool:   make(map[string]int, len(ds.Pool)),
		device: gbrt.DefaultDeviceCost(),
	}
	if sched != nil {
		ev.nseg = sched.NumSegments()
	}
	for _, c := range ev.cases() {
		if !slices.Contains(ev.modes, rules[c].mode) {
			ev.modes = append(ev.modes, rules[c].mode)
		}
	}
	// Each load runs on a fresh simulated phone — independent work, run on
	// the worker pool and folded into the cost table in index order.
	npool, nseg := len(ds.Pool), ev.nseg
	costs, err := runner.Collect(len(ev.modes)*npool*nseg, func(i int) (loadCost, error) {
		mode, pp, seg := ev.modes[i/(npool*nseg)], &ds.Pool[i/nseg%npool], i%nseg
		if pp.Page == nil {
			return loadCost{}, fmt.Errorf("policy: pool page %s has no page body", pp.Name)
		}
		var cond *channel.Schedule
		if sched != nil {
			c, err := channel.Constant(sched.Name(), sched.Segment(seg).Cond)
			if err != nil {
				return loadCost{}, err
			}
			cond = c
		}
		res, err := loadOnce(pp, mode, spec, cond)
		if err != nil {
			return loadCost{}, fmt.Errorf("load %s %v, segment %d: %w", pp.Name, mode, seg, err)
		}
		return loadCost{
			loadS:   res.FinalDisplayAt.Seconds(),
			energyJ: res.TotalEnergyJ(),
			tailS:   res.LayoutTime().Seconds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	ev.costs = costs
	for i := range ds.Pool {
		ev.pool[ds.Pool[i].Name] = i
	}
	return ev, nil
}

// cases lists what EvaluateAll replays.
func (ev *Evaluator) cases() []Case {
	if ev.sched == nil {
		return Table6Cases
	}
	return ScenarioPolicies
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

// EvaluateAll replays the trace under each case in order: on the fixed link
// the baseline and the six Table 6 cases, with savings relative to the
// baseline; under a channel schedule the scenario policies.
func (ev *Evaluator) EvaluateAll() ([]CaseResult, error) {
	cases := ev.cases()
	results := make([]CaseResult, 0, len(cases))
	for _, c := range cases {
		r, err := ev.Evaluate(c)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	if ev.sched == nil {
		base := results[0]
		for i := 1; i < len(results); i++ {
			r := &results[i]
			r.PowerSavingPct = (base.EnergyJ - r.EnergyJ) / base.EnergyJ * 100
			r.DelaySavingPct = (base.DelayS - r.DelayS) / base.DelayS * 100
		}
	}
	return results, nil
}

// Evaluate walks every user's visit sequence under one case: per visit it
// charges the load (adjusted for the radio state inherited from the
// previous visit), decides whether the case releases the radio, and charges
// the reading window. Saving percentages are left zero; use EvaluateAll for
// the comparison.
//
// For the prediction-driven cases every visit that survives the interest
// threshold gets its reading time predicted; those forest walks are batched
// up front (tree-major, cache-friendly) and consumed in visit order. The
// replay is strictly sequential in visit order, so results are
// byte-identical at any worker count.
func (ev *Evaluator) Evaluate(c Case) (CaseResult, error) {
	if !c.valid() {
		return CaseResult{}, fmt.Errorf("policy: unknown case %v", c)
	}
	rule := rules[c]
	m := slices.Index(ev.modes, rule.mode)
	if m < 0 {
		return CaseResult{}, fmt.Errorf("policy: %v replays the %v pipeline, which this evaluator did not load", c, rule.mode)
	}
	n := len(ev.ds.Pool) * ev.nseg
	costs := ev.costs[m*n : (m+1)*n]
	tp := &ev.tail
	alpha := ev.params.Alpha.Seconds()
	visits := ev.ds.Visits
	res := CaseResult{Case: c}

	var preds []float64
	if rule.predicts {
		var vecs []features.Vector
		for _, v := range visits {
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
	var chT time.Duration // this user's position on the channel timeline
	var adaptive *Adaptive
	for i := range visits {
		v := &visits[i]
		if v.User != prevUser {
			// A fresh user starts a fresh phone at the schedule origin.
			stage = tp.TerminalIndex()
			chT = 0
			if c == PolicyAdaptive {
				a, err := NewAdaptive(ev.acfg, ev.tail)
				if err != nil {
					return CaseResult{}, err
				}
				adaptive = a
			}
			prevUser, prevSession = v.User, v.Session
		} else if v.Session != prevSession {
			// Session boundaries are minutes apart: the radio has idled out
			// and the channel has moved on.
			stage = tp.TerminalIndex()
			chT += ScenarioSessionGap
			prevSession = v.Session
		}
		// nextSame: the next visit continues this user session, so a
		// release here shifts promotion cost onto a real next load. Without
		// one the radio idles out across the session gap either way and the
		// decision's consequence is the window energy alone.
		nextSame := i+1 < len(visits) &&
			visits[i+1].User == v.User && visits[i+1].Session == v.Session

		pi, ok := ev.pool[v.Page]
		if !ok {
			return CaseResult{}, fmt.Errorf("policy: no cost for page %s", v.Page)
		}
		seg := 0
		if ev.sched != nil {
			seg = ev.sched.SegmentIndexAt(chT)
		}
		cost := costs[pi*ev.nseg+seg]
		dt, dj := promoAdjustStage(tp, stage)
		res.DelayS += cost.loadS + dt
		res.EnergyJ += cost.energyJ + dj
		// The channel clock advances by the baseline (cold-start) load time,
		// not the promo-adjusted one: segment lookups must not depend on
		// earlier release decisions, or the cases would replay different
		// cost streams and the greedy oracle would lose its lower-bound
		// property to cross-visit channel coupling.
		chT += time.Duration(cost.loadS * float64(time.Second))

		reading := v.ReadingSeconds
		predicted := rule.predicts && reading >= alpha
		var pred float64
		if predicted {
			pred = preds[res.Predictions]
			res.Predictions++
			res.EnergyJ += ev.device.PredictionEnergyJ(ev.pred.NumTrees())
		}
		predD := time.Duration(pred * float64(time.Second))

		// Decide the release.
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
		case CasePredict9:
			if predicted && pred > 9 {
				switchAt = alpha
			}
		case CasePredict20:
			if predicted && pred > 20 {
				switchAt = alpha
			}
		case PolicyStatic:
			if predicted && Evaluate(predD, ev.params).Switch {
				switchAt = alpha
			}
		case PolicyAdaptive:
			if predicted && adaptive.Decide(predD).Switch {
				switchAt = alpha
			}
		case PolicyOracle:
			// Greedy per-visit minimum of window energy plus the promotion
			// delta the decision shifts onto the next load: releasing means
			// that load starts cold instead of from the held tail stage.
			if reading > alpha {
				holdJ := tailEnergy(tp, cost.tailS, reading)
				relJ := switchedWindowEnergy(tp, cost.tailS, reading, alpha)
				if nextSame {
					relJ += coldPromoExtraJ(tp, stageAfter(tp, cost.tailS+reading))
				}
				if relJ < holdJ {
					switchAt = alpha
				}
			}
		}

		if switchAt >= 0 && switchAt < reading {
			wJ := switchedWindowEnergy(tp, cost.tailS, reading, switchAt)
			res.EnergyJ += wJ
			res.Switches++
			if c == PolicyAdaptive {
				heldStage := tp.TerminalIndex() // no next load: no promo shift
				if nextSame {
					heldStage = stageAfter(tp, cost.tailS+reading)
				}
				adaptive.ObserveRelease(wJ, reading, heldStage)
			}
			stage = tp.TerminalIndex()
		} else {
			wJ := tailEnergy(tp, cost.tailS, reading)
			res.EnergyJ += wJ
			if c == PolicyAdaptive && reading >= alpha {
				adaptive.ObserveHold(wJ, reading)
			}
			stage = stageAfter(tp, cost.tailS+reading)
		}
		chT += time.Duration(reading * float64(time.Second))
	}
	return res, nil
}
