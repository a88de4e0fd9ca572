package policy

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/channel"
	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/predictor"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
	"eabrowse/internal/trace"
)

// The scenario evaluator replays a browsing trace under a time-varying
// channel three ways: the paper's static thresholds, the per-user Adaptive
// estimator, and a greedy counterfactual oracle. Like the six-case Evaluator
// it is closed-form: every pool page is loaded once per channel segment
// (under that segment's conditions held constant), and the replay walks the
// visit stream charging cached load costs plus analytic tail arithmetic.
// Each user carries a channel clock that starts at the schedule origin and
// advances through loads, reading windows and session gaps, so consecutive
// visits land on the segments a live phone would see.
//
// The oracle is a true per-visit lower bound over the shared action space
// {hold, release at α}: a page load always drives the radio back to the
// active state, so a window decision's full consequence is its own window
// energy plus the next load's promotion delta — greedy minimization of that
// sum is globally optimal, and the oracle pays no prediction energy.

// ScenarioPolicy selects a release policy for the scenario replay.
type ScenarioPolicy int

const (
	// PolicyStatic is Algorithm 2 with the paper's fixed thresholds.
	PolicyStatic ScenarioPolicy = iota + 1
	// PolicyAdaptive is the per-user recursive threshold estimator.
	PolicyAdaptive
	// PolicyOracle is the greedy counterfactual lower bound.
	PolicyOracle
)

// String names the policy.
func (p ScenarioPolicy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyOracle:
		return "oracle"
	default:
		return fmt.Sprintf("ScenarioPolicy(%d)", int(p))
	}
}

// ScenarioPolicies lists the replay policies in evaluation order.
var ScenarioPolicies = []ScenarioPolicy{PolicyStatic, PolicyAdaptive, PolicyOracle}

// ScenarioPolicyNames returns the valid policy names, in evaluation order.
func ScenarioPolicyNames() []string {
	names := make([]string, len(ScenarioPolicies))
	for i, p := range ScenarioPolicies {
		names[i] = p.String()
	}
	return names
}

// ScenarioPolicyByName resolves a policy name; unknown names fail with the
// valid-name list.
func ScenarioPolicyByName(name string) (ScenarioPolicy, error) {
	for _, p := range ScenarioPolicies {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown scenario policy %q (have: %s)",
		name, strings.Join(ScenarioPolicyNames(), ", "))
}

// ScenarioSessionGap is the channel time charged between sessions of one
// user: long enough for any radio tail to idle out, and deliberately not a
// multiple of the built-in scenario cycles so successive sessions start at
// varied channel phases.
const ScenarioSessionGap = 247 * time.Second

// ScenarioResult is one cell of the scenario×policy matrix.
type ScenarioResult struct {
	Scenario string
	Policy   ScenarioPolicy
	// EnergyJ is total browsing energy over the whole trace; DelayS is the
	// total page-load delay including promotion penalties.
	EnergyJ float64
	DelayS  float64
	// Switches counts forced releases; Predictions counts GBRT evaluations
	// (zero for the oracle).
	Switches    int
	Predictions int
}

// segCost caches one pool page's energy-aware load under one channel
// segment's conditions.
type segCost struct {
	loadS   float64
	energyJ float64
	tailS   float64
}

// ScenarioEvaluator replays a trace under one channel schedule.
type ScenarioEvaluator struct {
	ds     *trace.Dataset
	pred   *predictor.Predictor
	tail   rrc.TailProfile
	params Params
	acfg   AdaptiveConfig
	sched  *channel.Schedule
	// costs[p*numSegments+s] is pool page p loaded under segment s.
	costs  []segCost
	pool   map[string]int
	device gbrt.DeviceCost
}

// NewScenarioEvaluator loads every pool page once per channel segment of the
// schedule (energy-aware pipeline, automatic dormancy off — the release
// decision belongs to the policy under test) on the given radio backend.
func NewScenarioEvaluator(ds *trace.Dataset, pred *predictor.Predictor, params Params,
	spec rrc.ModelSpec, sched *channel.Schedule) (*ScenarioEvaluator, error) {
	if ds == nil || len(ds.Visits) == 0 {
		return nil, errors.New("policy: empty dataset")
	}
	if pred == nil {
		return nil, errors.New("policy: nil predictor")
	}
	if spec == nil {
		return nil, errors.New("policy: nil radio spec")
	}
	if sched == nil {
		return nil, errors.New("policy: nil channel schedule")
	}
	ev := &ScenarioEvaluator{
		ds:     ds,
		pred:   pred,
		tail:   spec.Tail(),
		params: params,
		acfg:   DefaultAdaptiveConfig(params),
		sched:  sched,
		device: gbrt.DefaultDeviceCost(),
	}
	nseg := sched.NumSegments()
	costs, err := runner.Collect(len(ds.Pool)*nseg, func(i int) (segCost, error) {
		pp := &ds.Pool[i/nseg]
		if pp.Page == nil {
			return segCost{}, fmt.Errorf("policy: pool page %s has no page body", pp.Name)
		}
		cond, err := channel.Constant(sched.Name(), sched.Segment(i%nseg).Cond)
		if err != nil {
			return segCost{}, err
		}
		res, err := loadOnce(pp, browser.ModeEnergyAware, spec, cond)
		if err != nil {
			return segCost{}, fmt.Errorf("load %s under %s segment %d: %w",
				pp.Name, sched.Name(), i%nseg, err)
		}
		return segCost{
			loadS:   res.FinalDisplayAt.Seconds(),
			energyJ: res.TotalEnergyJ(),
			tailS:   res.LayoutTime().Seconds(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	ev.costs = costs
	ev.pool = make(map[string]int, len(ds.Pool))
	for i := range ds.Pool {
		ev.pool[ds.Pool[i].Name] = i
	}
	return ev, nil
}

// EvaluateAll replays the trace under every scenario policy.
func (ev *ScenarioEvaluator) EvaluateAll() ([]ScenarioResult, error) {
	results := make([]ScenarioResult, 0, len(ScenarioPolicies))
	for _, p := range ScenarioPolicies {
		r, err := ev.Evaluate(p)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}

// Evaluate replays the trace under one policy. The replay is strictly
// sequential in visit order (predictions are batched up front and consumed
// in order), so results are byte-identical at any worker count.
func (ev *ScenarioEvaluator) Evaluate(p ScenarioPolicy) (ScenarioResult, error) {
	tp := &ev.tail
	alpha := ev.params.Alpha.Seconds()
	nseg := ev.sched.NumSegments()
	res := ScenarioResult{Scenario: ev.sched.Name(), Policy: p}

	// Batch the forest walks for the prediction-driven policies.
	var preds []float64
	if p == PolicyStatic || p == PolicyAdaptive {
		var vecs []features.Vector
		for _, v := range ev.ds.Visits {
			if v.ReadingSeconds >= alpha {
				vecs = append(vecs, v.Features)
			}
		}
		preds = make([]float64, len(vecs))
		if err := ev.pred.PredictBatchSeconds(vecs, preds); err != nil {
			return ScenarioResult{}, err
		}
	}

	// nextSame[i]: visit i+1 continues the same user session, so a release
	// at visit i shifts promotion cost onto a real next load. Without one
	// the radio idles out across the session gap either way and the
	// decision's consequence is the window energy alone.
	nextSame := make([]bool, len(ev.ds.Visits))
	for i := 0; i+1 < len(ev.ds.Visits); i++ {
		nextSame[i] = ev.ds.Visits[i+1].User == ev.ds.Visits[i].User &&
			ev.ds.Visits[i+1].Session == ev.ds.Visits[i].Session
	}

	prevUser := -1
	prevSession := -1
	stage := tp.TerminalIndex()
	var chT time.Duration // this user's position on the channel timeline
	var adaptive *Adaptive
	for i := range ev.ds.Visits {
		v := &ev.ds.Visits[i]
		if v.User != prevUser {
			// A fresh user starts a fresh phone at the schedule origin.
			stage = tp.TerminalIndex()
			chT = 0
			if p == PolicyAdaptive {
				a, err := NewAdaptive(ev.acfg, ev.tail)
				if err != nil {
					return ScenarioResult{}, err
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

		pi, ok := ev.pool[v.Page]
		if !ok {
			return ScenarioResult{}, fmt.Errorf("policy: no cost for page %s", v.Page)
		}
		cost := ev.costs[pi*nseg+ev.sched.SegmentIndexAt(chT)]
		dt, dj := promoAdjustStage(tp, stage)
		res.DelayS += cost.loadS + dt
		res.EnergyJ += cost.energyJ + dj
		// The channel clock advances by the baseline (cold-start) load time,
		// not the promo-adjusted one: segment lookups must not depend on
		// earlier release decisions, or the policies would replay different
		// cost streams and the greedy oracle would lose its lower-bound
		// property to cross-visit channel coupling.
		chT += time.Duration(cost.loadS * float64(time.Second))

		reading := v.ReadingSeconds
		switchAt := -1.0 // no release
		switch p {
		case PolicyStatic, PolicyAdaptive:
			if reading >= alpha {
				pred := preds[res.Predictions]
				res.Predictions++
				res.EnergyJ += ev.device.PredictionEnergyJ(ev.pred.NumTrees())
				predD := time.Duration(pred * float64(time.Second))
				var d Decision
				if p == PolicyStatic {
					d = Evaluate(predD, ev.params)
				} else {
					d = adaptive.Decide(predD)
				}
				if d.Switch {
					switchAt = alpha
				}
			}
		case PolicyOracle:
			// Greedy per-visit minimum of window energy plus the promotion
			// delta the decision shifts onto the next load: releasing means
			// that load starts cold instead of from the held tail stage.
			if reading > alpha {
				holdJ := tailEnergy(tp, cost.tailS, reading)
				relJ := switchedWindowEnergy(tp, cost.tailS, reading, alpha)
				if nextSame[i] {
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
			if p == PolicyAdaptive {
				heldStage := tp.TerminalIndex() // no next load: no promo shift
				if nextSame[i] {
					heldStage = stageAfter(tp, cost.tailS+reading)
				}
				adaptive.ObserveRelease(wJ, reading, heldStage)
			}
			stage = tp.TerminalIndex()
		} else {
			wJ := tailEnergy(tp, cost.tailS, reading)
			res.EnergyJ += wJ
			if p == PolicyAdaptive && reading >= alpha {
				adaptive.ObserveHold(wJ, reading)
			}
			stage = stageAfter(tp, cost.tailS+reading)
		}
		chT += time.Duration(reading * float64(time.Second))
	}
	return res, nil
}
