package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/capacity"
	"eabrowse/internal/channel"
	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/obs"
	"eabrowse/internal/policy"
	"eabrowse/internal/predictor"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

// Fleet population and duration bounds, enforced by FleetConfig.Validate.
// The ceiling keeps a mistyped flag from committing the process to days of
// simulation. The counted-multiplicity replay handles 2M users in minutes on
// one core (visits beyond the first per (template, reading-bucket) cell are
// one int64 increment), so the bound sits an order of magnitude above the
// paper's million-user framing rather than at the old per-visit-replay limit
// of 200k.
const (
	MinFleetUsers        = 1
	MaxFleetUsers        = 2_000_000
	MaxFleetHoursPerUser = 24.0
)

// FleetConfig sizes the fleet replay.
type FleetConfig struct {
	// Users is the fleet population (each user is one simulated phone).
	Users int
	// HoursPerUser is how much browsing each user's trace covers.
	HoursPerUser float64
	// Seed makes the fleet trace reproducible.
	Seed int64
	// Radio names the radio profile every phone runs ("umts", "lte", "nr").
	// Empty means the session default (see SetDefaultRadioProfile).
	Radio string
	// RadioMix assigns profiles across the fleet, e.g. "umts:0.6,lte:0.4":
	// each user is drawn one profile, deterministically in (Seed, user).
	// Mutually exclusive with Radio.
	RadioMix string
	// Channel names a built-in channel scenario (see channel.Scenarios) every
	// phone browses through; its clock starts at each user's first visit and
	// advances with the user's browsing. Empty means a fixed ideal link —
	// exactly the pre-channel fleet, bit for bit.
	Channel string
	// Policy selects the energy-aware release rule: "static" (the paper's
	// fixed thresholds, the default) or "adaptive" (a per-user recursive
	// threshold estimator, see policy.Adaptive).
	Policy string
	// Progress, when non-nil, is called after each shard finishes with the
	// number of completed shards and the shard total. Calls are serialized
	// but may come from any worker goroutine. It does not affect the replay
	// (eabench wires it to stderr under -timing so long fleets aren't
	// silent).
	Progress func(done, total int) `json:"-"`
}

// DefaultFleetConfig replays a 300-phone fleet for a quarter hour each.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{Users: 300, HoursPerUser: 0.25, Seed: 20130709}
}

// Validate checks the configuration against the documented bounds.
func (c FleetConfig) Validate() error {
	if c.Users < MinFleetUsers || c.Users > MaxFleetUsers {
		return fmt.Errorf("fleet: users = %d out of range [%d, %d]",
			c.Users, MinFleetUsers, MaxFleetUsers)
	}
	if !(c.HoursPerUser > 0) || c.HoursPerUser > MaxFleetHoursPerUser {
		return fmt.Errorf("fleet: hours per user = %g out of range (0, %g]",
			c.HoursPerUser, MaxFleetHoursPerUser)
	}
	if _, err := c.fleetRadios(); err != nil {
		return err
	}
	if _, err := c.fleetChannel(); err != nil {
		return err
	}
	if _, err := c.fleetAdaptive(); err != nil {
		return err
	}
	return nil
}

// fleetChannel resolves the optional channel scenario (nil when unset).
func (c FleetConfig) fleetChannel() (*channel.Schedule, error) {
	if c.Channel == "" {
		return nil, nil
	}
	sched, err := channel.ScenarioSchedule(c.Channel)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return sched, nil
}

// fleetAdaptive resolves the policy selection to "run adaptive?".
func (c FleetConfig) fleetAdaptive() (bool, error) {
	switch c.Policy {
	case "", "static":
		return false, nil
	case "adaptive":
		return true, nil
	default:
		return false, fmt.Errorf("fleet: unknown policy %q (have: adaptive, static)", c.Policy)
	}
}

// policyName is the resolved policy for FleetResult.Policy.
func (c FleetConfig) policyName() string {
	if c.Policy == "" {
		return "static"
	}
	return c.Policy
}

// fleetRadio is one resolved radio profile of the fleet: its position in
// the resolved list (the radio part of a template id), the spec that mints
// phones, the precomputed tail its analytic cursors replay on, the drain
// window that settles it between sessions, and the cumulative mix weight
// used for the per-user draw (user u runs the first radio whose cum exceeds
// the user's draw).
type fleetRadio struct {
	idx    int
	name   string
	spec   rrc.ModelSpec
	tail   rrc.TailProfile
	drain  time.Duration
	weight float64
	cum    float64
}

// newFleetRadio resolves one profile. Its drain spans the whole tail, or an
// in-flight forced release if that is longer, plus a second, so a session
// break always settles the radio: the folded replay relies on it.
func newFleetRadio(spec rrc.ModelSpec) fleetRadio {
	tail := spec.Tail()
	return fleetRadio{
		name:   spec.Profile(),
		spec:   spec,
		tail:   tail,
		drain:  max(tail.TotalDwell(), tail.ReleaseDelay) + time.Second,
		weight: 1,
		cum:    1,
	}
}

// parseRadioMix parses a "name:weight,name:weight" mix into resolved radios
// with normalized cumulative weights. Entry order follows the mix string,
// so equal strings produce identical per-user assignments.
func parseRadioMix(mix string) ([]fleetRadio, error) {
	parts := strings.Split(mix, ",")
	out := make([]fleetRadio, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	total := 0.0
	for _, part := range parts {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("fleet: radio mix entry %q is not name:weight", strings.TrimSpace(part))
		}
		name = strings.TrimSpace(name)
		spec, err := rrc.ProfileSpec(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: radio mix lists %q twice", name)
		}
		seen[name] = true
		w, err := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
		if err != nil || !(w > 0) || w > 1e9 {
			return nil, fmt.Errorf("fleet: radio mix weight %q for %s must be a positive number", strings.TrimSpace(weightStr), name)
		}
		fr := newFleetRadio(spec)
		fr.weight = w
		out = append(out, fr)
		total += w
	}
	cum := 0.0
	for i := range out {
		out[i].weight /= total
		cum += out[i].weight
		out[i].cum = cum
	}
	// Draws are in [0, 1); pin the last bound so rounding can't strand one.
	out[len(out)-1].cum = 1
	return out, nil
}

// fleetRadios resolves the configured radio selection: an explicit mix, a
// single named profile, or the session default.
func (c FleetConfig) fleetRadios() ([]fleetRadio, error) {
	switch {
	case c.RadioMix != "":
		if c.Radio != "" {
			return nil, fmt.Errorf("fleet: Radio %q and RadioMix %q are mutually exclusive", c.Radio, c.RadioMix)
		}
		return parseRadioMix(c.RadioMix)
	case c.Radio != "":
		spec, err := rrc.ProfileSpec(c.Radio)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		return []fleetRadio{newFleetRadio(spec)}, nil
	default:
		return []fleetRadio{newFleetRadio(DefaultRadioSpec())}, nil
	}
}

// describeRadios renders the resolved selection for FleetResult.Radio.
func describeRadios(radios []fleetRadio) string {
	if len(radios) == 1 {
		return radios[0].name
	}
	var b strings.Builder
	for i := range radios {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%.2f", radios[i].name, radios[i].weight)
	}
	return b.String()
}

// FleetModeStats aggregates one pipeline's behaviour across the fleet.
type FleetModeStats struct {
	Mode browser.Mode
	// EnergyJ is total radio+CPU energy across every phone.
	EnergyJ float64
	// MeanEnergyPerUserJ is EnergyJ / users.
	MeanEnergyPerUserJ float64
	// MeanTransmissionS is the mean per-visit data-transmission time — the
	// channel-hold time the capacity model charges.
	MeanTransmissionS float64
	// SupportedAt2Pct is the capacity boundary at 2% dropping with this
	// pipeline's transmission times, as capacity.SupportedUsersDist's search
	// meets it (see its doc).
	SupportedAt2Pct int
	// DropPctAtFleet is the dropping probability at the fleet's own size.
	DropPctAtFleet float64
	// VisitEnergyP50J/P95J/P99J are percentiles of the per-visit energy
	// distribution, estimated from the merged shard sketches (so they carry
	// the sketch's quantile error bound, not association-exact values). A
	// visit's energy is its load plus the reading-window radio walk, with the
	// prediction cost included when a prediction ran; session-break drains are
	// excluded — they belong to the idle gap between sessions, not to a visit.
	VisitEnergyP50J float64
	VisitEnergyP95J float64
	VisitEnergyP99J float64
	// Switches counts Algorithm 2's forced releases; Predictions counts GBRT
	// evaluations; PredictionEnergyJ is their Table 7 cost (already included
	// in EnergyJ). All zero for the original pipeline.
	Switches          int
	Predictions       int
	PredictionEnergyJ float64
}

// FleetResult compares the two pipelines over the same fleet trace.
type FleetResult struct {
	Users  int
	Visits int
	// TraceHours is the per-user browsing time replayed.
	TraceHours float64
	// Radio describes the resolved radio selection: a single profile name,
	// or a normalized "name:weight,…" list for mixed-RAN fleets.
	Radio string
	// Channel is the channel scenario replayed ("" for a fixed ideal link);
	// Policy is the energy-aware release rule ("static" or "adaptive").
	Channel  string
	Policy   string
	Original FleetModeStats
	Aware    FleetModeStats
	// EnergySavingPct is the fleet-wide energy saving.
	EnergySavingPct float64
	// CapacityGainPct is the Fig. 11-style capacity gain at 2% dropping.
	CapacityGainPct float64
}

// fleetShards bounds both the aggregation memory and the merge cost: each
// shard replays a contiguous user range into one accumulator, so peak state
// is O(shards), independent of the fleet size.
const fleetShards = 64

// fleetSketchBudget is the centroid budget of the per-shard and merged
// transmission-time sketches. Distinct values are normally bounded by the
// template population, but delayed-release loads contribute one distinct
// shifted value each, so the sketch compresses when a fleet produces more.
// A var (not const) so equivalence tests can raise it to force exact mode.
var fleetSketchBudget = 512

// FleetShardCount returns how many shards a fleet of this size replays
// (shard indices are 0..count-1). Exposed so multi-process coordinators can
// split the shard range across workers.
func FleetShardCount(cfg FleetConfig) int {
	if cfg.Users < fleetShards {
		return cfg.Users
	}
	return fleetShards
}

// FleetShardResult is one shard's accumulated replay outcome: counters,
// energies, the two transmission-time sketches and the two per-visit energy
// sketches. Shards are pure functions of (config, shard index), so any
// process can compute any shard and a coordinator can merge them in shard
// order with FleetFromShards.
type FleetShardResult struct {
	Shard       int
	Visits      int64
	Switches    int64
	Predictions int64
	OrigJ       float64
	AwareJ      float64
	PredJ       float64
	OrigTrans   *stats.Sketch
	AwareTrans  *stats.Sketch
	// OrigVisitJ/AwareVisitJ hold one observation per visit: the visit's
	// energy (load + reading-window walk + prediction cost when one ran,
	// session-break drains excluded). They feed the fleet-wide per-visit
	// energy percentiles.
	OrigVisitJ  *stats.Sketch
	AwareVisitJ *stats.Sketch
}

func (s *FleetShardResult) fold(o userOutcome) {
	s.Visits += int64(o.visits)
	s.Switches += int64(o.switches)
	s.Predictions += int64(o.predictions)
	s.OrigJ += o.origJ
	s.AwareJ += o.awareJ
	s.PredJ += o.predJ
}

// userOutcome is one phone's replay under both pipelines. Transmission
// times go straight into the shard sketches instead of riding here.
type userOutcome struct {
	visits      int
	switches    int
	predictions int
	origJ       float64
	awareJ      float64
	predJ       float64
}

// Fleet replays a fleet-scale browsing trace, one simulated phone per user
// per pipeline, and reports aggregate energy and cell capacity. The
// energy-aware phones run Algorithm 2 end to end: load, wait the interest
// threshold α, predict the reading time with the shared trained GBRT, force
// the radio dormant when the prediction clears the delay-driven threshold,
// and pay the Table 7 prediction cost for every evaluation.
//
// Users are generated on demand from independent per-user random streams
// (trace.Stream) and replayed in fixed-size shards of contiguous user
// ranges, so memory stays O(shards) while populations scale to 100k+. Shard
// accumulators merge in shard order, making the result byte-identical at
// any worker count.
//
// Two replay engines produce the numbers:
//
//   - Untraced runs use precomputed visit templates: each distinct (page,
//     pipeline, radio profile, start stage, channel segment) combination is
//     simulated once on a real phone, and every further visit replays the
//     cached load outcome with a closed-form radio walk through the reading
//     window. This is exact up to floating-point association: the load
//     evolution depends only on the template key (the first fetch disarms
//     the inactivity timers at t=0), and between loads the radio follows
//     the deterministic DCH→(T1)→FACH→(T2)→IDLE decay that the cursor
//     mirrors. The channel segment is the one exception — a load is held at
//     the conditions of the segment it starts in (the epoch approximation,
//     measured in EXPERIMENTS.md).
//   - Tracing runs (obs enabled) simulate every phone in full so the event
//     stream is complete; they agree with the template engine to
//     floating-point tolerance and are meant for small fleets.
func Fleet(cfg FleetConfig) (*FleetResult, error) {
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		return nil, err
	}
	outs, err := rt.runShards(cfg, 0, FleetShardCount(cfg))
	if err != nil {
		return nil, err
	}
	return FleetFromShards(cfg, outs)
}

// RunFleetShards replays shards [lo, hi) of the fleet and returns their
// accumulators. It is the worker half of the multi-process mode: each worker
// builds its own runtime (template cache, predictor) for its contiguous
// shard range, and the coordinator merges the results with FleetFromShards.
// Because each shard is a pure function of (config, shard index), the merge
// is byte-identical to a single-process run.
func RunFleetShards(cfg FleetConfig, lo, hi int) ([]FleetShardResult, error) {
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		return nil, err
	}
	return rt.runShards(cfg, lo, hi)
}

// newFleetRuntime validates the config and builds the shared read-only
// replay state: the streaming trace, the deployed predictor, the resolved
// radios and channel segmentation.
func newFleetRuntime(cfg FleetConfig) (*fleetRuntime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tcfg := trace.DefaultConfig()
	tcfg.Users = cfg.Users
	tcfg.HoursPerUser = cfg.HoursPerUser
	tcfg.Seed = cfg.Seed
	stream, err := trace.NewStream(tcfg)
	if err != nil {
		return nil, fmt.Errorf("fleet trace: %w", err)
	}
	// The predictor is trained offline on the default collection trace and
	// deployed to every phone — the paper's deployment model.
	pred, err := TrainedPredictor(true)
	if err != nil {
		return nil, err
	}

	radios, err := cfg.fleetRadios()
	if err != nil {
		return nil, err
	}
	sched, err := cfg.fleetChannel()
	if err != nil {
		return nil, err
	}
	adaptive, err := cfg.fleetAdaptive()
	if err != nil {
		return nil, err
	}
	rt := &fleetRuntime{
		stream:   stream,
		pool:     stream.Pool(),
		pred:     pred,
		params:   policy.DefaultParams(),
		device:   gbrt.DefaultDeviceCost(),
		radios:   radios,
		mixSeed:  cfg.Seed,
		sched:    sched,
		adaptive: adaptive,
		traced:   obs.Default() != nil,
	}
	rt.predVisitJ = rt.device.PredictionEnergyJ(pred.NumTrees())
	rt.transThr = pred.SplitThresholds(features.TransmissionTime)
	rt.acfg = policy.DefaultAdaptiveConfig(rt.params)
	rt.folded = !rt.traced && !rt.adaptive && !fleetFoldOff
	if sched != nil {
		// One constant schedule per segment: a load replayed from a template
		// sees the conditions of the segment its user's channel clock is in
		// at load start, held for the whole load (the epoch approximation;
		// tracing runs shape every transfer against the full schedule).
		rt.segScheds = make([]*channel.Schedule, sched.NumSegments())
		for i := range rt.segScheds {
			cs, err := channel.Constant(fmt.Sprintf("%s#%d", sched.Name(), i), sched.Segment(i).Cond)
			if err != nil {
				return nil, fmt.Errorf("fleet channel: %w", err)
			}
			rt.segScheds[i] = cs
		}
	}
	for i := range radios {
		radios[i].idx = i
		rt.tmplStages = max(rt.tmplStages, radios[i].tail.NumStages())
	}
	rt.tmplSegs = len(rt.segScheds) + 1
	rt.templates = make([]atomic.Pointer[visitTemplate],
		len(rt.pool)*2*len(radios)*rt.tmplStages*rt.tmplSegs)
	return rt, nil
}

// runShards replays shards [lo, hi) on the runner pool, one task per shard.
// Each task owns one rng and one visit buffer, reused across its users.
func (rt *fleetRuntime) runShards(cfg FleetConfig, lo, hi int) ([]FleetShardResult, error) {
	total := FleetShardCount(cfg)
	if lo < 0 || hi > total || lo >= hi {
		return nil, fmt.Errorf("fleet: shard range [%d, %d) outside [0, %d)", lo, hi, total)
	}
	var progressMu sync.Mutex
	done := 0
	outs, err := runner.Collect(hi-lo, func(i int) (FleetShardResult, error) {
		sh := lo + i
		out := FleetShardResult{
			Shard:       sh,
			OrigTrans:   stats.NewSketch(fleetSketchBudget),
			AwareTrans:  stats.NewSketch(fleetSketchBudget),
			OrigVisitJ:  stats.NewSketch(fleetSketchBudget),
			AwareVisitJ: stats.NewSketch(fleetSketchBudget),
		}
		shLo := sh * cfg.Users / total
		shHi := (sh + 1) * cfg.Users / total
		rng := trace.NewUserRand(1) // reseeded per user
		var visitBuf []trace.Visit
		var fs foldState
		if rt.folded {
			fs.slot = make([]int32, len(rt.templates))
		}
		for u := shLo; u < shHi; u++ {
			visitBuf = rt.stream.UserVisitsRand(rng, u, visitBuf[:0])
			var o userOutcome
			var err error
			switch {
			case rt.traced:
				o, err = rt.replayUserTraced(u, visitBuf, &out)
			case rt.folded:
				err = rt.replayUserFolded(u, visitBuf, &fs, &out)
			default:
				o, err = rt.replayUserTemplated(u, visitBuf, &out)
			}
			if err != nil {
				return out, fmt.Errorf("fleet user %d: %w", u, err)
			}
			out.fold(o)
		}
		if rt.folded {
			fs.flush(rt, &out)
		}
		if cfg.Progress != nil {
			progressMu.Lock()
			done++
			cfg.Progress(done, hi-lo)
			progressMu.Unlock()
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// FleetFromShards merges a complete, shard-ordered set of shard accumulators
// into the fleet result. Counters and energies fold in shard order; the
// per-shard sketches merge in shard order into one summary per pipeline,
// whose centroids (ascending) feed the capacity model. The merge is the same
// whether the shards came from this process, from runner workers, or over
// the multi-process wire — the byte-identity contract of the fleet.
func FleetFromShards(cfg FleetConfig, outs []FleetShardResult) (*FleetResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := FleetShardCount(cfg)
	if len(outs) != total {
		return nil, fmt.Errorf("fleet: got %d shards, want %d", len(outs), total)
	}
	radios, err := cfg.fleetRadios()
	if err != nil {
		return nil, err
	}

	res := &FleetResult{
		Users:      cfg.Users,
		TraceHours: cfg.HoursPerUser,
		Radio:      describeRadios(radios),
		Channel:    cfg.Channel,
		Policy:     cfg.policyName(),
	}
	res.Original.Mode = browser.ModeOriginal
	res.Aware.Mode = browser.ModeEnergyAware
	origTrans := stats.NewSketch(fleetSketchBudget)
	awareTrans := stats.NewSketch(fleetSketchBudget)
	origVisit := stats.NewSketch(fleetSketchBudget)
	awareVisit := stats.NewSketch(fleetSketchBudget)
	for i := range outs {
		o := &outs[i]
		if o.Shard != i {
			return nil, fmt.Errorf("fleet: shard %d out of order at position %d", o.Shard, i)
		}
		res.Visits += int(o.Visits)
		res.Original.EnergyJ += o.OrigJ
		res.Aware.EnergyJ += o.AwareJ
		res.Aware.Switches += int(o.Switches)
		res.Aware.Predictions += int(o.Predictions)
		res.Aware.PredictionEnergyJ += o.PredJ
		origTrans.Merge(o.OrigTrans)
		awareTrans.Merge(o.AwareTrans)
		origVisit.Merge(o.OrigVisitJ)
		awareVisit.Merge(o.AwareVisitJ)
	}
	res.Original.MeanEnergyPerUserJ = res.Original.EnergyJ / float64(cfg.Users)
	res.Aware.MeanEnergyPerUserJ = res.Aware.EnergyJ / float64(cfg.Users)
	if res.Original.EnergyJ > 0 {
		res.EnergySavingPct = (res.Original.EnergyJ - res.Aware.EnergyJ) /
			res.Original.EnergyJ * 100
	}

	sides := [2]*FleetModeStats{&res.Original, &res.Aware}
	var dists [2]capacity.Dist
	for s, sk := range [2]struct{ trans, visit *stats.Sketch }{
		{origTrans, origVisit}, {awareTrans, awareVisit},
	} {
		for _, c := range sk.trans.Centroids() {
			if err := dists[s].Add(c.V, c.N); err != nil {
				return nil, err
			}
		}
		// The sketch's mean is exact (compression never touches the running
		// sum), so the reported hold time carries no sketch error.
		sides[s].MeanTransmissionS = sk.trans.Mean()
		sides[s].VisitEnergyP50J = sk.visit.Quantile(0.50)
		sides[s].VisitEnergyP95J = sk.visit.Quantile(0.95)
		sides[s].VisitEnergyP99J = sk.visit.Quantile(0.99)
	}
	// The four capacity answers share no state: each call seeds its own rng
	// from ccfg and only reads its side's Dist, so they run on the pool,
	// longest first (the drop at fleet size walks the whole fleet's arrivals;
	// the search stops near capacity, a few hundred users), each writing its
	// own field. The tasks keep their errors in errs (so Map's is always
	// nil), taken here in the serial order (original before aware, search
	// before drop), so every pool size returns the same bytes and error.
	ccfg := capacity.DefaultConfig()
	var errs [4]error
	_ = runner.Map(len(errs), func(i int) error {
		st, d := sides[i%2], &dists[i%2]
		if i < 2 {
			st.DropPctAtFleet, errs[i] = capacity.DropPercentAt(cfg.Users, d, ccfg)
		} else {
			st.SupportedAt2Pct, errs[i] = capacity.SupportedUsersDist(d, 2, ccfg)
		}
		return nil
	})
	for _, i := range [4]int{2, 0, 3, 1} {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	if res.Original.SupportedAt2Pct > 0 {
		res.CapacityGainPct = float64(res.Aware.SupportedAt2Pct-res.Original.SupportedAt2Pct) /
			float64(res.Original.SupportedAt2Pct) * 100
	}
	return res, nil
}

// fleetFoldOff disables the counted-multiplicity fold (tests compare the
// folded and per-visit engines through it).
var fleetFoldOff bool

// fleetRuntime is the read-only state shared by every shard (apart from the
// template table's first-use fills).
type fleetRuntime struct {
	stream     *trace.Stream
	pool       []trace.PoolPage
	pred       *predictor.Predictor
	params     policy.Params
	device     gbrt.DeviceCost
	radios     []fleetRadio
	mixSeed    int64
	predVisitJ float64
	traced     bool
	// folded selects the counted-multiplicity replay (fleet_fold.go): static
	// policy, untraced.
	folded bool

	// sched is the fleet's channel scenario (nil for a fixed link);
	// segScheds holds one constant schedule per segment for template builds.
	// adaptive switches the energy-aware pipeline to per-user recursive
	// thresholds, configured by acfg.
	sched     *channel.Schedule
	segScheds []*channel.Schedule
	adaptive  bool
	acfg      policy.AdaptiveConfig

	// templates holds one simulated visit per template key, at the key's
	// dense id (tmplID), filled on first use. Shards race on first use;
	// duplicate builds are harmless because a build is a pure function of its
	// key, so whichever CompareAndSwap wins stores the same template.
	// tmplStages and tmplSegs are the start-stage and segment-slot extents of
	// the id space.
	templates  []atomic.Pointer[visitTemplate]
	tmplStages int
	tmplSegs   int
	// transThr is the forest's split thresholds on the transmission-time
	// feature, which delayed-release step tables are cut from.
	transThr []float64
}

// radioMixDrawTag keys the per-user profile draw inside the trace seed's
// splitmix64 chain ("radio" in hex), decorrelating it from the visit
// streams and from any future per-user assignment.
const radioMixDrawTag = 0x726164696f

// radioFor picks user u's radio. Single-profile fleets skip the draw, so a
// fleet without a mix replays exactly as it did before mixes existed.
func (rt *fleetRuntime) radioFor(u int) *fleetRadio {
	if len(rt.radios) == 1 {
		return &rt.radios[0]
	}
	d := trace.UserDraw(rt.mixSeed, radioMixDrawTag, u)
	for i := range rt.radios {
		if d < rt.radios[i].cum {
			return &rt.radios[i]
		}
	}
	return &rt.radios[len(rt.radios)-1]
}

// tmplKey identifies one distinct visit evolution. page is the visit's pool
// index and radio the fleetRadio's idx. start is the tail-stage index of the
// radio at load begin; inactivity-timer remainders don't participate because
// the load's first fetch disarms them at t=0 (a RELEASING start is handled
// as a shifted terminal-stage template, see playLoad). seg is the channel
// segment the user's channel clock is in at load start (-1 when the fleet
// runs without a channel).
type tmplKey struct {
	page  int
	mode  browser.Mode
	radio int
	start int
	seg   int
}

// tmplID maps a key to its slot in the template table: a mixed-radix number
// over (page, mode, radio, start, seg+1), so distinct keys never share a
// slot and the table is as small as the key space.
func (rt *fleetRuntime) tmplID(k tmplKey) int {
	mode := 0
	if k.mode == browser.ModeEnergyAware {
		mode = 1
	}
	return (((k.page*2+mode)*len(rt.radios)+k.radio)*rt.tmplStages+k.start)*rt.tmplSegs + k.seg + 1
}

// visitTemplate is the cached outcome of simulating one visit's load.
type visitTemplate struct {
	transS   float64       // TransmissionTime, seconds
	loadS    float64       // load wall-clock duration, seconds
	radioJ   float64       // radio energy over the load window
	cpuJ     float64       // CPU energy over the load window
	endStage int           // tail-stage index at load end
	endRem   time.Duration // remaining dwell in endStage at load end
	// Policy products (energy-aware templates only): the Table 1 vector,
	// the GBRT prediction over it and Algorithm 2's decision — all pure
	// functions of the template.
	vec      features.Vector
	predS    float64
	switchOn bool
	// delayed (energy-aware terminal-start templates only) is the prediction
	// for the same load delayed behind an in-flight forced release.
	delayed *delayedSteps
	// fold is the precomputed piecewise-linear reading-walk table the
	// counted-multiplicity replay folds visits through (fleet_fold.go).
	fold *foldPlan
	// id is the template's slot in the template table (fold accumulators
	// are indexed by it).
	id int32
}

// template returns the keyed template, building it on first use.
func (rt *fleetRuntime) template(key tmplKey) (*visitTemplate, error) {
	id := rt.tmplID(key)
	if t := rt.templates[id].Load(); t != nil {
		return t, nil
	}
	return rt.fillTemplate(key, id)
}

// fillTemplate is template's first-use path: build, publish, and return
// whichever of the racing (identical) builds was published first.
func (rt *fleetRuntime) fillTemplate(key tmplKey, id int) (*visitTemplate, error) {
	t, err := rt.buildTemplate(key)
	if err != nil {
		return nil, err
	}
	t.id = int32(id)
	if !rt.templates[id].CompareAndSwap(nil, t) {
		t = rt.templates[id].Load()
	}
	return t, nil
}

// delayedSteps tabulates the prediction for a load delayed by δ ∈ (0,
// maxDelta] behind a forced release. The delay adds δ to the transmission
// time feature and changes nothing else, and the forest's output is a step
// function of that one feature (gbrt.Model.Thresholds), so the table holds
// one prediction per threshold interval the delayed x can reach: predS[i]
// covers x ≤ thr[0] for i = 0, thr[i-1] < x ≤ thr[i] after that, and x past
// the last threshold at the end.
type delayedSteps struct {
	thr      []float64
	predS    []float64
	maxDelta time.Duration
}

// buildDelayedSteps cuts the table for feature vector vec out of the
// forest's transmission-time thresholds, predicting each interval at its
// upper threshold (or just above the last one), where the forest takes the
// same branches as anywhere else in the interval.
func (rt *fleetRuntime) buildDelayedSteps(vec features.Vector, maxDelta time.Duration) (*delayedSteps, error) {
	all := rt.transThr
	x0 := vec[features.TransmissionTime]
	lo := sort.SearchFloat64s(all, x0+time.Nanosecond.Seconds())
	hi := max(lo, sort.SearchFloat64s(all, x0+maxDelta.Seconds()))
	d := &delayedSteps{thr: all[lo:hi], predS: make([]float64, hi-lo+1), maxDelta: maxDelta}
	for i := lo; i <= hi; i++ {
		v := vec
		switch {
		case i < len(all):
			v[features.TransmissionTime] = all[i]
		case len(all) > 0:
			v[features.TransmissionTime] = math.Nextafter(all[len(all)-1], math.Inf(1))
		}
		p, err := rt.pred.PredictSeconds(v)
		if err != nil {
			return nil, err
		}
		d.predS[i-lo] = p
	}
	return d, nil
}

// delayedPredS returns the prediction for the template's load delayed by
// delta: bit-identical to PredictSeconds on the template's vector with delta
// added to its transmission time, which computes x the same way.
func (t *visitTemplate) delayedPredS(delta time.Duration) (float64, error) {
	d := t.delayed
	if d == nil || delta <= 0 || delta > d.maxDelta {
		return 0, fmt.Errorf("no delayed-load prediction for a %v delay", delta)
	}
	x := t.vec[features.TransmissionTime] + delta.Seconds()
	return d.predS[sort.SearchFloat64s(d.thr, x)], nil
}

// buildTemplate simulates the keyed visit once on a real phone: prime the
// radio into the start stage, load the page, and capture the load's energy,
// transmission time and the radio state it leaves behind.
func (rt *fleetRuntime) buildTemplate(key tmplKey) (*visitTemplate, error) {
	fr := &rt.radios[key.radio]
	page := rt.pool[key.page].Page
	if page == nil {
		return nil, fmt.Errorf("no page body for %s", rt.pool[key.page].Name)
	}
	opts := []SessionOption{WithRadioModel(fr.spec)}
	if key.mode == browser.ModeEnergyAware {
		// In the policy setting the release decision belongs to Algorithm 2,
		// not the engine's own end-of-load dormancy.
		opts = append(opts, WithEngineOptions(browser.WithoutAutoDormancy()))
	}
	if key.seg >= 0 {
		opts = append(opts, WithChannel(rt.segScheds[key.seg]))
	}
	s, err := New(key.mode, opts...)
	if err != nil {
		return nil, err
	}
	tp := &fr.tail
	switch {
	case key.start == tp.TerminalIndex():
		// Fresh phone.
	case key.start >= 0 && key.start < tp.TerminalIndex():
		promoted := false
		s.Radio.RequestActive(func() { promoted = true })
		for !promoted {
			if !s.Clock.Step() {
				return nil, fmt.Errorf("template %v: radio priming stalled", key)
			}
		}
		// Let each inactivity timer fire at its stage boundary, demoting the
		// radio one stage at a time down to the start stage; the fresh timer
		// the last demotion arms is irrelevant to the load (disarmed by the
		// first fetch at t=0).
		for k := 1; k <= key.start; k++ {
			s.Clock.RunFor(tp.Stage(k - 1).Dwell)
		}
	default:
		return nil, fmt.Errorf("template %v: unsupported start stage", key)
	}
	loadFrom := s.Clock.Now()
	res, err := s.LoadToEnd(page)
	if err != nil {
		return nil, fmt.Errorf("template %v: %w", key, err)
	}
	now := s.Clock.Now()
	endState := s.Radio.State()
	t := &visitTemplate{
		transS:   res.TransmissionTime.Seconds(),
		loadS:    (now - loadFrom).Seconds(),
		radioJ:   res.RadioEnergyJ,
		cpuJ:     res.CPUEnergyJ,
		endStage: tp.StageIndexOf(endState),
	}
	switch {
	case t.endStage < 0:
		return nil, fmt.Errorf("template %v: load ended in unexpected radio state %s",
			key, s.Radio.StateName(endState))
	case t.endStage == tp.TerminalIndex():
		// No pending timers.
	default:
		at, armed := s.Radio.NextDemotion()
		if !armed {
			return nil, fmt.Errorf("template %v: no demotion armed in %s",
				key, s.Radio.StateName(endState))
		}
		t.endRem = at - now
	}
	if key.mode == browser.ModeEnergyAware {
		vec, err := features.FromResult(res)
		if err != nil {
			return nil, err
		}
		predS, err := rt.pred.PredictSeconds(vec)
		if err != nil {
			return nil, err
		}
		t.vec = vec
		t.predS = predS
		t.switchOn = policy.Evaluate(time.Duration(predS*float64(time.Second)), rt.params).Switch
		if key.start == tp.TerminalIndex() {
			if t.delayed, err = rt.buildDelayedSteps(vec, tp.ReleaseDelay); err != nil {
				return nil, err
			}
		}
	}
	t.fold = buildFoldPlan(t, key.mode, fr, rt.params.Alpha)
	return t, nil
}

// cursorReleasing marks a cursor completing a forced release; it is not a
// tail-stage index, so it lives below the valid range.
const cursorReleasing = -1

// phoneCursor is the analytic mirror of an idle phone's radio: the current
// tail-stage index (cursorReleasing during a forced release, TerminalIndex
// at rest) plus the remaining time before its pending timer fires. Between
// loads the radio only ever decays stage by stage down the backend's tail
// (UMTS DCH→(T1)→FACH→(T2)→IDLE, LTE CONNECTED→DRX→IDLE, …) or completes
// a forced release, so this pair fully determines the walk.
type phoneCursor struct {
	stage int
	rem   time.Duration
}

// advance walks the cursor d forward and returns the radio energy spent.
// A timer expiring exactly at the window boundary fires, matching
// simtime.Clock.RunFor, which processes events due at the boundary.
func (pc *phoneCursor) advance(d time.Duration, tp *rrc.TailProfile) float64 {
	var j float64
	terminal := tp.TerminalIndex()
	for d > 0 {
		switch {
		case pc.stage == cursorReleasing:
			if d < pc.rem {
				j += tp.ReleasePowerW * d.Seconds()
				pc.rem -= d
				d = 0
			} else {
				j += tp.ReleasePowerW * pc.rem.Seconds()
				d -= pc.rem
				pc.stage = terminal
				pc.rem = 0
			}
		case pc.stage >= terminal:
			j += tp.Terminal().PowerW * d.Seconds()
			d = 0
		default:
			st := tp.Stage(pc.stage)
			if d < pc.rem {
				j += st.PowerW * d.Seconds()
				pc.rem -= d
				d = 0
			} else {
				j += st.PowerW * pc.rem.Seconds()
				d -= pc.rem
				pc.stage++
				if pc.stage < terminal {
					pc.rem = tp.Stage(pc.stage).Dwell
				} else {
					pc.rem = 0
				}
			}
		}
	}
	return j
}

// forceIdle mirrors RadioModel.ForceIdle for an idle phone (no transfer in
// flight, no waiters — always the case between loads): when already at the
// terminal stage or releasing it is a successful no-op; otherwise the
// release signaling lump is charged and the radio spends ReleaseDelay in
// the releasing state. Every branch reports success, exactly as ForceIdle
// returns nil in all of them.
func (pc *phoneCursor) forceIdle(tp *rrc.TailProfile) float64 {
	if pc.stage == cursorReleasing || pc.stage == tp.TerminalIndex() {
		return 0
	}
	pc.stage = cursorReleasing
	pc.rem = tp.ReleaseDelay
	return tp.ReleaseLumpJ
}

// sessionCursor snapshots a live phone's radio into an analytic cursor —
// the tail stage it sits in and the remaining dwell before its pending
// demotion. The traced adaptive path advances a copy of it to price the
// counterfactual "had the radio been left to its timers" window. States
// outside the tail (mid-release) map to the terminal stage, the
// conservative floor.
func sessionCursor(s *Session, tp *rrc.TailProfile) phoneCursor {
	stage := tp.StageIndexOf(s.Radio.State())
	if stage < 0 || stage >= tp.TerminalIndex() {
		return phoneCursor{stage: tp.TerminalIndex()}
	}
	pc := phoneCursor{stage: stage}
	if at, armed := s.Radio.NextDemotion(); armed {
		pc.rem = at - s.Clock.Now()
	} else {
		pc.rem = tp.Stage(stage).Dwell
	}
	return pc
}

// replayUserTemplated replays one user's visits through the template cache
// and the analytic radio cursor. No per-visit simulation, no per-visit
// allocation beyond first-touch template builds and histogram growth.
//
// With a channel configured, a per-user channel clock tracks where in the
// schedule the user's browsing has reached: it selects the segment each load
// replays under (the template key's seg, the epoch approximation) and
// advances by the original pipeline's load duration plus the reading window
// — decision-independent, so both pipelines browse the same channel and the
// energy-aware policy cannot shift its own conditions by releasing.
func (rt *fleetRuntime) replayUserTemplated(u int, visits []trace.Visit, shard *FleetShardResult) (userOutcome, error) {
	var out userOutcome
	if len(visits) == 0 {
		return out, nil
	}
	fr := rt.radioFor(u)
	tp := &fr.tail
	alpha := rt.params.Alpha
	orig := phoneCursor{stage: tp.TerminalIndex()}
	aware := phoneCursor{stage: tp.TerminalIndex()}
	var ad *policy.Adaptive
	if rt.adaptive {
		var err error
		if ad, err = policy.NewAdaptive(rt.acfg, fr.tail); err != nil {
			return out, err
		}
	}
	var chT time.Duration
	session := visits[0].Session
	for i := range visits {
		v := &visits[i]
		if v.Session != session {
			// Session breaks are minutes apart — let both radios idle out.
			out.origJ += orig.advance(fr.drain, tp)
			out.awareJ += aware.advance(fr.drain, tp)
			chT += fr.drain
			session = v.Session
		}
		reading := time.Duration(v.ReadingSeconds * float64(time.Second))
		seg := -1
		if rt.sched != nil {
			seg = rt.sched.SegmentIndexAt(chT)
		}

		// Original pipeline: load, then sit through the reading window on
		// operator timers. A RELEASING start never happens here (the stock
		// pipeline never forces dormancy), but the shift handles it anyway.
		origFrom := out.origJ
		ot, delta, err := rt.playLoad(fr, &orig, browser.ModeOriginal, int(v.Pool), seg, &out.origJ, shard.OrigTrans)
		if err != nil {
			return out, err
		}
		loadS := ot.loadS + delta.Seconds()
		out.origJ += orig.advance(reading, tp)
		shard.OrigVisitJ.Observe(out.origJ-origFrom, 1)

		// Energy-aware pipeline: Algorithm 2.
		awareFrom := out.awareJ
		at, delta, err := rt.playLoad(fr, &aware, browser.ModeEnergyAware, int(v.Pool), seg, &out.awareJ, shard.AwareTrans)
		if err != nil {
			return out, err
		}
		if reading <= alpha {
			// The user clicked away before the interest threshold — no
			// prediction, timers handle the short gap.
			out.awareJ += aware.advance(reading, tp)
		} else {
			out.awareJ += aware.advance(alpha, tp)
			predS := at.predS
			if delta > 0 {
				// A delayed (RELEASING-start) load stretches the measured
				// transmission time, which is a predictor feature.
				if predS, err = at.delayedPredS(delta); err != nil {
					return out, err
				}
			}
			out.predictions++
			out.predJ += rt.predVisitJ
			predD := time.Duration(predS * float64(time.Second))
			var dec policy.Decision
			if ad != nil {
				dec = ad.Decide(predD)
			} else {
				dec = policy.Evaluate(predD, rt.params)
			}
			window := reading - alpha
			if dec.Switch {
				held := aware // the stage the timers would have reached
				lumpJ := aware.forceIdle(tp)
				out.awareJ += lumpJ
				out.switches++
				winJ := aware.advance(window, tp)
				out.awareJ += winJ
				if ad != nil {
					held.advance(window, tp)
					ad.ObserveRelease(lumpJ+winJ, window.Seconds(), held.stage)
				}
			} else {
				winJ := aware.advance(window, tp)
				out.awareJ += winJ
				if ad != nil {
					ad.ObserveHold(winJ, window.Seconds())
				}
			}
		}
		visitJ := out.awareJ - awareFrom
		if reading > alpha {
			// out.predJ joins out.awareJ once per user; per visit the
			// prediction cost belongs to the visit that ran the predictor.
			visitJ += rt.predVisitJ
		}
		shard.AwareVisitJ.Observe(visitJ, 1)
		chT += time.Duration(loadS*float64(time.Second)) + reading
		out.visits++
	}
	out.awareJ += out.predJ
	return out, nil
}

// playLoad replays one load of pool page page on the cursor: resolve the
// template for the cursor's stage (a RELEASING start reuses the
// terminal-stage template shifted by the remaining release time δ — the
// queued active request waits out the release, then evolves exactly as from
// idle), charge its energy, file its transmission time, and leave the cursor
// in the load's end stage. seg is the channel segment the load runs under
// (-1 without a channel). It returns the template and the shift δ.
func (rt *fleetRuntime) playLoad(fr *fleetRadio, pc *phoneCursor, mode browser.Mode, page int,
	seg int, energyJ *float64, hist *stats.Sketch) (*visitTemplate, time.Duration, error) {

	tp := &fr.tail
	var delta time.Duration
	start := pc.stage
	if start == cursorReleasing {
		delta = pc.rem
		start = tp.TerminalIndex()
	}
	t, err := rt.template(tmplKey{page: page, mode: mode, radio: fr.idx, start: start, seg: seg})
	if err != nil {
		return nil, 0, err
	}
	transS := t.transS
	*energyJ += t.radioJ + t.cpuJ
	if delta > 0 {
		*energyJ += tp.ReleasePowerW * delta.Seconds()
		transS += delta.Seconds()
	}
	hist.Observe(transS, 1)
	pc.stage = t.endStage
	pc.rem = t.endRem
	return t, delta, nil
}

// replayUserTraced walks one user's visit sequence on two fully simulated
// persistent phones — one per pipeline — so radio state carries across the
// visits of a session exactly as it would on a real handset, and every
// transition, transfer and policy decision lands in the trace. Used when
// obs tracing is enabled; agrees with the template engine to floating-point
// tolerance.
func (rt *fleetRuntime) replayUserTraced(user int, visits []trace.Visit, shard *FleetShardResult) (userOutcome, error) {
	out := userOutcome{}
	if len(visits) == 0 {
		return out, nil
	}

	fr := rt.radioFor(user)
	origOpts := []SessionOption{
		WithRadioModel(fr.spec),
		WithObsKey(fmt.Sprintf("fleet/u%03d/original", user)),
	}
	awareOpts := []SessionOption{
		WithRadioModel(fr.spec),
		WithObsKey(fmt.Sprintf("fleet/u%03d/energy-aware", user)),
		WithEngineOptions(browser.WithoutAutoDormancy()),
	}
	if rt.sched != nil {
		origOpts = append(origOpts, WithChannel(rt.sched))
		awareOpts = append(awareOpts, WithChannel(rt.sched))
	}
	orig, err := New(browser.ModeOriginal, origOpts...)
	if err != nil {
		return out, err
	}
	aware, err := New(browser.ModeEnergyAware, awareOpts...)
	if err != nil {
		return out, err
	}
	var ad *policy.Adaptive
	if rt.adaptive {
		if ad, err = policy.NewAdaptive(rt.acfg, fr.tail); err != nil {
			return out, err
		}
	}

	alpha := rt.params.Alpha
	var origCPUJ, awareCPUJ float64
	session := visits[0].Session
	for i := range visits {
		v := &visits[i]
		page := rt.pool[v.Pool].Page
		if page == nil {
			return out, fmt.Errorf("no page body for %s", v.Page)
		}
		if v.Session != session {
			orig.Clock.RunFor(fr.drain)
			aware.Clock.RunFor(fr.drain)
			session = v.Session
		}
		reading := time.Duration(v.ReadingSeconds * float64(time.Second))

		origFromJ := orig.Radio.EnergyJ()
		origRes, err := orig.LoadToEnd(page)
		if err != nil {
			return out, fmt.Errorf("original %s: %w", v.Page, err)
		}
		origCPUJ += origRes.CPUEnergyJ
		shard.OrigTrans.Observe(origRes.TransmissionTime.Seconds(), 1)
		orig.Clock.RunFor(reading)
		shard.OrigVisitJ.Observe(orig.Radio.EnergyJ()-origFromJ+origRes.CPUEnergyJ, 1)

		awareFromJ := aware.Radio.EnergyJ()
		awareRes, err := aware.LoadToEnd(page)
		if err != nil {
			return out, fmt.Errorf("aware %s: %w", v.Page, err)
		}
		awareCPUJ += awareRes.CPUEnergyJ
		shard.AwareTrans.Observe(awareRes.TransmissionTime.Seconds(), 1)
		if reading <= alpha {
			aware.Clock.RunFor(reading)
		} else {
			aware.Clock.RunFor(alpha)
			vec, err := features.FromResult(awareRes)
			if err != nil {
				return out, err
			}
			predS, err := rt.pred.PredictSeconds(vec)
			if err != nil {
				return out, err
			}
			out.predictions++
			out.predJ += rt.predVisitJ
			var decision policy.Decision
			if ad != nil {
				decision = ad.Decide(time.Duration(predS * float64(time.Second)))
			} else {
				decision = policy.Evaluate(time.Duration(predS*float64(time.Second)), rt.params)
			}
			if aware.Obs != nil {
				aware.Obs.Record(aware.Clock.Now(), obs.Event{
					Kind:   obs.KindPolicyDecision,
					URL:    v.Page,
					Detail: decision.Reason,
					DurNS:  int64(decision.Predicted),
				})
			}
			window := reading - alpha
			winFromJ := aware.Radio.EnergyJ()
			held := sessionCursor(aware, &fr.tail)
			released := false
			if decision.Switch {
				// A busy radio (ErrBusy) degrades to the inactivity timers,
				// exactly as on a real handset; only a successful release
				// counts as a switch.
				if err := aware.Engine.ForceDormantNow(); err == nil {
					out.switches++
					released = true
				}
			}
			aware.Clock.RunFor(window)
			if ad != nil {
				winJ := aware.Radio.EnergyJ() - winFromJ
				if released {
					held.advance(window, &fr.tail)
					ad.ObserveRelease(winJ, window.Seconds(), held.stage)
				} else {
					ad.ObserveHold(winJ, window.Seconds())
				}
			}
		}
		awareVisitJ := aware.Radio.EnergyJ() - awareFromJ + awareRes.CPUEnergyJ
		if reading > alpha {
			awareVisitJ += rt.predVisitJ
		}
		shard.AwareVisitJ.Observe(awareVisitJ, 1)
		out.visits++
	}
	out.origJ = orig.Radio.EnergyJ() + origCPUJ
	out.awareJ = aware.Radio.EnergyJ() + awareCPUJ + out.predJ
	return out, nil
}
