// Package eabrowse is a faithful, laptop-scale reproduction of
// "Energy-Aware Web Browsing in 3G Based Smartphones" (Zhao, Zheng, Cao —
// ICDCS 2013) as a Go library.
//
// It implements the paper's two techniques — reordering the browser's
// computation sequence so all data transmissions group together and the 3G
// radio can be released early, and GBRT-based reading-time prediction that
// drops the radio to IDLE during long reads — together with every substrate
// they need: a discrete-event simulator, the UMTS RRC state machine with its
// inactivity timers and promotion costs, a radio link, real HTML/CSS/script
// processing, a synthetic benchmark corpus, a browsing-trace synthesizer,
// gradient-boosted regression trees, the Algorithm 2 policy, and an
// Erlang-loss capacity model.
//
// Quick start:
//
//	page, _ := eabrowse.ESPNSports()
//	phone, _ := eabrowse.New(eabrowse.ModeEnergyAware)
//	res, _ := phone.LoadPage(page)
//	phone.Read(20 * time.Second)
//	fmt.Printf("loaded in %v, %.1f J\n", res.FinalDisplayAt, phone.EnergyJ())
//
// Phones are configured with variadic options; substrate overrides compose:
//
//	phone, _ := eabrowse.New(eabrowse.ModeEnergyAware,
//	        eabrowse.WithRadioModel(radio),
//	        eabrowse.WithEngineOptions(eabrowse.WithDormancyGuard(0)))
//
// The experiment harness behind cmd/eabench is exposed through the
// Experiments type; each method regenerates one table or figure of the
// paper's evaluation. Experiments fan their independent simulations out on a
// bounded worker pool — SetParallelism sizes it — and results are identical
// at any worker count.
package eabrowse

import (
	"io"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/channel"
	"eabrowse/internal/experiments"
	"eabrowse/internal/faults"
	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/netsim"
	"eabrowse/internal/policy"
	"eabrowse/internal/predictor"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
	"eabrowse/internal/trace"
	"eabrowse/internal/webpage"
)

// Core re-exported types. Aliases keep the implementation in internal
// packages while giving library users one import.
type (
	// Mode selects the loading pipeline (original vs. energy-aware).
	Mode = browser.Mode
	// Result summarizes one page load.
	Result = browser.Result
	// CostModel maps browser operations to simulated device CPU time.
	CostModel = browser.CostModel
	// EngineOption configures the browser engine.
	EngineOption = browser.Option

	// Page is a generated webpage with all its resources.
	Page = webpage.Page
	// PageSpec parameterizes the page generator.
	PageSpec = webpage.Spec

	// RadioConfig holds the UMTS RRC timers, latencies and Table 5 powers.
	RadioConfig = rrc.Config
	// RadioState is a radio state index. For UMTS these are IDLE/FACH/DCH
	// and transients; other backends define their own ladders. State 1
	// (RadioIdle) is the terminal idle state on every backend.
	RadioState = rrc.State
	// RadioModel is the radio-backend abstraction: any implementation of
	// the RRC-style state machine the phone's energy accounting runs on.
	RadioModel = rrc.RadioModel
	// RadioModelSpec is a validated radio configuration that can mint
	// RadioModel instances — what WithRadioModel accepts and
	// RadioProfileSpec returns.
	RadioModelSpec = rrc.ModelSpec
	// RadioTailProfile is a backend's declarative tail shape (per-stage
	// powers, dwell times and promotion costs) for policy arithmetic.
	RadioTailProfile = rrc.TailProfile
	// LinkConfig holds the radio-link bandwidth and RTT parameters.
	LinkConfig = netsim.Config

	// FaultConfig is a fault-injection profile for the link and RIL daemon.
	FaultConfig = faults.Config

	// ChannelSchedule is a deterministic piecewise time-varying channel: a
	// validated sequence of bandwidth/latency/loss segments the link replays.
	ChannelSchedule = channel.Schedule
	// ChannelConditions is one segment's link impairment (bandwidth factor,
	// extra RTT, loss rate).
	ChannelConditions = channel.Conditions
	// ChannelSegment is one timed span of a channel schedule.
	ChannelSegment = channel.Segment

	// AdaptivePolicy is the per-user recursive release-threshold estimator —
	// the alternative to Algorithm 2's static thresholds under time-varying
	// channels.
	AdaptivePolicy = policy.Adaptive
	// AdaptivePolicyConfig tunes the estimator's gain and clamp.
	AdaptivePolicyConfig = policy.AdaptiveConfig

	// PhoneOption configures one aspect of a phone built by New.
	PhoneOption = experiments.SessionOption

	// FeatureVector is the Table 1 ten-feature vector.
	FeatureVector = features.Vector

	// BrowsingTrace is a synthesized multi-user browsing dataset.
	BrowsingTrace = trace.Dataset
	// TraceConfig parameterizes trace synthesis.
	TraceConfig = trace.Config
	// Visit is one page view in a browsing trace.
	Visit = trace.Visit

	// Predictor is the GBRT reading-time predictor.
	Predictor = predictor.Predictor
	// PredictorConfig controls predictor training.
	PredictorConfig = predictor.Config

	// GBRTConfig holds the boosting hyperparameters.
	GBRTConfig = gbrt.Config
	// GBRTModel is a trained gradient-boosted forest.
	GBRTModel = gbrt.Model

	// PolicyParams are Algorithm 2's thresholds and mode.
	PolicyParams = policy.Params
)

// Pipeline modes.
const (
	ModeOriginal    = browser.ModeOriginal
	ModeEnergyAware = browser.ModeEnergyAware
)

// Radio states.
const (
	RadioIdle = rrc.StateIdle
	RadioFACH = rrc.StateFACH
	RadioDCH  = rrc.StateDCH
)

// Algorithm 2 modes (Table 2).
const (
	// PolicyModeDelay only releases when no delay penalty is possible.
	PolicyModeDelay = policy.ModeDelay
	// PolicyModePower also releases whenever it merely saves energy.
	PolicyModePower = policy.ModePower
)

// Engine options.
var (
	// WithDormancyGuard overrides the delay between the end of data
	// transmission and the forced radio release.
	WithDormancyGuard = browser.WithDormancyGuard
	// WithoutAutoDormancy keeps the computation reordering but leaves the
	// radio to its timers.
	WithoutAutoDormancy = browser.WithoutAutoDormancy
)

// Phone options for New.
var (
	// WithRadioModel selects the radio backend a phone simulates: any
	// RadioModelSpec, typically one of the named profiles from
	// RadioProfileSpec ("umts", "lte", "nr") or a customized
	// RadioConfig/LTEConfig/NRConfig value.
	WithRadioModel = experiments.WithRadioModel
	// WithLinkConfig overrides the radio-link bandwidth and RTT parameters.
	WithLinkConfig = experiments.WithLinkConfig
	// WithCostModel overrides the browser CPU cost model.
	WithCostModel = experiments.WithCostModel
	// WithFaultInjector impairs the phone's link and RIL daemon with a fault
	// profile (Section 4.4 resilience path).
	WithFaultInjector = experiments.WithFaultInjector
	// WithEngineOptions appends browser-engine options (dormancy guard,
	// event log, ...).
	WithEngineOptions = experiments.WithEngineOptions
	// WithChannel drives the phone's link from a time-varying channel
	// schedule (built-in scenario, parsed trace, or NewChannelSchedule);
	// composes with WithFaultInjector the way toxics stack on a proxy.
	WithChannel = experiments.WithChannel
)

// ChannelScenarios lists the built-in channel scenarios ("bursty-loss",
// "cell-handover", "congestion-ramp", "fading", "steady-3g"), sorted. Every
// name is valid for ChannelScenario, eabench -fleet-channel and the easerd
// "channel" request field.
func ChannelScenarios() []string { return channel.Scenarios() }

// ChannelScenario resolves a named built-in scenario to its schedule.
// Unknown names error with the valid-name list.
func ChannelScenario(name string) (*ChannelSchedule, error) { return channel.ScenarioSchedule(name) }

// NewChannelSchedule builds a validated schedule from explicit segments;
// repeat makes it cycle instead of holding the last segment forever.
func NewChannelSchedule(name string, repeat bool, segments ...ChannelSegment) (*ChannelSchedule, error) {
	return channel.New(name, repeat, segments...)
}

// ParseChannelTrace reads a JSONL channel trace (one segment per line, with
// an optional header naming the trace) into a schedule.
func ParseChannelTrace(r io.Reader) (*ChannelSchedule, error) { return channel.ParseTrace(r) }

// FormatChannelTrace writes a schedule back out in the JSONL trace format;
// ParseChannelTrace(FormatChannelTrace(s)) reproduces s exactly.
func FormatChannelTrace(w io.Writer, s *ChannelSchedule) error { return channel.FormatTrace(w, s) }

// NewAdaptivePolicy builds a per-user adaptive threshold estimator for a
// radio tail, seeded with the profile's closed-form priors.
func NewAdaptivePolicy(cfg AdaptivePolicyConfig, tail RadioTailProfile) (*AdaptivePolicy, error) {
	return policy.NewAdaptive(cfg, tail)
}

// DefaultAdaptivePolicyConfig derives the estimator's default gain and clamp
// from Algorithm 2's parameters.
func DefaultAdaptivePolicyConfig(p PolicyParams) AdaptivePolicyConfig {
	return policy.DefaultAdaptiveConfig(p)
}

// SetParallelism sizes the worker pool experiments fan out on. n <= 0 resets
// to GOMAXPROCS. Results are byte-identical at any setting; only wall-clock
// time changes.
func SetParallelism(n int) { runner.SetWorkers(n) }

// Parallelism returns the current worker-pool size.
func Parallelism() int { return runner.Workers() }

// DefaultRadioConfig returns the calibrated UMTS parameters (Table 5 powers,
// T1 = 4 s, T2 = 15 s, Fig. 3 crossover at 9 s) as a concrete RadioConfig
// whose timers can be tweaked before passing it to WithRadioModel.
func DefaultRadioConfig() RadioConfig { return rrc.DefaultConfig() }

// RadioProfiles lists the registered radio backends ("lte", "nr", "umts"),
// sorted. Every name is valid for RadioProfileSpec, eabench -radio, the
// easerd "radio" request field and fleet radio mixes.
func RadioProfiles() []string { return rrc.Profiles() }

// RadioProfileSpec resolves a named radio profile to its calibrated spec for
// WithRadioModel. Unknown names error with the valid-name list.
func RadioProfileSpec(name string) (RadioModelSpec, error) { return rrc.ProfileSpec(name) }

// DefaultLTEConfig returns the calibrated LTE DRX parameters (CONNECTED,
// short-DRX, long-DRX, IDLE with 3GPP-style cycle timers).
func DefaultLTEConfig() rrc.ChainSpec { return rrc.DefaultLTEConfig() }

// DefaultNRConfig returns the calibrated 5G NR parameters (CONNECTED,
// RRC_INACTIVE, IDLE).
func DefaultNRConfig() rrc.ChainSpec { return rrc.DefaultNRConfig() }

// SetDefaultRadioProfile sets the backend phones and experiments use when no
// explicit radio option is given (process-wide; starts as "umts"). The
// session-based experiments follow it — that is how the evaluation re-runs
// on another radio generation — while the experiments that measure the UMTS
// machine itself (Fig1, Fig3, Table5, the timer sweep, the ablations) pin
// their radio explicitly and never move.
func SetDefaultRadioProfile(name string) error { return experiments.SetDefaultRadioProfile(name) }

// DefaultLinkConfig returns the calibrated link (760 KB in ≈8 s over DCH).
func DefaultLinkConfig() LinkConfig { return netsim.DefaultConfig() }

// DefaultCostModel returns the calibrated browser cost model.
func DefaultCostModel() CostModel { return browser.DefaultCostModel() }

// DefaultTraceConfig mirrors the paper's 40-user collection.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// DefaultPolicyParams returns Algorithm 2's Table 2 parameters.
func DefaultPolicyParams() PolicyParams { return policy.DefaultParams() }

// GeneratePage builds a deterministic synthetic page from a spec.
func GeneratePage(spec PageSpec) (*Page, error) { return webpage.Generate(spec) }

// MobileBenchmark generates the ten mobile-version Table 3 pages.
func MobileBenchmark() ([]*Page, error) { return webpage.MobileBenchmark() }

// FullBenchmark generates the ten full-version Table 3 pages.
func FullBenchmark() ([]*Page, error) { return webpage.FullBenchmark() }

// ESPNSports generates the espn.go.com/sports stand-in (the paper's running
// example page).
func ESPNSports() (*Page, error) { return webpage.ESPNSports() }

// MCNNPage generates the m.cnn.com stand-in (the paper's representative
// mobile page).
func MCNNPage() (*Page, error) { return webpage.MCNN() }

// BenchmarkPage generates any named benchmark page.
func BenchmarkPage(name string) (*Page, error) { return experiments.PageByName(name) }

// SynthesizeTrace builds a browsing trace with the paper's marginal
// statistics (Fig. 7 CDF, Table 4 correlations).
func SynthesizeTrace(cfg TraceConfig) (*BrowsingTrace, error) { return trace.Synthesize(cfg) }

// TrainPredictor fits the GBRT reading-time predictor on trace visits.
func TrainPredictor(visits []Visit, cfg PredictorConfig) (*Predictor, error) {
	return predictor.Train(visits, cfg)
}

// DefaultPredictorConfig returns the paper's training setup (interest
// threshold on, α = 2 s).
func DefaultPredictorConfig() PredictorConfig { return predictor.DefaultConfig() }

// SplitTrace partitions visits into train/test sets.
func SplitTrace(visits []Visit, testFrac float64, seed int64) (train, test []Visit, err error) {
	return predictor.Split(visits, testFrac, seed)
}

// SaveTrace streams a trace's visits as JSON lines.
func SaveTrace(ds *BrowsingTrace, w io.Writer) error {
	return ds.WriteVisits(w)
}

// LoadTrace reads visits previously written with SaveTrace.
func LoadTrace(r io.Reader) ([]Visit, error) {
	return trace.ReadVisits(r)
}

// LoadPredictor reads a predictor previously written with Predictor.Save —
// the paper's "train offline, deploy the tree model to the phone" step.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	return predictor.LoadPredictor(r)
}

// PerUserPredictor routes predictions to per-user models with a global
// fallback (the paper's on-phone deployment).
type PerUserPredictor = predictor.PerUser

// TrainPerUserPredictor fits one model per user plus the global fallback.
func TrainPerUserPredictor(visits []Visit, cfg PredictorConfig) (*PerUserPredictor, error) {
	return predictor.TrainPerUser(visits, cfg)
}

// ShouldSwitchToIdle is Algorithm 2's decision rule.
func ShouldSwitchToIdle(predictedReading time.Duration, p PolicyParams) bool {
	return policy.ShouldSwitchToIdle(predictedReading, p)
}

// ExtractFeatures pulls the Table 1 feature vector out of a load result.
func ExtractFeatures(r *Result) (FeatureVector, error) { return features.FromResult(r) }

// Phone is one simulated 3G smartphone: virtual clock, radio, link and a
// browser in a fixed pipeline mode. Loads are sequential; time only advances
// through LoadPage and Read.
type Phone struct {
	session *experiments.Session
	cpuJ    float64
}

// New creates a phone from the calibrated defaults, adjusted by options.
func New(mode Mode, opts ...PhoneOption) (*Phone, error) {
	s, err := experiments.New(mode, opts...)
	if err != nil {
		return nil, err
	}
	return &Phone{session: s}, nil
}

// LoadPage loads a page to its final display and returns the load result.
func (p *Phone) LoadPage(page *Page) (*Result, error) {
	res, err := p.session.LoadToEnd(page)
	if err != nil {
		return nil, err
	}
	p.cpuJ += res.CPUEnergyJ
	return res, nil
}

// Read advances simulated time with the user reading (radio timers run, or
// the radio stays dormant if it was released).
func (p *Phone) Read(d time.Duration) {
	if d > 0 {
		p.session.Clock.RunFor(d)
	}
}

// Now returns the phone's current simulated time.
func (p *Phone) Now() time.Duration { return p.session.Clock.Now() }

// EnergyJ returns total energy (radio + browser CPU) consumed so far.
func (p *Phone) EnergyJ() float64 {
	return p.session.Radio.EnergyJ() + p.cpuJ
}

// RadioState returns the radio's current RRC state.
func (p *Phone) RadioState() RadioState { return p.session.Radio.State() }

// ForceRadioIdle releases the signaling connection early (fast dormancy),
// as Algorithm 2 would after a long predicted reading time.
func (p *Phone) ForceRadioIdle() error { return p.session.Radio.ForceIdle() }

// Experiments regenerates the paper's tables and figures; see cmd/eabench
// for the printable form.
type Experiments struct{}

// Fig1 — radio state power trace.
func (Experiments) Fig1() (*experiments.Fig1Result, error) { return experiments.Fig1() }

// Fig3 — intuitive-release crossover sweep.
func (Experiments) Fig3() (*experiments.Fig3Result, error) { return experiments.Fig3() }

// Fig4 — browser vs. socket traffic shape.
func (Experiments) Fig4() (*experiments.Fig4Result, error) { return experiments.Fig4() }

// Fig7 — reading-time CDF.
func (Experiments) Fig7() (*experiments.Fig7Result, error) { return experiments.Fig7() }

// Fig8 — data-transmission and loading times.
func (Experiments) Fig8() (*experiments.Fig8Result, error) { return experiments.Fig8() }

// Fig9 — espn power traces.
func (Experiments) Fig9() (*experiments.Fig9Result, error) { return experiments.Fig9() }

// Fig10 — open-page + 20 s reading energy.
func (Experiments) Fig10() (*experiments.Fig10Result, error) { return experiments.Fig10() }

// Fig11 — network capacity.
func (Experiments) Fig11() (*experiments.Fig11Result, error) { return experiments.Fig11() }

// Fig12 — display timings for espn.
func (Experiments) Fig12() (*experiments.Fig12Result, error) { return experiments.Fig12() }

// Fig14 — average display times.
func (Experiments) Fig14() (*experiments.Fig14Result, error) { return experiments.Fig14() }

// Fig15 — prediction accuracy with/without the interest threshold.
func (Experiments) Fig15() (*experiments.Fig15Result, error) { return experiments.Fig15() }

// Fig16 — the six-case policy comparison.
func (Experiments) Fig16() (*experiments.Fig16Result, error) { return experiments.Fig16() }

// Table4 — feature correlations.
func (Experiments) Table4() (*experiments.Table4Result, error) { return experiments.Table4() }

// Table5 — per-state power.
func (Experiments) Table5() []experiments.Table5Row { return experiments.Table5() }

// Table7 — prediction cost by forest size.
func (Experiments) Table7() ([]experiments.Table7Row, error) { return experiments.Table7() }

// Reorder — the reordering+dormancy intervention re-run on every radio
// backend (UMTS, LTE DRX, 5G NR).
func (Experiments) Reorder() (*experiments.ReorderResult, error) {
	return experiments.Reorder()
}

// Ablations — design-choice ablation sweep.
func (Experiments) Ablations() (*experiments.AblationResult, error) {
	return experiments.Ablations()
}

// Fleet — concurrent multi-hundred-user fleet replay with Algorithm 2.
func (Experiments) Fleet(cfg experiments.FleetConfig) (*experiments.FleetResult, error) {
	return experiments.Fleet(cfg)
}

// Scenarios — the scenario×policy matrix: every built-in channel scenario
// replayed under the static thresholds, the adaptive estimator and the
// counterfactual oracle, on the process-default radio backend.
func (Experiments) Scenarios() (*experiments.ScenarioMatrix, error) {
	return experiments.Scenarios()
}

// DefaultFleetConfig returns the 300-phone fleet setup.
func DefaultFleetConfig() experiments.FleetConfig { return experiments.DefaultFleetConfig() }

// Version identifies the reproduction.
const Version = "1.1.0"
