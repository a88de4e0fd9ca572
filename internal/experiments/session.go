// Package experiments wires the substrates together and regenerates every
// table and figure of the paper's evaluation (Section 5). Each experiment is
// a plain function returning a printable result structure, shared by the
// eabench command and the repository's benchmark suite.
package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/channel"
	"eabrowse/internal/faults"
	"eabrowse/internal/netsim"
	"eabrowse/internal/obs"
	"eabrowse/internal/ril"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
	"eabrowse/internal/webpage"
)

// maxSimTime bounds any single page-load simulation; a load that has not
// finished by then indicates a wedged pipeline (bug), not a slow page.
const maxSimTime = 30 * time.Minute

// LoadOutcome is the result of loading one page on a fresh simulated phone.
type LoadOutcome struct {
	Result *browser.Result
	// TotalWithReadingJ is radio+CPU energy over the window from load start
	// to final display plus the requested reading time.
	TotalWithReadingJ float64
	// ReadingJ is the energy spent during the reading window alone.
	ReadingJ float64
}

// Session is one simulated phone: clock, radio, link and a browser engine.
// RIL and Faults are non-nil only when the session was built with
// WithFaultInjector.
type Session struct {
	Clock  *simtime.Clock
	Radio  rrc.RadioModel
	Link   *netsim.Link
	Engine *browser.Engine
	RIL    *ril.Interface
	Faults *faults.Injector
	// Obs is the session's event recorder; nil unless the session was built
	// with WithObsKey (and tracing is enabled) or WithObsRecorder.
	Obs *obs.Recorder

	// LoadToEnd scratch: the once-bound completion callback and the result it
	// last delivered.
	loadDone   *browser.Result
	loadDoneFn func(*browser.Result)
}

// sessionConfig is what SessionOptions configure; New starts from the
// calibrated defaults.
type sessionConfig struct {
	radio      rrc.ModelSpec
	link       netsim.Config
	cost       browser.CostModel
	faults     *faults.Config
	channel    *channel.Schedule
	engineOpts []browser.Option
	obsKey     string
	obsRec     *obs.Recorder
}

// SessionOption configures one aspect of a session built by New.
type SessionOption func(*sessionConfig)

// defaultRadioSpec is the process-wide default radio backend, settable once
// at startup (eabench -radio); nil means UMTS with the paper's parameters.
var defaultRadioSpec atomic.Value // stores *rrc.ModelSpec

// SetDefaultRadioProfile selects the radio backend sessions use when built
// without an explicit WithRadioModel option. Unknown names
// fail with the valid-profile list.
func SetDefaultRadioProfile(name string) error {
	spec, err := rrc.ProfileSpec(name)
	if err != nil {
		return err
	}
	defaultRadioSpec.Store(&spec)
	return nil
}

// DefaultRadioSpec returns the process-wide default radio backend: the
// profile selected by SetDefaultRadioProfile, or the paper's UMTS
// parameters.
func DefaultRadioSpec() rrc.ModelSpec {
	if v := defaultRadioSpec.Load(); v != nil {
		return *(v.(*rrc.ModelSpec))
	}
	return rrc.DefaultConfig()
}

// WithRadioModel selects the radio backend (and its parameters) for the
// session: any rrc.ModelSpec, typically resolved from a named profile via
// rrc.ProfileSpec("lte").
func WithRadioModel(spec rrc.ModelSpec) SessionOption {
	return func(c *sessionConfig) { c.radio = spec }
}

// WithLinkConfig overrides the radio-link bandwidth and RTT parameters.
func WithLinkConfig(cfg netsim.Config) SessionOption {
	return func(c *sessionConfig) { c.link = cfg }
}

// WithCostModel overrides the browser CPU cost model.
func WithCostModel(cost browser.CostModel) SessionOption {
	return func(c *sessionConfig) { c.cost = cost }
}

// WithFaultInjector impairs the session's link and RIL daemon with the given
// fault profile, and routes the engine's dormancy requests through the
// (flaky) RIL, exercising the whole Section 4.4 path under impairment.
func WithFaultInjector(cfg faults.Config) SessionOption {
	return func(c *sessionConfig) { c.faults = &cfg }
}

// WithChannel attaches a time-varying channel schedule to the session's
// link: bandwidth, latency and loss follow the schedule as simulated time
// advances (origin = clock zero). A nil schedule keeps the calibrated fixed
// link bit-for-bit. Composes with WithFaultInjector — the channel shapes the
// link first, injected faults stack on top.
func WithChannel(sched *channel.Schedule) SessionOption {
	return func(c *sessionConfig) { c.channel = sched }
}

// WithEngineOptions appends browser-engine options (dormancy guard,
// event log, ...) to the session's engine.
func WithEngineOptions(opts ...browser.Option) SessionOption {
	return func(c *sessionConfig) { c.engineOpts = append(c.engineOpts, opts...) }
}

// WithObsKey names the session in the process-wide obs collector (when
// tracing is enabled via obs.Enable; otherwise it is a no-op). The key must
// be unique and deterministic — derived from the experiment and its inputs,
// never from scheduling — so merged traces are byte-stable at any worker
// count.
func WithObsKey(key string) SessionOption {
	return func(c *sessionConfig) { c.obsKey = key }
}

// WithObsRecorder attaches an explicit event recorder (typically from a
// private obs.Collector); tests use this to trace a session without touching
// the process-wide collector.
func WithObsRecorder(r *obs.Recorder) SessionOption {
	return func(c *sessionConfig) { c.obsRec = r }
}

// New builds a fresh phone — virtual clock, radio, link and a browser in the
// given mode — from the calibrated defaults, adjusted by options:
//
//	s, err := experiments.New(browser.ModeEnergyAware,
//	        experiments.WithRadioModel(radio),
//	        experiments.WithFaultInjector(profile),
//	        experiments.WithEngineOptions(browser.WithDormancyGuard(0)))
//
// Sessions are cheap and single-goroutine; parallel workloads give every
// goroutine its own.
func New(mode browser.Mode, opts ...SessionOption) (*Session, error) {
	cfg := sessionConfig{
		link: netsim.DefaultConfig(),
		cost: browser.DefaultCostModel(),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.radio == nil {
		cfg.radio = DefaultRadioSpec()
	}

	var inj *faults.Injector
	if cfg.faults != nil {
		var err error
		if inj, err = faults.New(*cfg.faults); err != nil {
			return nil, fmt.Errorf("new injector: %w", err)
		}
	}
	rec := cfg.obsRec
	if rec == nil && cfg.obsKey != "" {
		var err error
		if rec, err = obs.Default().NewRecorder(cfg.obsKey); err != nil {
			return nil, fmt.Errorf("new session observer: %w", err)
		}
	}
	clock := simtime.NewClock()
	var radioOpts []rrc.Option
	if rec != nil {
		spec := cfg.radio
		radioOpts = append(radioOpts, rrc.WithTransitionHook(func(tr rrc.Transition) {
			rec.Record(tr.At, obs.Event{
				Kind: obs.KindTransition,
				From: spec.StateName(tr.From),
				To:   spec.StateName(tr.To),
			})
		}))
	}
	radio, err := cfg.radio.New(clock, radioOpts...)
	if err != nil {
		return nil, fmt.Errorf("new radio: %w", err)
	}
	link, err := netsim.NewLink(clock, radio, cfg.link)
	if err != nil {
		return nil, fmt.Errorf("new link: %w", err)
	}
	link.SetObserver(rec)
	if cfg.channel != nil {
		link.SetChannel(cfg.channel)
	}
	s := &Session{Clock: clock, Radio: radio, Link: link, Obs: rec}
	engineOpts := cfg.engineOpts
	if rec != nil {
		engineOpts = append([]browser.Option{browser.WithObserver(rec)}, engineOpts...)
	}
	if inj != nil {
		link.SetFaults(inj)
		iface, err := ril.New(clock, radio, ril.WithFaults(inj))
		if err != nil {
			return nil, fmt.Errorf("new ril: %w", err)
		}
		engineOpts = append([]browser.Option{browser.WithRIL(iface)}, engineOpts...)
		s.RIL = iface
		s.Faults = inj
	}
	engine, err := browser.NewEngine(clock, radio, link, cfg.cost, mode, engineOpts...)
	if err != nil {
		return nil, fmt.Errorf("new engine: %w", err)
	}
	s.Engine = engine
	return s, nil
}

// LoadToEnd loads one page and runs the simulation until the final display.
// The completion callback is bound once per session (not per call), keeping
// repeated pooled visits allocation-free.
func (s *Session) LoadToEnd(page *webpage.Page) (*browser.Result, error) {
	if s.loadDoneFn == nil {
		s.loadDoneFn = func(r *browser.Result) { s.loadDone = r }
	}
	s.loadDone = nil
	err := s.Engine.Load(page, s.loadDoneFn)
	if err != nil {
		return nil, err
	}
	deadline := s.Clock.Now() + maxSimTime
	for s.loadDone == nil && s.Clock.Now() < deadline {
		if !s.Clock.Step() {
			break
		}
	}
	if s.loadDone == nil {
		return nil, fmt.Errorf("load of %s did not finish within %v", page.Name, maxSimTime)
	}
	return s.loadDone, nil
}

// LoadPage loads page on a fresh phone in the given mode and then simulates
// reading time: the phone sits there (timers running or radio already
// dormant) while the user reads.
func LoadPage(page *webpage.Page, mode browser.Mode, reading time.Duration,
	opts ...browser.Option) (*LoadOutcome, error) {
	return LoadPageObserved(page, mode, reading, nil, opts...)
}

// LoadPageObserved is LoadPage with a hook that receives the session after
// the reading window, for callers that want to inspect the substrate state
// (radio residency, transfer records) beyond the load result.
func LoadPageObserved(page *webpage.Page, mode browser.Mode, reading time.Duration,
	observe func(*Session), opts ...browser.Option) (*LoadOutcome, error) {
	return LoadPageSession(page, mode, reading, observe, WithEngineOptions(opts...))
}

// LoadPageSession is the full-control variant of LoadPage: the session is
// built from arbitrary session options (fault injector, obs key, ...).
func LoadPageSession(page *webpage.Page, mode browser.Mode, reading time.Duration,
	observe func(*Session), opts ...SessionOption) (*LoadOutcome, error) {
	s, err := New(mode, opts...)
	if err != nil {
		return nil, err
	}
	res, err := s.LoadToEnd(page)
	if err != nil {
		return nil, err
	}
	energyAtFinal := s.Radio.EnergyJ() + res.CPUEnergyJ
	if reading > 0 {
		s.Clock.RunFor(reading)
	}
	total := s.Radio.EnergyJ() + res.CPUEnergyJ
	// Seal the attribution ledger here so its tail phase covers the radio's
	// post-display decay across the reading window.
	s.Engine.CloseLedger()
	if observe != nil {
		observe(s)
	}
	return &LoadOutcome{
		Result:            res,
		TotalWithReadingJ: total,
		ReadingJ:          total - energyAtFinal,
	}, nil
}

// PageByName generates the named benchmark page.
func PageByName(name string) (*webpage.Page, error) {
	for i, n := range webpage.MobilePageNames {
		if n == name {
			spec, err := webpage.MobileSpec(i)
			if err != nil {
				return nil, err
			}
			return webpage.Generate(spec)
		}
	}
	for i, n := range webpage.FullPageNames {
		if n == name {
			spec, err := webpage.FullSpec(i)
			if err != nil {
				return nil, err
			}
			return webpage.Generate(spec)
		}
	}
	return nil, fmt.Errorf("experiments: unknown benchmark page %q (have: %s)",
		name, strings.Join(webpage.BenchmarkPageNames(), ", "))
}
