package browser

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eabrowse/internal/jsmini"
	"eabrowse/internal/netsim"
	"eabrowse/internal/obs"
	"eabrowse/internal/ril"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
	"eabrowse/internal/webpage"
)

// DefaultDormancyGuard is how long after the last data transmission the
// energy-aware pipeline waits before forcing the radio dormant. Fig. 9 shows
// the paper's prototype dropping to IDLE ≈2.5 s after the final transfer.
const DefaultDormancyGuard = 2500 * time.Millisecond

// Fetch-hardening defaults: how the engine reacts when the link reports a
// permanently failed transfer (possible only under fault injection). Each
// object gets DefaultFetchAttempts engine-level attempts — each of which is
// itself retried inside the link — with exponential backoff between them,
// and a wall-clock deadline after which the engine stops retrying and loads
// the page without the object instead of hanging the pipeline.
const (
	// DefaultFetchAttempts is the engine-level attempt budget per object.
	DefaultFetchAttempts = 3
	// DefaultFetchBackoff is the first retry delay; it doubles per attempt.
	DefaultFetchBackoff = 500 * time.Millisecond
	// DefaultFetchBackoffCap bounds the exponential backoff.
	DefaultFetchBackoffCap = 4 * time.Second
	// DefaultFetchDeadline is the per-object timeout: once this much time
	// has passed since the first attempt, a failed object is abandoned
	// rather than retried.
	DefaultFetchDeadline = 2 * time.Minute
)

// Engine loads webpages through one of the two pipelines. An Engine performs
// one load at a time; construct it once per simulation scenario and reuse it
// for sequential loads. Not safe for concurrent use.
type Engine struct {
	clock *simtime.Clock
	radio rrc.RadioModel
	link  *netsim.Link
	cost  CostModel
	mode  Mode
	cpu   *cpu

	dormancyGuard time.Duration
	autoDormancy  bool
	radioIface    *ril.Interface
	logEvents     bool
	observer      *obs.Recorder

	fetchAttempts   int
	fetchBackoff    time.Duration
	fetchBackoffCap time.Duration
	fetchDeadline   time.Duration

	// Per-load state.
	page         *webpage.Page
	plan         *loadPlan
	res          *Result
	doneFn       func(*Result)
	loading      bool
	startAt      time.Duration
	radioJ0      float64
	cpuJ0        float64
	openWork     int
	linkRetries0 int
	linkFailed0  int

	fetched    map[string]bool
	cssApplied int
	domNodes   int

	// activeLedger is the current load's energy ledger; it outlives the load
	// (the tail phase covers post-display radio decay) and is closed by the
	// session driver or by the next Load.
	activeLedger *obs.Ledger

	// Result/ledger reuse (WithReusableResults): the same Result and Ledger
	// objects serve every load, so a steady-state visit allocates neither.
	reuseResults bool
	resBuf       *Result
	ledgerBuf    *obs.Ledger

	// Energy-aware state.
	scripts          []*scriptSlot
	nextScript       int
	scriptRunning    bool
	pendingCSS       []*webpage.Resource
	pendingImages    []*webpage.Resource
	scannedMainBytes int
	simpleDrawn      bool
	transmissionOver bool
	mainStream       *docStream
	simpleScanned    int

	// State of the one energy-aware script execution in flight (guarded by
	// scriptRunning, so a single set of fields suffices).
	eaExecSlot *scriptSlot
	eaExecEff  *jsmini.Effects
	eaExecFrag *docStream
	eaExecCost time.Duration

	// Object free lists. The engine is single-goroutine, so plain slices do;
	// in steady state every fetch, parser and script slot comes from here.
	fsFree     []*fetchState
	parserFree []*docParser
	slotFree   []*scriptSlot

	// Callbacks bound once at construction so hot-path scheduling allocates
	// nothing.
	reflowCostFn      func() time.Duration
	redrawCostFn      func() time.Duration
	styleCostFn       func() time.Duration
	layoutCostFn      func() time.Duration
	renderCostFn      func() time.Duration
	simpleCostFn      func() time.Duration
	reflowDoneNilFn   func()
	reflowDoneCloseFn func()
	reflowDoneEndFn   func()
	redrawDoneCloseFn func()
	origImageDoneFn   func()
	origCSSParsedFn   func(*webpage.Resource)
	origCSSStyledFn   func()
	eaCSSScannedFn    func(*webpage.Resource)
	addDOMNodesFn     func(int)
	cssAppliedFn      func()
	simpleShownFn     func()
	renderDoneFn      func()
	eaScriptDoneFn    func()
	forceDormantFn    func()
	deliverFn         func()
	energyProbeFn     obs.EnergyProbe
	runDoneFn         func(*Result)

	// runResult is the result Run's completion callback last delivered.
	runResult *Result

	// stateNames labels the radio's energy-probe slots, cached per profile.
	stateNames *obs.StateNames
}

// stateNamesCache holds one obs.StateNames per radio profile: slot i carries
// the cumulative joules of the backend's rrc.State(i). Ledgers share the
// cached table, so per-load ledger setup never rebuilds name strings.
var stateNamesCache sync.Map // profile string -> *obs.StateNames

// stateNamesFor returns the cached slot labels for the radio's profile.
func stateNamesFor(radio rrc.RadioModel) *obs.StateNames {
	if v, ok := stateNamesCache.Load(radio.Profile()); ok {
		return v.(*obs.StateNames)
	}
	var n obs.StateNames
	for i := 1; i < radio.NumStates(); i++ {
		n[i] = radio.StateName(rrc.State(i))
	}
	v, _ := stateNamesCache.LoadOrStore(radio.Profile(), &n)
	return v.(*obs.StateNames)
}

// The probe copies rrc's state-indexed array into an obs.EnergyVec, so the
// vector must be at least as wide as any radio backend's state space.
var _ [obs.NumEnergyStates - rrc.MaxStates]struct{}

type scriptSlot struct {
	url    string
	body   string
	ready  bool
	inline bool
}

// arrivalKind tells the shared fetch path what to do when an object arrives.
// It replaces the per-fetch onArrive closure: the handler code is a switch in
// dispatchArrival and the only per-fetch state is the pooled fetchState.
type arrivalKind int8

const (
	arriveMain arrivalKind = iota + 1
	arriveOrigScript
	arriveOrigImage
	arriveOrigCSS
	arriveOrigSubdoc
	arriveEAImage
	arriveEACSS
	arriveEASubdoc
	arriveEAScript
)

// Option configures an Engine.
type Option interface {
	apply(*Engine)
}

type optionFunc func(*Engine)

func (f optionFunc) apply(e *Engine) { f(e) }

// WithDormancyGuard overrides the delay between the end of data transmission
// and the forced radio release (energy-aware pipeline).
func WithDormancyGuard(d time.Duration) Option {
	return optionFunc(func(e *Engine) { e.dormancyGuard = d })
}

// WithoutAutoDormancy keeps the energy-aware computation reordering but
// disables the automatic radio release (used by ablation experiments).
func WithoutAutoDormancy() Option {
	return optionFunc(func(e *Engine) { e.autoDormancy = false })
}

// WithEventLog records the load timeline (object arrivals, script
// executions, displays) into Result.Events.
func WithEventLog() Option {
	return optionFunc(func(e *Engine) { e.logEvents = true })
}

// WithFetchRetryPolicy overrides the engine's fetch-hardening parameters:
// the per-object attempt budget, the initial exponential backoff and its
// cap, and the per-object deadline after which a failing fetch is abandoned
// (the page then loads without the object).
func WithFetchRetryPolicy(attempts int, backoff, backoffCap, deadline time.Duration) Option {
	return optionFunc(func(e *Engine) {
		e.fetchAttempts = attempts
		e.fetchBackoff = backoff
		e.fetchBackoffCap = backoffCap
		e.fetchDeadline = deadline
	})
}

// WithObserver streams load, transfer and phase events into r (a recorder
// registered with an obs.Collector). A nil recorder keeps the engine's
// observability hooks disabled.
func WithObserver(r *obs.Recorder) Option {
	return optionFunc(func(e *Engine) { e.observer = r })
}

// WithReusableResults makes the engine hand out the same Result and Ledger
// objects for every load instead of allocating fresh ones. The objects are
// valid until the next Load on the same engine begins; callers that keep
// results across loads (tables collecting one Result per page) must not use
// this. Session pools and fleet replays, which consume each visit's result
// before starting the next, turn it on to keep the per-visit allocation
// count flat.
func WithReusableResults() Option {
	return optionFunc(func(e *Engine) { e.reuseResults = true })
}

// WithRIL routes dormancy requests through a Radio Interface Layer endpoint
// (Section 4.4) instead of touching the radio directly. The request becomes
// an asynchronous message with hop latency and can come back BUSY, in which
// case the engine retries briefly — the behaviour an application-layer
// implementation on a closed firmware has to adopt.
func WithRIL(iface *ril.Interface) Option {
	return optionFunc(func(e *Engine) { e.radioIface = iface })
}

// NewEngine builds an engine over the given simulated radio (any
// rrc.RadioModel backend) and link.
func NewEngine(clock *simtime.Clock, radio rrc.RadioModel, link *netsim.Link,
	cost CostModel, mode Mode, opts ...Option) (*Engine, error) {
	if clock == nil || radio == nil || link == nil {
		return nil, errors.New("browser: nil clock, radio or link")
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	if mode != ModeOriginal && mode != ModeEnergyAware {
		return nil, fmt.Errorf("browser: unknown mode %d", int(mode))
	}
	e := &Engine{
		clock:           clock,
		radio:           radio,
		link:            link,
		cost:            cost,
		mode:            mode,
		cpu:             newCPU(clock, cost.CPUActiveWatts),
		dormancyGuard:   DefaultDormancyGuard,
		autoDormancy:    mode == ModeEnergyAware,
		fetchAttempts:   DefaultFetchAttempts,
		fetchBackoff:    DefaultFetchBackoff,
		fetchBackoffCap: DefaultFetchBackoffCap,
		fetchDeadline:   DefaultFetchDeadline,
	}
	for _, o := range opts {
		o.apply(e)
	}
	if e.fetchAttempts < 1 || e.fetchBackoff < 0 || e.fetchBackoffCap < e.fetchBackoff || e.fetchDeadline <= 0 {
		return nil, errors.New("browser: invalid fetch retry policy")
	}
	e.stateNames = stateNamesFor(radio)
	e.cpu.observer = e.observer
	e.bindCallbacks()
	return e, nil
}

// bindCallbacks creates the engine's reusable callbacks once, so the load
// hot path never allocates a closure for routine scheduling.
func (e *Engine) bindCallbacks() {
	e.reflowCostFn = e.reflowCost
	e.redrawCostFn = e.redrawCost
	e.styleCostFn = e.styleCost
	e.layoutCostFn = e.layoutCost
	e.renderCostFn = e.renderCost
	e.simpleCostFn = e.simpleCost
	e.reflowDoneNilFn = e.reflowDoneNil
	e.reflowDoneCloseFn = e.reflowDoneClose
	e.reflowDoneEndFn = e.reflowDoneEnd
	e.redrawDoneCloseFn = e.redrawDoneClose
	e.origImageDoneFn = e.origImageDecoded
	e.origCSSParsedFn = e.origCSSParsed
	e.origCSSStyledFn = e.origCSSStyled
	e.eaCSSScannedFn = e.eaCSSScanned
	e.addDOMNodesFn = e.addDOMNodes
	e.cssAppliedFn = e.cssAppliedTick
	e.simpleShownFn = e.simpleShown
	e.renderDoneFn = e.renderDone
	e.eaScriptDoneFn = e.eaScriptDone
	e.forceDormantFn = func() { _ = e.forceDormant() }
	e.deliverFn = e.deliver
	e.energyProbeFn = e.energyProbe
	e.runDoneFn = func(r *Result) { e.runResult = r }
}

// Mode returns the engine's pipeline.
func (e *Engine) Mode() Mode { return e.mode }

// CPUPower returns the instantaneous extra CPU power, for metering.
func (e *Engine) CPUPower() float64 { return e.cpu.Power() }

// Loading reports whether a load is in progress.
func (e *Engine) Loading() bool { return e.loading }

// Load starts loading page; done is invoked (via the clock) when the final
// display is on screen. Drive the simulation clock to make progress.
func (e *Engine) Load(page *webpage.Page, done func(*Result)) error {
	if e.loading {
		return errors.New("browser: load already in progress")
	}
	if page == nil || page.Main() == nil {
		return errors.New("browser: page has no main document")
	}
	e.page = page
	e.plan = planFor(page)
	e.doneFn = done
	e.loading = true
	e.startAt = e.clock.Now()
	e.radioJ0 = e.radio.EnergyJ()
	e.cpuJ0 = e.cpu.EnergyJ()
	e.linkRetries0 = e.link.Retries()
	e.linkFailed0 = e.link.FailedTransfers()
	e.openWork = 0
	if e.fetched == nil {
		// First load on this engine: size the discovery structures from the
		// page so the visit never grows them incrementally.
		n := page.ResourceCount()
		e.fetched = make(map[string]bool, n)
		e.scripts = make([]*scriptSlot, 0, fsSlabSize)
		e.pendingCSS = make([]*webpage.Resource, 0, fsSlabSize)
		e.pendingImages = make([]*webpage.Resource, 0, n)
	} else {
		clear(e.fetched)
	}
	e.cssApplied = 0
	e.domNodes = 0
	for i, s := range e.scripts {
		e.putSlot(s)
		e.scripts[i] = nil
	}
	e.scripts = e.scripts[:0]
	e.nextScript = 0
	e.scriptRunning = false
	for i := range e.pendingCSS {
		e.pendingCSS[i] = nil
	}
	e.pendingCSS = e.pendingCSS[:0]
	for i := range e.pendingImages {
		e.pendingImages[i] = nil
	}
	e.pendingImages = e.pendingImages[:0]
	e.scannedMainBytes = 0
	e.simpleDrawn = false
	e.transmissionOver = false
	e.mainStream = nil
	e.simpleScanned = 0
	if e.reuseResults && e.resBuf != nil {
		r := e.resBuf
		evs := r.Events[:0]
		*r = Result{PageName: page.Name, Mode: e.mode, Mobile: page.Mobile, Events: evs}
		e.res = r
	} else {
		e.res = &Result{PageName: page.Name, Mode: e.mode, Mobile: page.Mobile}
		if e.reuseResults {
			e.resBuf = e.res
		}
	}
	// Every load carries a ledger (tables want the attribution column even
	// without tracing); a still-open previous ledger ends here, so its tail
	// phase covers the inter-load reading window.
	e.CloseLedger()
	if e.reuseResults && e.ledgerBuf != nil {
		e.ledgerBuf.Reopen()
		e.activeLedger = e.ledgerBuf
	} else {
		e.activeLedger = obs.NewLedger(e.energyProbeFn, e.stateNames)
		if e.reuseResults {
			e.ledgerBuf = e.activeLedger
		}
	}
	e.activeLedger.Mark("transmission", e.clock.Now())
	e.res.Ledger = e.activeLedger

	e.fetch(page.MainURL, arriveMain, nil, nil)
	return nil
}

// energyProbe samples the device's cumulative energy for the ledger.
func (e *Engine) energyProbe() (obs.EnergyVec, float64) {
	var v obs.EnergyVec
	rv := e.radio.EnergyVec()
	copy(v[:], rv[:])
	return v, e.cpu.EnergyJ()
}

// markPhase ends the current ledger phase and opens the named one.
func (e *Engine) markPhase(name string) {
	e.activeLedger.Mark(name, e.clock.Now())
}

// CloseLedger seals the active load's energy ledger at the current simulated
// time (ending the tail phase) and emits the per-phase attribution onto the
// observer. Session drivers call it after the reading window; an unclosed
// ledger is also sealed by the next Load. Safe to call repeatedly.
func (e *Engine) CloseLedger() {
	if e.activeLedger == nil || e.activeLedger.Closed() {
		return
	}
	e.activeLedger.Close(e.clock.Now())
	e.activeLedger.EmitPhases(e.observer)
}

// Reset abandons any in-flight load and returns the engine to its
// post-construction state, keeping pooled buffers and bound callbacks. The
// caller must have reset the simulation clock first (dropping every pending
// callback) and must also reset the radio and link the engine is wired to;
// experiments.Session.Reset drives the full sequence.
func (e *Engine) Reset() {
	e.loading = false
	e.page = nil
	e.plan = nil
	e.res = nil
	e.doneFn = nil
	e.startAt = 0
	e.radioJ0 = 0
	e.cpuJ0 = 0
	e.openWork = 0
	e.linkRetries0 = 0
	e.linkFailed0 = 0
	if e.fetched != nil {
		clear(e.fetched)
	}
	e.cssApplied = 0
	e.domNodes = 0
	e.activeLedger = nil
	for i, s := range e.scripts {
		e.putSlot(s)
		e.scripts[i] = nil
	}
	e.scripts = e.scripts[:0]
	e.nextScript = 0
	e.scriptRunning = false
	for i := range e.pendingCSS {
		e.pendingCSS[i] = nil
	}
	e.pendingCSS = e.pendingCSS[:0]
	for i := range e.pendingImages {
		e.pendingImages[i] = nil
	}
	e.pendingImages = e.pendingImages[:0]
	e.scannedMainBytes = 0
	e.simpleDrawn = false
	e.transmissionOver = false
	e.mainStream = nil
	e.simpleScanned = 0
	e.eaExecSlot = nil
	e.eaExecEff = nil
	e.eaExecFrag = nil
	e.eaExecCost = 0
	e.cpu.reset()
}

// since converts an absolute clock time into load-relative time.
func (e *Engine) since(at time.Duration) time.Duration {
	return at - e.startAt
}

// fetchState is the pooled per-fetch bookkeeping: which object, which
// arrival handler, and the retry budget. Its done and retry callbacks are
// bound once on the object's first issue, so steady-state fetches allocate
// nothing.
type fetchState struct {
	e       *Engine
	res     *webpage.Resource
	kind    arrivalKind
	attempt int
	firstAt time.Duration
	parser  *docParser
	slot    *scriptSlot
	doneFn  func(error)
	retryFn func()
}

// fsSlabSize is how many fetchStates the free list grows by at a time: one
// backing allocation serves the next several fetches instead of one each.
const fsSlabSize = 8

func (e *Engine) getFS() *fetchState {
	if n := len(e.fsFree); n > 0 {
		fs := e.fsFree[n-1]
		e.fsFree[n-1] = nil
		e.fsFree = e.fsFree[:n-1]
		return fs
	}
	slab := make([]fetchState, fsSlabSize)
	if e.fsFree == nil {
		e.fsFree = make([]*fetchState, 0, 2*fsSlabSize)
	}
	for i := range slab {
		slab[i].e = e
	}
	for i := 1; i < len(slab); i++ {
		e.fsFree = append(e.fsFree, &slab[i])
	}
	return &slab[0]
}

func (e *Engine) putFS(fs *fetchState) {
	fs.res = nil
	fs.parser = nil
	fs.slot = nil
	e.fsFree = append(e.fsFree, fs)
}

func (e *Engine) getSlot() *scriptSlot {
	if n := len(e.slotFree); n > 0 {
		s := e.slotFree[n-1]
		e.slotFree[n-1] = nil
		e.slotFree = e.slotFree[:n-1]
		return s
	}
	slab := make([]scriptSlot, fsSlabSize)
	if e.slotFree == nil {
		e.slotFree = make([]*scriptSlot, 0, 2*fsSlabSize)
	}
	for i := 1; i < len(slab); i++ {
		e.slotFree = append(e.slotFree, &slab[i])
	}
	return &slab[0]
}

func (e *Engine) putSlot(s *scriptSlot) {
	*s = scriptSlot{}
	e.slotFree = append(e.slotFree, s)
}

// fetch requests url once; when the object has fully arrived the handler for
// kind runs (dispatchArrival) and must eventually close the discovery unit
// exactly once. Under fault injection a fetch can fail permanently at the
// link layer; the engine then retries with capped exponential backoff up to
// its attempt budget and deadline, and finally abandons the object — the
// load completes degraded, never hangs.
func (e *Engine) fetch(url string, kind arrivalKind, parser *docParser, slot *scriptSlot) {
	if e.fetched[url] {
		return
	}
	e.fetched[url] = true
	res, ok := e.page.Resource(url)
	if !ok {
		e.res.Missing404++
		return
	}
	e.openWork++
	fs := e.getFS()
	if fs.doneFn == nil {
		fs.doneFn = fs.done
		fs.retryFn = fs.retry
	}
	fs.res = res
	fs.kind = kind
	fs.parser = parser
	fs.slot = slot
	fs.attempt = 1
	fs.firstAt = e.clock.Now()
	fs.issue()
}

// issue starts one engine-level attempt (the link retries internally below
// this).
func (fs *fetchState) issue() {
	e := fs.e
	if err := e.link.FetchResult(fs.res.URL, fs.res.Bytes, fs.doneFn); err != nil {
		// Zero-size resources cannot exist in generated pages; account and
		// fail the unit rather than wedging the load.
		e.res.Missing404++
		e.putFS(fs)
		e.closeUnit()
	}
}

// done handles the outcome of one attempt.
func (fs *fetchState) done(ferr error) {
	e := fs.e
	if ferr != nil {
		e.fetchFailed(fs)
		return
	}
	e.recordArrival(fs.res)
	res, kind, parser, slot := fs.res, fs.kind, fs.parser, fs.slot
	e.putFS(fs)
	e.dispatchArrival(res, kind, parser, slot)
}

func (fs *fetchState) retry() {
	fs.attempt++
	fs.issue()
}

// fetchFailed decides between another backoff-delayed attempt and graceful
// abandonment (budget spent or the per-object deadline passed).
func (e *Engine) fetchFailed(fs *fetchState) {
	if fs.attempt >= e.fetchAttempts || e.clock.Now()-fs.firstAt >= e.fetchDeadline {
		e.res.FailedObjects++
		e.logEvent(EventObjectFailed, fs.res.URL)
		e.putFS(fs)
		e.closeUnit()
		return
	}
	backoff := e.fetchBackoff << (fs.attempt - 1)
	if backoff > e.fetchBackoffCap {
		backoff = e.fetchBackoffCap
	}
	e.res.FetchRetries++
	e.logEvent(EventFetchRetried, fs.res.URL)
	e.clock.Defer(backoff, fs.retryFn)
}

// dispatchArrival routes an arrived object to its pipeline-specific handler.
func (e *Engine) dispatchArrival(res *webpage.Resource, kind arrivalKind, parser *docParser, slot *scriptSlot) {
	switch kind {
	case arriveMain:
		ds := e.plan.stream(res.URL, res.Body)
		e.mainStream = ds
		e.res.PageHeightPX = ds.heightPX
		e.res.PageWidthPX = ds.widthPX
		p := e.getParser(ds, true)
		switch e.mode {
		case ModeOriginal:
			p.origStep()
		case ModeEnergyAware:
			p.eaStep()
		}
	case arriveOrigScript:
		parser.execSP = e.plan.externalScript(res.URL)
		parser.execBody = res.Body
		parser.execCloseUnit = true
		parser.startOrigExec()
	case arriveOrigImage:
		decode := perKB(e.cost.DecodeImagePerKB, res.Bytes)
		e.cpu.exec(prioHigh, decode, e.origImageDoneFn)
	case arriveOrigCSS:
		parse := perKB(e.cost.ParseCSSPerKB, res.Bytes)
		e.cpu.execRes(prioHigh, parse, e.origCSSParsedFn, res)
	case arriveOrigSubdoc:
		e.getParser(e.plan.stream(res.URL, res.Body), false).origStep()
	case arriveEAImage:
		e.pendingImages = append(e.pendingImages, res)
		e.closeUnit()
	case arriveEACSS:
		scan := perKB(e.cost.ScanCSSPerKB, res.Bytes)
		e.cpu.execRes(prioHigh, scan, e.eaCSSScannedFn, res)
	case arriveEASubdoc:
		e.getParser(e.plan.stream(res.URL, res.Body), false).eaStep()
	case arriveEAScript:
		slot.body = res.Body
		slot.ready = true
		e.eaPumpScripts()
	}
}

// closeUnit retires one unit of outstanding discovery work (a fetched
// object, a pending script, a document fragment being scanned). Callers that
// open a unit not tied to a fetch increment openWork directly.
func (e *Engine) closeUnit() {
	e.openWork--
	if e.openWork < 0 {
		panic("browser: openWork underflow (closeUnit called twice)")
	}
	if e.openWork == 0 {
		e.discoveryDone()
	}
}

// logEvent appends a timeline entry when event logging is on, and forwards
// it to the observer stream when one is attached.
func (e *Engine) logEvent(kind EventKind, detail string) {
	if e.observer != nil {
		e.observer.Record(e.clock.Now(), obs.Event{Kind: kind.String(), Detail: detail})
	}
	if !e.logEvents || e.res == nil {
		return
	}
	e.res.Events = append(e.res.Events, LoadEvent{
		At:     e.since(e.clock.Now()),
		Kind:   kind,
		Detail: detail,
	})
}

func (e *Engine) recordArrival(res *webpage.Resource) {
	e.logEvent(EventObjectArrived, res.URL)
	e.res.Objects++
	e.res.BytesDown += res.Bytes
	switch res.Type {
	case webpage.TypeJS:
		e.res.JSFiles++
		e.res.PageSizeBytes += res.Bytes
	case webpage.TypeImage:
		e.res.Images++
		e.res.ImageBytes += res.Bytes
	case webpage.TypeCSS:
		e.res.CSSFiles++
		e.res.PageSizeBytes += res.Bytes
	case webpage.TypeHTML:
		e.res.PageSizeBytes += res.Bytes
	case webpage.TypeFlash:
		e.res.ImageBytes += res.Bytes
	}
}

// discoveryDone fires when no outstanding fetches or discovery work remain.
func (e *Engine) discoveryDone() {
	if !e.loading {
		return
	}
	switch e.mode {
	case ModeOriginal:
		e.logEvent(EventTransmissionDone, "")
		e.markPhase("layout")
		// One final reflow puts the complete page on screen.
		e.cpu.execLazy(prioHigh, e.reflowCostFn, e.reflowDoneEndFn)
	case ModeEnergyAware:
		e.eaTransmissionDone()
	}
}

// runScript evaluates a script body (real execution via jsmini) and returns
// its effects plus the simulated cost. Broken scripts cost their parse time
// but have no effects, like a browser swallowing a script error.
func (e *Engine) runScript(body string) (*jsmini.Effects, time.Duration) {
	cost := perKB(e.cost.ExecJSPerKB, len(body))
	eff, err := jsmini.Run(body)
	if err != nil {
		return &jsmini.Effects{}, cost
	}
	cost += time.Duration(eff.ComputeMillis * float64(e.cost.JSComputeUnit))
	return eff, cost
}

// scriptEffects resolves a script's effects, generated-markup stream and
// simulated cost from the load plan, falling back to direct evaluation for
// scripts the plan traversal missed.
func (e *Engine) scriptEffects(sp *scriptPlan, body string) (*jsmini.Effects, *docStream, time.Duration) {
	if sp == nil {
		eff, cost := e.runScript(body)
		var frag *docStream
		if eff.HTML != "" {
			frag = buildStream(eff.HTML)
		}
		return eff, frag, cost
	}
	cost := perKB(e.cost.ExecJSPerKB, len(body))
	cost += time.Duration(sp.eff.ComputeMillis * float64(e.cost.JSComputeUnit))
	return sp.eff, sp.effStream, cost
}

// countAnchor records a secondary URL (Table 1 feature).
func (e *Engine) countAnchor() {
	e.res.SecondURLs++
}

// Reflows and redraws come in a few fixed continuation shapes (nothing,
// close a discovery unit, finish the load); each shape has a callback bound
// once so scheduling the display update allocates nothing.

func (e *Engine) reflowCost() time.Duration {
	return perNode(e.cost.LayoutPerNode+e.cost.RenderPerNode, e.domNodes)
}

func (e *Engine) redrawCost() time.Duration {
	return perNode(e.cost.RedrawPerNode, e.domNodes)
}

func (e *Engine) styleCost() time.Duration {
	return perNode(e.cost.StylePerNode, e.domNodes)
}

func (e *Engine) layoutCost() time.Duration {
	return perNode(e.cost.LayoutPerNode, e.domNodes)
}

func (e *Engine) renderCost() time.Duration {
	return perNode(e.cost.RenderPerNode, e.domNodes)
}

func (e *Engine) reflowDoneNil() {
	e.res.Reflows++
	e.maybeFirstDisplay()
}

func (e *Engine) reflowDoneClose() {
	e.res.Reflows++
	e.maybeFirstDisplay()
	e.closeUnit()
}

func (e *Engine) reflowDoneEnd() {
	e.res.Reflows++
	e.maybeFirstDisplay()
	e.finish()
}

func (e *Engine) redrawDoneClose() {
	e.res.Redraws++
	e.closeUnit()
}

// scheduleReflowNil enqueues a reflow (layout + render over the whole DOM)
// with no continuation.
func (e *Engine) scheduleReflowNil() {
	e.cpu.execLazy(prioHigh, e.reflowCostFn, e.reflowDoneNilFn)
}

// addDOMNodes is the completion of a deferred (low-priority) DOM parse task.
func (e *Engine) addDOMNodes(n int) {
	e.domNodes += n
}

// maybeFirstDisplay records the first useful intermediate display of the
// original pipeline: a reflow that had both content and style to show.
func (e *Engine) maybeFirstDisplay() {
	if e.res.FirstDisplayAt == 0 && e.cssApplied > 0 && e.domNodes > 0 {
		e.res.FirstDisplayAt = e.since(e.clock.Now())
		e.logEvent(EventFirstDisplay, "")
	}
}

// finish closes out the load and reports the result.
func (e *Engine) finish() {
	if !e.loading {
		return
	}
	e.loading = false
	now := e.clock.Now()
	e.res.FinalDisplayAt = e.since(now)
	e.logEvent(EventFinalDisplay, "")
	e.markPhase("tail")
	if start, end, ok := e.link.TransmissionWindow(); ok {
		_ = start
		e.res.TransmissionTime = e.since(end)
	}
	e.res.DOMNodes = e.domNodes
	e.res.RadioEnergyJ = e.radio.EnergyJ() - e.radioJ0
	e.res.CPUEnergyJ = e.cpu.EnergyJ() - e.cpuJ0
	e.res.LinkRetries = e.link.Retries() - e.linkRetries0
	e.res.FailedTransfers = e.link.FailedTransfers() - e.linkFailed0
	if e.doneFn != nil {
		e.clock.Defer(0, e.deliverFn)
	}
}

// deliver hands the finished Result to the load's done callback. It reads
// the fields at fire time; nothing can overwrite them between finish and the
// zero-delay delivery event.
func (e *Engine) deliver() {
	done := e.doneFn
	res := e.res
	done(res)
}
