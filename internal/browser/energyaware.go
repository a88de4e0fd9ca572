package browser

import (
	"time"

	"eabrowse/internal/obs"
	"eabrowse/internal/ril"
	"eabrowse/internal/rrc"
	"eabrowse/internal/webpage"
)

// The energy-aware pipeline (Section 4.1-4.2): run every computation that
// can generate data transmissions first — scan HTML and CSS for references,
// execute scripts in document order — issuing fetches as early as possible
// so transfers group together. HTML is still parsed into the DOM (scripts
// may need it), but as lower-priority work that never delays discovery.
// Layout computation (CSS rule extraction, image decoding, style formatting,
// layout calculation, rendering) is deferred until the last byte arrived;
// the radio is forced dormant right after data transmission ends. One cheap
// text-only intermediate display is drawn after a third of the main document
// has been scanned (full-version pages only). The chunked scan itself lives
// on docParser (parser.go).

// eaMaybeSimpleDisplay draws the low-overhead text-only intermediate display
// once a third of the main document has been scanned (Section 4.2). Mobile
// pages skip it: their load is short enough that only the final display is
// drawn.
func (e *Engine) eaMaybeSimpleDisplay() {
	if e.simpleDrawn || e.page.Mobile {
		return
	}
	if e.scannedMainBytes*3 < e.mainStream.totalSize {
		return
	}
	e.simpleDrawn = true
	e.simpleScanned = e.scannedMainBytes
	e.cpu.execLazy(prioHigh, e.simpleCostFn, e.simpleShownFn)
}

// simpleCost scales with the content scanned when the simplified display was
// triggered; the display needs no CSS rules, styles or images.
func (e *Engine) simpleCost() time.Duration {
	nodes := estimateNodes(e.mainStream, e.simpleScanned)
	return perNode(e.cost.SimpleDisplayPerNode, nodes)
}

func (e *Engine) simpleShown() {
	if e.res.FirstDisplayAt == 0 {
		e.res.FirstDisplayAt = e.since(e.clock.Now())
		e.logEvent(EventFirstDisplay, "simplified")
	}
}

// estimateNodes counts the nodes within the first scannedBytes of a stream.
func estimateNodes(ds *docStream, scannedBytes int) int {
	nodes := 0
	seen := 0
	for _, it := range ds.items {
		if seen >= scannedBytes {
			break
		}
		seen += it.bytes
		nodes += it.nodes
	}
	return nodes
}

// eaFetchObject fetches a non-script object. During the transmission phase
// nothing but discovery work happens on arrival: CSS is scanned for more
// references, images and flash are stored in memory undecoded, subdocuments
// are scanned recursively. (The arrival handlers live in dispatchArrival.)
func (e *Engine) eaFetchObject(it item) {
	switch it.kind {
	case itemImage, itemFlash:
		e.fetch(it.url, arriveEAImage, nil, nil)
	case itemCSS:
		e.fetch(it.url, arriveEACSS, nil, nil)
	case itemSubdoc:
		e.fetch(it.url, arriveEASubdoc, nil, nil)
	}
}

// eaCSSScanned completes an arrived stylesheet's reference scan: fetch what
// it references, park it for the layout phase, close the unit.
func (e *Engine) eaCSSScanned(res *webpage.Resource) {
	for _, u := range e.plan.refs(res.URL, res.Body) {
		e.eaFetchObject(item{kind: itemImage, url: u})
	}
	e.pendingCSS = append(e.pendingCSS, res)
	e.closeUnit()
}

// eaRegisterExternalScript queues a script for in-order execution and
// fetches it.
func (e *Engine) eaRegisterExternalScript(url string) {
	if e.fetched[url] {
		return
	}
	slot := e.getSlot()
	slot.url = url
	e.scripts = append(e.scripts, slot)
	e.fetch(url, arriveEAScript, nil, slot)
}

// eaRegisterInlineScript queues an inline script (body already available).
func (e *Engine) eaRegisterInlineScript(body string) {
	slot := e.getSlot()
	slot.body = body
	slot.ready = true
	slot.inline = true
	e.scripts = append(e.scripts, slot)
	e.openWork++
	e.eaPumpScripts()
}

// eaPumpScripts executes ready scripts in document order, one at a time.
// Exactly one execution is in flight (scriptRunning), so its state lives in
// a single set of engine fields consumed by eaScriptDone.
func (e *Engine) eaPumpScripts() {
	if e.scriptRunning || e.nextScript >= len(e.scripts) {
		return
	}
	slot := e.scripts[e.nextScript]
	if !slot.ready {
		return
	}
	e.scriptRunning = true
	e.nextScript++
	var sp *scriptPlan
	if slot.inline {
		sp = e.plan.inlineScript(slot.body)
	} else {
		sp = e.plan.externalScript(slot.url)
	}
	eff, frag, cost := e.scriptEffects(sp, slot.body)
	e.eaExecSlot, e.eaExecEff, e.eaExecFrag, e.eaExecCost = slot, eff, frag, cost
	e.cpu.exec(prioHigh, cost, e.eaScriptDoneFn)
}

// eaScriptDone applies the finished script's effects and pumps the next one.
func (e *Engine) eaScriptDone() {
	slot, eff, frag, cost := e.eaExecSlot, e.eaExecEff, e.eaExecFrag, e.eaExecCost
	e.eaExecSlot, e.eaExecEff, e.eaExecFrag = nil, nil, nil
	e.res.JSRunTime += cost
	e.logEvent(EventScriptExecuted, scriptDetail(slot))
	for _, u := range eff.Fetches {
		e.eaFetchObject(item{kind: itemImage, url: u})
	}
	if frag != nil {
		e.openWork++
		e.getParser(frag, false).eaStep()
	}
	e.closeUnit()
	e.scriptRunning = false
	e.eaPumpScripts()
}

// eaTransmissionDone fires when the last discovery obligation closed: every
// object is on the device. The radio can be released and layout can start.
func (e *Engine) eaTransmissionDone() {
	if e.transmissionOver {
		return
	}
	e.transmissionOver = true
	e.logEvent(EventTransmissionDone, "")
	e.markPhase("layout")

	if e.autoDormancy {
		e.clock.Defer(e.dormancyGuard, e.forceDormantFn)
	}

	e.eaLayoutPhase()
}

// ForceDormantNow releases the radio immediately. The traced fleet engine
// (internal/experiments) calls it on phones built WithoutAutoDormancy when
// Algorithm 2, after the α wait, decides to switch the radio to IDLE.
func (e *Engine) ForceDormantNow() error {
	return e.forceDormant()
}

// Dormancy retry policy: how often and how many times the engine re-submits
// a fast-dormancy request that came back BUSY, errored, or timed out before
// giving up and leaving the radio to its inactivity timers.
const (
	dormancyAttempts      = 3
	dormancyRetryInterval = 500 * time.Millisecond
)

func (e *Engine) forceDormant() error {
	if e.observer != nil {
		path := "direct"
		if e.radioIface != nil {
			path = "ril"
		}
		e.observer.Record(e.clock.Now(), obs.Event{Kind: obs.KindDormancyRequest, Detail: path})
	}
	if e.radioIface != nil {
		// Through the RIL: asynchronous, with retries — a transfer may have
		// started between the decision and the daemon executing it (BUSY),
		// and under fault injection the daemon may also error out or lose
		// the response entirely (per-attempt timeout).
		res := e.res
		e.radioIface.ForceDormancyWithRetry(dormancyAttempts, dormancyRetryInterval, func(resp ril.Response) {
			if resp.Status == ril.StatusOK {
				if res != nil && res.DormantAt == 0 {
					res.DormantAt = e.since(e.clock.Now())
					e.logEvent(EventDormant, "via RIL")
				}
				return
			}
			// Graceful degradation: every attempt failed. Do not hang the
			// guard — record the give-up and fall back to the timer-driven
			// DCH→FACH→IDLE demotion (T1/T2 are armed whenever the radio
			// goes quiet, exactly as in the stock pipeline).
			if res != nil {
				res.DormancyFailed = true
			}
			e.logEvent(EventDormantFailed, "RIL "+resp.Status.String())
		})
		return nil
	}
	err := e.radio.ForceIdle()
	if err != nil {
		// Same fallback on the direct path: the inactivity timers will
		// demote the radio; the load just spends more energy.
		if e.res != nil {
			e.res.DormancyFailed = true
		}
		e.logEvent(EventDormantFailed, err.Error())
		return err
	}
	if e.res != nil && e.res.DormantAt == 0 {
		e.res.DormantAt = e.since(e.clock.Now())
		e.logEvent(EventDormant, "")
	}
	return nil
}

// scriptDetail labels a script slot for the event log.
func scriptDetail(slot *scriptSlot) string {
	if slot.inline {
		return "(inline script)"
	}
	return slot.url
}

// RadioState exposes the radio state (for policies and tests).
func (e *Engine) RadioState() rrc.State {
	return e.radio.State()
}

// eaLayoutPhase queues the deferred layout computation: parse all CSS,
// decode all images, then style, lay out and render the page once. All
// low-priority, so any remaining DOM parse tasks run first.
func (e *Engine) eaLayoutPhase() {
	for _, css := range e.pendingCSS {
		// The parse product is already in the load plan; only the simulated
		// parse cost is charged here.
		e.cpu.exec(prioLow, perKB(e.cost.ParseCSSPerKB, css.Bytes), e.cssAppliedFn)
	}
	for _, img := range e.pendingImages {
		e.cpu.exec(prioLow, perKB(e.cost.DecodeImagePerKB, img.Bytes), nil)
	}
	e.cpu.execLazy(prioLow, e.styleCostFn, nil)
	e.cpu.execLazy(prioLow, e.layoutCostFn, nil)
	e.cpu.execLazy(prioLow, e.renderCostFn, e.renderDoneFn)
}

func (e *Engine) cssAppliedTick() {
	e.cssApplied++
}

func (e *Engine) renderDone() {
	e.res.Reflows++
	e.finish()
}
