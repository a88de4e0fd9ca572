package browser

import (
	"testing"
	"time"

	"eabrowse/internal/netsim"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
	"eabrowse/internal/webpage"
)

type rig struct {
	clock  *simtime.Clock
	radio  *rrc.Machine
	link   *netsim.Link
	engine *Engine
}

func newRig(t *testing.T, mode Mode, opts ...Option) *rig {
	t.Helper()
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	link, err := netsim.NewLink(clock, radio, netsim.DefaultConfig())
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	engine, err := NewEngine(clock, radio, link, DefaultCostModel(), mode, opts...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return &rig{clock: clock, radio: radio, link: link, engine: engine}
}

func (r *rig) load(t *testing.T, page *webpage.Page) *Result {
	t.Helper()
	result, err := r.engine.Run(page)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return result
}

func testPage(t *testing.T) *webpage.Page {
	t.Helper()
	page, err := webpage.Generate(webpage.Spec{
		Name:            "unit.example.com",
		Seed:            11,
		TextKB:          16,
		Sections:        4,
		Images:          6,
		ImageKBMin:      3,
		ImageKBMax:      6,
		Stylesheets:     1,
		CSSKB:           8,
		CSSRules:        80,
		CSSImages:       1,
		Scripts:         2,
		ScriptKB:        4,
		ScriptFetches:   2,
		ScriptComputeMS: 100,
		InlineScripts:   1,
		Subdocs:         1,
		SubdocTextKB:    3,
		SubdocImages:    1,
		Anchors:         5,
		PageHeightPX:    2000,
		PageWidthPX:     800,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return page
}

func TestNewEngineValidation(t *testing.T) {
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	link, err := netsim.NewLink(clock, radio, netsim.DefaultConfig())
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	if _, err := NewEngine(nil, radio, link, DefaultCostModel(), ModeOriginal); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewEngine(clock, radio, link, DefaultCostModel(), Mode(0)); err == nil {
		t.Fatal("invalid mode accepted")
	}
	bad := DefaultCostModel()
	bad.ChunkBytes = 0
	if _, err := NewEngine(clock, radio, link, bad, ModeOriginal); err == nil {
		t.Fatal("invalid cost model accepted")
	}
}

func TestCostModelValidate(t *testing.T) {
	good := DefaultCostModel()
	if err := good.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := good
	bad.ExecJSPerKB = -time.Millisecond
	if err := bad.Validate(); err == nil {
		t.Fatal("negative cost accepted")
	}
	bad = good
	bad.CPUActiveWatts = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative watts accepted")
	}
}

func TestBothPipelinesDownloadEverything(t *testing.T) {
	page := testPage(t)
	for _, mode := range []Mode{ModeOriginal, ModeEnergyAware} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode)
			res := r.load(t, page)
			if res.Objects != page.ResourceCount() {
				t.Fatalf("Objects = %d, want %d", res.Objects, page.ResourceCount())
			}
			if res.BytesDown != page.TotalBytes() {
				t.Fatalf("BytesDown = %d, want %d", res.BytesDown, page.TotalBytes())
			}
			if res.Missing404 != 0 {
				t.Fatalf("Missing404 = %d", res.Missing404)
			}
		})
	}
}

func TestPipelinesBuildSameDOM(t *testing.T) {
	page := testPage(t)
	orig := newRig(t, ModeOriginal).load(t, page)
	aware := newRig(t, ModeEnergyAware).load(t, page)
	if orig.DOMNodes != aware.DOMNodes {
		t.Fatalf("DOM differs: original %d vs energy-aware %d", orig.DOMNodes, aware.DOMNodes)
	}
	if orig.DOMNodes == 0 {
		t.Fatal("empty DOM")
	}
	if orig.SecondURLs != aware.SecondURLs {
		t.Fatalf("SecondURLs differ: %d vs %d", orig.SecondURLs, aware.SecondURLs)
	}
}

func TestEnergyAwareShortensTransmission(t *testing.T) {
	page := testPage(t)
	orig := newRig(t, ModeOriginal).load(t, page)
	aware := newRig(t, ModeEnergyAware).load(t, page)
	if aware.TransmissionTime >= orig.TransmissionTime {
		t.Fatalf("energy-aware transmission %v not shorter than original %v",
			aware.TransmissionTime, orig.TransmissionTime)
	}
}

func TestEnergyAwareForcesDormancy(t *testing.T) {
	page := testPage(t)
	r := newRig(t, ModeEnergyAware)
	res := r.load(t, page)
	// Run past the dormancy guard and release delay.
	r.clock.RunFor(5 * time.Second)
	if got := r.radio.State(); got != rrc.StateIdle {
		t.Fatalf("radio = %v after energy-aware load, want IDLE", got)
	}
	if res.DormantAt == 0 {
		// DormantAt may be recorded after the result is delivered; check the
		// engine's view instead.
		if r.engine.RadioState() != rrc.StateIdle {
			t.Fatal("dormancy never recorded")
		}
	}
}

func TestOriginalFollowsTimers(t *testing.T) {
	page := testPage(t)
	r := newRig(t, ModeOriginal)
	r.load(t, page)
	cfg := r.radio.Config()
	// Right after load the radio is still on dedicated channels.
	if got := r.radio.State(); got != rrc.StateDCH {
		t.Fatalf("radio = %v right after original load, want DCH", got)
	}
	r.clock.RunFor(cfg.T1 + time.Second)
	if got := r.radio.State(); got != rrc.StateFACH {
		t.Fatalf("radio = %v after T1, want FACH", got)
	}
	r.clock.RunFor(cfg.T2)
	if got := r.radio.State(); got != rrc.StateIdle {
		t.Fatalf("radio = %v after T2, want IDLE", got)
	}
}

func TestWithoutAutoDormancyKeepsRadioUp(t *testing.T) {
	page := testPage(t)
	r := newRig(t, ModeEnergyAware, WithoutAutoDormancy())
	r.load(t, page)
	r.clock.RunFor(2 * time.Second)
	if got := r.radio.State(); got == rrc.StateIdle || got == rrc.StateReleasing {
		t.Fatalf("radio = %v with auto-dormancy disabled", got)
	}
}

func TestDormancyGuardHonored(t *testing.T) {
	page := testPage(t)
	r := newRig(t, ModeEnergyAware, WithDormancyGuard(6*time.Second))
	res := r.load(t, page)
	r.clock.RunFor(10 * time.Second)
	if res.DormantAt == 0 {
		t.Fatal("never went dormant")
	}
	gap := res.DormantAt - res.TransmissionTime
	if gap < 6*time.Second {
		t.Fatalf("dormancy %v after transmission, want >= 6s", gap)
	}
}

func TestOriginalRedrawsAndReflows(t *testing.T) {
	page := testPage(t)
	orig := newRig(t, ModeOriginal).load(t, page)
	aware := newRig(t, ModeEnergyAware).load(t, page)
	if orig.Redraws == 0 || orig.Reflows < 2 {
		t.Fatalf("original redraws=%d reflows=%d, want plenty", orig.Redraws, orig.Reflows)
	}
	if aware.Redraws != 0 {
		t.Fatalf("energy-aware redraws = %d, want 0", aware.Redraws)
	}
	if aware.Reflows != 1 {
		t.Fatalf("energy-aware reflows = %d, want exactly the final one", aware.Reflows)
	}
}

func TestEnergyAwareLayoutAfterTransmission(t *testing.T) {
	page := testPage(t)
	res := newRig(t, ModeEnergyAware).load(t, page)
	if res.LayoutTime() <= 0 {
		t.Fatalf("LayoutTime = %v, want positive (deferred layout)", res.LayoutTime())
	}
	if res.FinalDisplayAt <= res.TransmissionTime {
		t.Fatalf("final display %v not after transmission %v", res.FinalDisplayAt, res.TransmissionTime)
	}
}

func TestIntermediateDisplayFullVsMobile(t *testing.T) {
	full := testPage(t) // not mobile
	res := newRig(t, ModeEnergyAware).load(t, full)
	if res.FirstDisplayAt == 0 {
		t.Fatal("full-version page has no simplified intermediate display")
	}
	if res.FirstDisplayAt >= res.FinalDisplayAt {
		t.Fatal("intermediate display not before final display")
	}

	mobileSpec := webpage.Spec{
		Name: "m.unit.example.com", Mobile: true, Seed: 3,
		TextKB: 6, Sections: 2, Images: 3, ImageKBMin: 2, ImageKBMax: 4,
		Stylesheets: 1, CSSKB: 4, CSSRules: 40,
		Scripts: 1, ScriptKB: 2, ScriptFetches: 1,
	}
	mobile, err := webpage.Generate(mobileSpec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	mres := newRig(t, ModeEnergyAware).load(t, mobile)
	if mres.FirstDisplayAt != 0 {
		t.Fatalf("mobile energy-aware drew an intermediate display at %v", mres.FirstDisplayAt)
	}
}

func TestFeatureExtraction(t *testing.T) {
	page := testPage(t)
	res := newRig(t, ModeEnergyAware).load(t, page)
	if res.PageHeightPX != 2000 || res.PageWidthPX != 800 {
		t.Fatalf("geometry = %dx%d, want 800x2000", res.PageWidthPX, res.PageHeightPX)
	}
	if res.JSFiles != 2 {
		t.Fatalf("JSFiles = %d, want 2", res.JSFiles)
	}
	if res.CSSFiles != 1 {
		t.Fatalf("CSSFiles = %d, want 1", res.CSSFiles)
	}
	if res.JSRunTime <= 0 {
		t.Fatal("JSRunTime not recorded")
	}
	if res.SecondURLs != 5 {
		t.Fatalf("SecondURLs = %d, want 5", res.SecondURLs)
	}
	// Images: 6 static + 1 CSS bg + 2*2 script-fetched + 1 subdoc = 12.
	if res.Images != 12 {
		t.Fatalf("Images = %d, want 12", res.Images)
	}
	if res.ImageBytes <= 0 || res.PageSizeBytes <= 0 {
		t.Fatalf("sizes: images %d page %d", res.ImageBytes, res.PageSizeBytes)
	}
	if res.PageSizeBytes+res.ImageBytes != res.BytesDown {
		t.Fatalf("size split %d+%d != %d", res.PageSizeBytes, res.ImageBytes, res.BytesDown)
	}
}

func TestEnergyAccounting(t *testing.T) {
	page := testPage(t)
	for _, mode := range []Mode{ModeOriginal, ModeEnergyAware} {
		res := newRig(t, mode).load(t, page)
		if res.CPUEnergyJ <= 0 {
			t.Fatalf("%v: CPU energy %v", mode, res.CPUEnergyJ)
		}
		if res.RadioEnergyJ <= 0 {
			t.Fatalf("%v: radio energy %v", mode, res.RadioEnergyJ)
		}
		if res.TotalEnergyJ() != res.CPUEnergyJ+res.RadioEnergyJ {
			t.Fatal("TotalEnergyJ mismatch")
		}
	}
}

func TestLoadRejectsConcurrentLoad(t *testing.T) {
	page := testPage(t)
	r := newRig(t, ModeOriginal)
	if err := r.engine.Load(page, nil); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := r.engine.Load(page, nil); err == nil {
		t.Fatal("second concurrent Load accepted")
	}
}

func TestLoadRejectsNilPage(t *testing.T) {
	r := newRig(t, ModeOriginal)
	if err := r.engine.Load(nil, nil); err == nil {
		t.Fatal("nil page accepted")
	}
}

func TestSequentialLoadsOnOneEngine(t *testing.T) {
	page := testPage(t)
	r := newRig(t, ModeEnergyAware)
	first := r.load(t, page)
	r.clock.RunFor(10 * time.Second)
	second := r.load(t, page)
	if first.Objects != second.Objects {
		t.Fatalf("objects differ across loads: %d vs %d", first.Objects, second.Objects)
	}
	if second.FinalDisplayAt <= 0 {
		t.Fatalf("second load final display %v", second.FinalDisplayAt)
	}
}

func TestDeterministicResults(t *testing.T) {
	page := testPage(t)
	a := newRig(t, ModeEnergyAware).load(t, page)
	b := newRig(t, ModeEnergyAware).load(t, page)
	if a.FinalDisplayAt != b.FinalDisplayAt || a.TransmissionTime != b.TransmissionTime {
		t.Fatalf("nondeterministic loads: %+v vs %+v", a, b)
	}
	if a.TotalEnergyJ() != b.TotalEnergyJ() {
		t.Fatalf("nondeterministic energy: %v vs %v", a.TotalEnergyJ(), b.TotalEnergyJ())
	}
}

func TestMissingResourceTolerated(t *testing.T) {
	// A page whose HTML references an object that does not exist.
	spec := webpage.Spec{
		Name: "broken.example.com", Seed: 5,
		TextKB: 4, Sections: 2, Images: 2, ImageKBMin: 2, ImageKBMax: 3,
		Stylesheets: 1, CSSKB: 3, CSSRules: 20,
	}
	page, err := webpage.Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	main := page.Main()
	main.Body += `<img src="broken.example.com/img/missing.png">`
	main.Bytes = len(main.Body)

	for _, mode := range []Mode{ModeOriginal, ModeEnergyAware} {
		res := newRig(t, mode).load(t, page)
		if res.Missing404 != 1 {
			t.Fatalf("%v: Missing404 = %d, want 1", mode, res.Missing404)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeOriginal.String() != "original" || ModeEnergyAware.String() != "energy-aware" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("unknown mode name = %q", Mode(9).String())
	}
}

func TestBuildStreamByteAttribution(t *testing.T) {
	src := `<html><body><p>hello world</p><img src="a.png"><script>fetch("b");</script></body></html>`
	ds := buildStream(src)
	total := 0
	for _, it := range ds.items {
		total += it.bytes
	}
	if total != len(src) {
		t.Fatalf("item bytes sum %d != source length %d", total, len(src))
	}
}

func TestBuildStreamGeometry(t *testing.T) {
	ds := buildStream(`<body data-width="320" data-height="1500"></body>`)
	if ds.widthPX != 320 || ds.heightPX != 1500 {
		t.Fatalf("geometry = %dx%d", ds.widthPX, ds.heightPX)
	}
}

func TestCPUPriorities(t *testing.T) {
	clock := simtime.NewClock()
	c := newCPU(clock, 0.35)
	var order []string
	c.exec(prioLow, time.Second, func() { order = append(order, "low1") })
	c.exec(prioHigh, time.Second, func() { order = append(order, "high1") })
	c.exec(prioHigh, time.Second, func() { order = append(order, "high2") })
	c.exec(prioLow, time.Second, func() { order = append(order, "low2") })
	clock.Run()
	// low1 starts first (queue was empty), then both highs preempt queued low2.
	want := []string{"low1", "high1", "high2", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if !c.idle() {
		t.Fatal("cpu not idle after drain")
	}
	if c.BusyTime() != 4*time.Second {
		t.Fatalf("BusyTime = %v, want 4s", c.BusyTime())
	}
	if got, want := c.EnergyJ(), 0.35*4; got != want {
		t.Fatalf("EnergyJ = %v, want %v", got, want)
	}
}

func TestCPUHighIdle(t *testing.T) {
	clock := simtime.NewClock()
	c := newCPU(clock, 0.1)
	if !c.highIdle() {
		t.Fatal("fresh cpu not high-idle")
	}
	c.exec(prioHigh, time.Second, nil)
	if c.highIdle() {
		t.Fatal("high-idle with running high task")
	}
	clock.Run()
	c.exec(prioLow, time.Second, nil)
	if !c.highIdle() {
		t.Fatal("not high-idle with only low work")
	}
	clock.Run()
}

func TestCPUPower(t *testing.T) {
	clock := simtime.NewClock()
	c := newCPU(clock, 0.35)
	if c.Power() != 0 {
		t.Fatal("idle cpu draws power")
	}
	c.exec(prioHigh, time.Second, nil)
	if c.Power() != 0.35 {
		t.Fatalf("busy power = %v", c.Power())
	}
	clock.Run()
	if c.Power() != 0 {
		t.Fatal("drained cpu draws power")
	}
}

func TestEventLogOrdering(t *testing.T) {
	page := testPage(t)
	for _, mode := range []Mode{ModeOriginal, ModeEnergyAware} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, mode, WithEventLog())
			res := r.load(t, page)
			if len(res.Events) == 0 {
				t.Fatal("no events logged")
			}
			for i := 1; i < len(res.Events); i++ {
				if res.Events[i].At < res.Events[i-1].At {
					t.Fatalf("events out of order: %+v before %+v",
						res.Events[i-1], res.Events[i])
				}
			}
			last := res.Events[len(res.Events)-1]
			if last.Kind != EventFinalDisplay {
				t.Fatalf("last event = %v, want final-display", last.Kind)
			}
			arrivals := 0
			scripts := 0
			transmissionDone := 0
			for _, ev := range res.Events {
				switch ev.Kind {
				case EventObjectArrived:
					arrivals++
				case EventScriptExecuted:
					scripts++
				case EventTransmissionDone:
					transmissionDone++
				}
			}
			if arrivals != res.Objects {
				t.Fatalf("logged %d arrivals, result says %d objects", arrivals, res.Objects)
			}
			if scripts == 0 {
				t.Fatal("no script executions logged")
			}
			if transmissionDone != 1 {
				t.Fatalf("transmission-done logged %d times", transmissionDone)
			}
		})
	}
}

func TestEventLogOffByDefault(t *testing.T) {
	page := testPage(t)
	res := newRig(t, ModeEnergyAware).load(t, page)
	if len(res.Events) != 0 {
		t.Fatalf("events logged without WithEventLog: %d", len(res.Events))
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EventObjectArrived:    "object-arrived",
		EventScriptExecuted:   "script-executed",
		EventFirstDisplay:     "first-display",
		EventTransmissionDone: "transmission-done",
		EventDormant:          "radio-dormant",
		EventFinalDisplay:     "final-display",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Fatalf("EventKind(%d) = %q, want %q", int(k), got, want)
		}
	}
	if EventKind(42).String() != "EventKind(42)" {
		t.Fatal("unknown event kind name wrong")
	}
}
