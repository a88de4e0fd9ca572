package browser

import (
	"testing"
	"time"

	"eabrowse/internal/faults"
	"eabrowse/internal/netsim"
	"eabrowse/internal/ril"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

// newFaultyRig wires a full phone — radio, impaired link, RIL endpoint
// sharing the same injector — under an engine in the given mode.
func newFaultyRig(t *testing.T, mode Mode, cfg faults.Config, opts ...Option) *rig {
	t.Helper()
	in, err := faults.New(cfg)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	link, err := netsim.NewLink(clock, radio, netsim.DefaultConfig())
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	link.SetFaults(in)
	iface, err := ril.New(clock, radio, ril.WithFaults(in))
	if err != nil {
		t.Fatalf("ril.New: %v", err)
	}
	engine, err := NewEngine(clock, radio, link, DefaultCostModel(), mode,
		append([]Option{WithRIL(iface)}, opts...)...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return &rig{clock: clock, radio: radio, link: link, engine: engine}
}

func hasEvent(res *Result, kind EventKind) bool {
	for _, ev := range res.Events {
		if ev.Kind == kind {
			return true
		}
	}
	return false
}

// TestEnergyAwareLoadCompletesUnderHeavyFaults is the liveness acceptance
// test: at 10% and 30% loss with stalls, hard failures, and a flaky RIL all
// active at once, every energy-aware page load must reach final display —
// degraded if need be, but never hung.
func TestEnergyAwareLoadCompletesUnderHeavyFaults(t *testing.T) {
	for _, loss := range []float64{0.10, 0.30} {
		loss := loss
		t.Run(time.Duration(loss*100).String(), func(t *testing.T) {
			cfg := faults.Config{
				Seed:                21,
				LossRate:            loss,
				RTTJitter:           300 * time.Millisecond,
				StallRate:           0.10,
				StallMin:            time.Second,
				StallMax:            8 * time.Second,
				FailRate:            0.05,
				FACHCongestionRate:  0.10,
				FACHCongestionDelay: 2 * time.Second,
				RILTimeoutRate:      0.10,
				RILErrorRate:        0.05,
				RILExtraLatency:     50 * time.Millisecond,
			}
			r := newFaultyRig(t, ModeEnergyAware, cfg, WithEventLog())
			res := r.load(t, testPage(t))
			if res.FinalDisplayAt <= 0 {
				t.Fatal("no final display recorded")
			}
			if res.FailedObjects+res.FetchRetries+res.LinkRetries == 0 {
				t.Fatal("impairments this heavy left no trace in the result counters")
			}
			if res.FetchRetries > 0 && !hasEvent(res, EventFetchRetried) {
				t.Fatal("FetchRetries counted but no EventFetchRetried logged")
			}
			if res.FailedObjects > 0 && !hasEvent(res, EventObjectFailed) {
				t.Fatal("FailedObjects counted but no EventObjectFailed logged")
			}
			// Let the dormancy machinery and reading window play out; the
			// radio must end up idle no matter how the RIL behaved.
			r.clock.RunFor(2 * time.Minute)
			if got := r.radio.State(); got != rrc.StateIdle {
				t.Fatalf("radio = %v two minutes after load, want IDLE", got)
			}
		})
	}
}

// TestDormancyFailureDegradesGracefully: with every RIL response lost, the
// energy-aware engine must record the give-up on the Result, log the event,
// and leave demotion to the rrc inactivity timers instead of hanging.
func TestDormancyFailureDegradesGracefully(t *testing.T) {
	cfg := faults.Config{Seed: 22, RILTimeoutRate: 0.999}
	r := newFaultyRig(t, ModeEnergyAware, cfg, WithEventLog())
	res := r.load(t, testPage(t))
	// Run past the retry loop (attempts x (timeout + interval)) and the
	// inactivity timers.
	r.clock.RunFor(2 * time.Minute)
	if !res.DormancyFailed {
		t.Fatal("DormancyFailed not set although every RIL response was lost")
	}
	if !res.Degraded() {
		t.Fatal("Degraded() false despite dormancy failure")
	}
	if !hasEvent(res, EventDormantFailed) {
		t.Fatal("EventDormantFailed missing from the event log")
	}
	if got := r.radio.State(); got != rrc.StateIdle {
		t.Fatalf("radio = %v, want IDLE via timer fallback", got)
	}
}

// TestFetchRetryBudgetAbandonsObjects: under the default retry budget and a
// link that fails most transfers, the engine must abandon objects (counting
// them) rather than retry forever, and still finish the page.
func TestFetchRetryBudgetAbandonsObjects(t *testing.T) {
	cfg := faults.Config{Seed: 23, FailRate: 0.9}
	r := newFaultyRig(t, ModeEnergyAware, cfg, WithEventLog())
	res := r.load(t, testPage(t))
	if res.FailedObjects == 0 {
		t.Fatal("no objects abandoned at 90% hard-failure rate with the default 3-attempt budget")
	}
	if !res.Degraded() {
		t.Fatal("Degraded() false despite abandoned objects")
	}
	if !hasEvent(res, EventObjectFailed) {
		t.Fatal("EventObjectFailed missing from the event log")
	}
	if res.FailedTransfers == 0 {
		t.Fatal("link-level failed-transfer counter not surfaced on the result")
	}
	if res.FinalDisplayAt <= 0 {
		t.Fatal("page never reached final display")
	}
}

// TestOriginalModeAlsoSurvivesFaults: the hardening is not specific to the
// energy-aware policy; the original engine completes under the same mix.
func TestOriginalModeAlsoSurvivesFaults(t *testing.T) {
	cfg := faults.Config{
		Seed:      24,
		LossRate:  0.2,
		StallRate: 0.1,
		StallMin:  time.Second,
		StallMax:  6 * time.Second,
		FailRate:  0.05,
	}
	r := newFaultyRig(t, ModeOriginal, cfg)
	res := r.load(t, testPage(t))
	if res.FinalDisplayAt <= 0 {
		t.Fatal("original mode never finished under faults")
	}
}
