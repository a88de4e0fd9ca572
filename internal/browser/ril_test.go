package browser

import (
	"testing"
	"time"

	"eabrowse/internal/netsim"
	"eabrowse/internal/ril"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

// TestEnergyAwareDormancyThroughRIL checks the Section 4.4 path: with a RIL
// endpoint configured, the energy-aware pipeline's forced dormancy goes
// through the message interface and still lands the radio in IDLE.
func TestEnergyAwareDormancyThroughRIL(t *testing.T) {
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	link, err := netsim.NewLink(clock, radio, netsim.DefaultConfig())
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	iface, err := ril.New(clock, radio)
	if err != nil {
		t.Fatalf("ril.New: %v", err)
	}
	engine, err := NewEngine(clock, radio, link, DefaultCostModel(), ModeEnergyAware, WithRIL(iface), WithEventLog())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	page := testPage(t)
	var result *Result
	if err := engine.Load(page, func(r *Result) { result = r }); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for result == nil {
		if !clock.Step() {
			t.Fatal("simulation drained without result")
		}
	}
	clock.RunFor(5 * time.Second)

	if radio.State() != rrc.StateIdle {
		t.Fatalf("radio = %v, want IDLE via RIL", radio.State())
	}
	viaRIL := false
	for _, ev := range result.Events {
		viaRIL = viaRIL || (ev.Kind == EventDormant && ev.Detail == "via RIL")
	}
	if !viaRIL {
		t.Fatal("no dormancy confirmed by a successful RIL response")
	}
	if result.DormantAt == 0 {
		t.Fatal("DormantAt not recorded through the RIL path")
	}
	// The RIL adds hop latency on top of the guard.
	if gap := result.DormantAt - result.TransmissionTime; gap < DefaultDormancyGuard {
		t.Fatalf("dormancy gap %v below guard %v", gap, DefaultDormancyGuard)
	}
}
