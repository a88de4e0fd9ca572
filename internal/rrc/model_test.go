package rrc

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"eabrowse/internal/simtime"
)

// allSpecs returns every built-in backend spec, in registry order.
func allSpecs(t *testing.T) []ModelSpec {
	t.Helper()
	out := make([]ModelSpec, 0, len(Profiles()))
	for _, name := range Profiles() {
		spec, err := ProfileSpec(name)
		if err != nil {
			t.Fatalf("ProfileSpec(%q): %v", name, err)
		}
		if spec.Profile() != name {
			t.Fatalf("ProfileSpec(%q).Profile() = %q", name, spec.Profile())
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %q invalid: %v", name, err)
		}
		out = append(out, spec)
	}
	return out
}

func newModel(t *testing.T, spec ModelSpec) (*simtime.Clock, RadioModel) {
	t.Helper()
	clock := simtime.NewClock()
	m, err := spec.New(clock)
	if err != nil {
		t.Fatalf("%s: New: %v", spec.Profile(), err)
	}
	return clock, m
}

// transferOnce promotes, runs one d-long transfer, and returns to inactivity.
func transferOnce(t *testing.T, clock *simtime.Clock, m RadioModel, d time.Duration) {
	t.Helper()
	active := false
	m.RequestActive(func() { active = true })
	// Step, don't Run: draining the whole queue would also fire the
	// inactivity demotions and settle the radio back to idle.
	for !active && clock.Step() {
	}
	if !active {
		t.Fatalf("%s: RequestActive callback never ran", m.Profile())
	}
	if err := m.BeginTransfer(); err != nil {
		t.Fatalf("%s: BeginTransfer: %v", m.Profile(), err)
	}
	clock.RunFor(d)
	if err := m.EndTransfer(); err != nil {
		t.Fatalf("%s: EndTransfer: %v", m.Profile(), err)
	}
}

func TestProfileSpecUnknownNameListsValid(t *testing.T) {
	_, err := ProfileSpec("wimax")
	if err == nil {
		t.Fatal("ProfileSpec(wimax) succeeded")
	}
	want := `rrc: unknown radio profile "wimax" (have: lte, nr, umts)`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err.Error(), want)
	}
}

// TestConformanceEnergyMonotone drives each backend through a busy script
// and checks that EnergyJ never decreases and EnergyVec always sums to it.
func TestConformanceEnergyMonotone(t *testing.T) {
	for _, spec := range allSpecs(t) {
		t.Run(spec.Profile(), func(t *testing.T) {
			clock, m := newModel(t, spec)
			last := 0.0
			check := func(where string) {
				e := m.EnergyJ()
				if e < last-1e-12 {
					t.Fatalf("%s: energy decreased %v -> %v", where, last, e)
				}
				last = e
				sum := 0.0
				for _, v := range m.EnergyVec() {
					sum += v
				}
				if math.Abs(sum-e) > 1e-9*(1+e) {
					t.Fatalf("%s: EnergyVec sums to %v, EnergyJ %v", where, sum, e)
				}
			}
			check("fresh")
			clock.RunFor(2 * time.Second)
			check("idle wait")
			transferOnce(t, clock, m, 700*time.Millisecond)
			check("first transfer")
			tail := m.Tail()
			clock.RunFor(tail.TotalDwell() / 2)
			check("mid tail")
			transferOnce(t, clock, m, 50*time.Millisecond)
			check("second transfer")
			clock.RunFor(tail.TotalDwell() + time.Second)
			check("full tail")
			if err := m.ForceIdle(); err != nil {
				t.Fatalf("ForceIdle after settling: %v", err)
			}
			clock.Run()
			check("after force idle")
		})
	}
}

// TestConformanceReset checks Reset restores a fresh radio: a reset model
// must reproduce a fresh model's energy trace exactly.
func TestConformanceReset(t *testing.T) {
	script := func(clock *simtime.Clock, m RadioModel) []float64 {
		var samples []float64
		transferOnce(t, clock, m, 300*time.Millisecond)
		samples = append(samples, m.EnergyJ())
		clock.RunFor(3 * time.Second)
		samples = append(samples, m.EnergyJ())
		transferOnce(t, clock, m, 90*time.Millisecond)
		tail := m.Tail()
		clock.RunFor(tail.TotalDwell() + 500*time.Millisecond)
		samples = append(samples, m.EnergyJ(), m.RadioPower(), float64(m.State()))
		return samples
	}
	for _, spec := range allSpecs(t) {
		t.Run(spec.Profile(), func(t *testing.T) {
			clock, m := newModel(t, spec)
			fresh := script(clock, m)

			clock.Reset()
			m.Reset()
			if m.State() != StateIdle {
				t.Fatalf("state after Reset = %v", m.State())
			}
			if e := m.EnergyJ(); e != 0 {
				t.Fatalf("EnergyJ after Reset = %v", e)
			}
			if len(m.Residency()) != 1 {
				// Only the zero-duration current state entry.
				t.Fatalf("Residency after Reset = %v", m.Residency())
			}
			if _, armed := m.NextDemotion(); armed {
				t.Fatal("demotion timer still armed after Reset")
			}
			again := script(clock, m)
			if len(fresh) != len(again) {
				t.Fatalf("sample counts differ: %d vs %d", len(fresh), len(again))
			}
			for i := range fresh {
				if fresh[i] != again[i] {
					t.Fatalf("sample %d differs after Reset: %v vs %v", i, fresh[i], again[i])
				}
			}
		})
	}
}

// TestConformanceTransferInvariants checks the BeginTransfer/EndTransfer/
// ForceIdle/StableState contract on every backend.
func TestConformanceTransferInvariants(t *testing.T) {
	for _, spec := range allSpecs(t) {
		t.Run(spec.Profile(), func(t *testing.T) {
			clock, m := newModel(t, spec)
			tail := m.Tail()

			if !m.StableState(m.State()) || m.State() != StateIdle {
				t.Fatalf("fresh radio in %v", m.State())
			}
			if err := m.BeginTransfer(); err == nil {
				t.Fatal("BeginTransfer succeeded outside the active state")
			}
			if err := m.ForceIdle(); err != nil {
				t.Fatalf("ForceIdle when idle: %v", err)
			}

			m.RequestActive(func() {})
			if m.StableState(m.State()) {
				t.Fatalf("promotion state %v reported stable", m.State())
			}
			if err := m.ForceIdle(); err != ErrBusy {
				t.Fatalf("ForceIdle mid-promotion = %v, want ErrBusy", err)
			}
			for m.State() != tail.Active.State && clock.Step() {
			}
			if m.State() != tail.Active.State || !m.StableState(m.State()) {
				t.Fatalf("after promotion in %v, want active %v", m.State(), tail.Active.State)
			}
			if _, armed := m.NextDemotion(); !armed {
				t.Fatal("no demotion armed in idle active state")
			}

			if err := m.BeginTransfer(); err != nil {
				t.Fatalf("BeginTransfer: %v", err)
			}
			if !m.Transferring() {
				t.Fatal("Transferring false during transfer")
			}
			if _, armed := m.NextDemotion(); armed {
				t.Fatal("demotion armed during transfer")
			}
			if err := m.ForceIdle(); err != ErrBusy {
				t.Fatalf("ForceIdle mid-transfer = %v, want ErrBusy", err)
			}
			clock.RunFor(200 * time.Millisecond)
			if err := m.EndTransfer(); err != nil {
				t.Fatalf("EndTransfer: %v", err)
			}
			if err := m.EndTransfer(); err == nil {
				t.Fatal("second EndTransfer succeeded")
			}
			at, armed := m.NextDemotion()
			if !armed {
				t.Fatal("demotion not re-armed after last transfer")
			}
			if want := clock.Now() + tail.Active.Dwell; at != want {
				t.Fatalf("demotion deadline %v, want %v", at, want)
			}

			// Walk the whole ladder: the radio must settle in the terminal
			// stage, visiting each stage for exactly its dwell.
			clock.RunFor(tail.TotalDwell() + time.Second)
			if m.State() != tail.Terminal().State {
				t.Fatalf("settled in %v, want terminal %v", m.State(), tail.Terminal().State)
			}
			for i := 0; i < tail.NumStages()-1; i++ {
				st := tail.Stage(i)
				got := m.TimeIn(st.State)
				if got < st.Dwell {
					t.Fatalf("stage %s residency %v < dwell %v", st.Name, got, st.Dwell)
				}
			}
		})
	}
}

// TestConformanceTailMatchesMachine checks the closed-form TailProfile
// against the event-driven machine: energy over the settle-out window after
// a transfer must equal the sum of stage dwell x power plus terminal power
// for the remainder.
func TestConformanceTailMatchesMachine(t *testing.T) {
	const extra = 5 * time.Second
	for _, spec := range allSpecs(t) {
		t.Run(spec.Profile(), func(t *testing.T) {
			clock, m := newModel(t, spec)
			tail := m.Tail()
			transferOnce(t, clock, m, time.Second)
			before := m.EnergyJ()
			clock.RunFor(tail.TotalDwell() + extra)
			got := m.EnergyJ() - before

			want := 0.0
			for i := 0; i < tail.NumStages(); i++ {
				st := tail.Stage(i)
				want += st.PowerW * st.Dwell.Seconds()
			}
			want += tail.Terminal().PowerW * extra.Seconds()
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("tail energy %v, closed form %v", got, want)
			}
		})
	}
}

// TestConformanceTailShape sanity-checks every Tail description against its
// spec's naming and indexing.
func TestConformanceTailShape(t *testing.T) {
	for _, spec := range allSpecs(t) {
		t.Run(spec.Profile(), func(t *testing.T) {
			tail := spec.Tail()
			if tail.Profile != spec.Profile() {
				t.Fatalf("tail profile %q, spec %q", tail.Profile, spec.Profile())
			}
			if got := tail.StageIndexOf(tail.Active.State); got != 0 {
				t.Fatalf("StageIndexOf(active) = %d", got)
			}
			if tail.Terminal().State != StateIdle {
				t.Fatalf("terminal state %v, want %v", tail.Terminal().State, StateIdle)
			}
			if tail.Terminal().Dwell != 0 {
				t.Fatalf("terminal dwell %v, want 0", tail.Terminal().Dwell)
			}
			if got := tail.StageIndexOf(tail.Releasing); got != -1 {
				t.Fatalf("StageIndexOf(releasing) = %d, want -1", got)
			}
			for i := 0; i < tail.NumStages(); i++ {
				st := tail.Stage(i)
				if got := spec.StateName(st.State); got != st.Name {
					t.Fatalf("stage %d name %q, StateName %q", i, st.Name, got)
				}
				if got := tail.StageIndexOf(st.State); got != i {
					t.Fatalf("StageIndexOf(%s) = %d, want %d", st.Name, got, i)
				}
				if i > 0 && st.PowerW > tail.Stage(i-1).PowerW {
					t.Fatalf("power increases down the tail at stage %d", i)
				}
				if i > 0 && st.PromoLatency <= 0 {
					t.Fatalf("stage %s has no promotion latency", st.Name)
				}
			}
			if spec.NumStates() > MaxStates {
				t.Fatalf("NumStates %d exceeds MaxStates", spec.NumStates())
			}
		})
	}
}

// TestRadioBitsPin runs one script on every backend and pins, after each
// step, the state, the bits of EnergyJ and of every EnergyVec slot, the
// residency of every state, the pending demotion and the transition count.
// The golden traces round energies to 6 decimals, so this is the check that
// catches a last-bit move in the radio accounting.
//
// The lte and nr rows from "after active dwell" onward record today's late
// demotion: the release leaves the lower rung's demotion entry queued, and
// simtime.Timer fires the re-armed CONNECTED dwell at that stale, later
// deadline. A fix to the timer's early re-arm must re-pin those rows.
func TestRadioBitsPin(t *testing.T) {
	want := map[string][]string{
		"umts": {
			"idle lead-in: s=1 e=3fc7b425e9bd8127 v=0,3fc7b425e9bd8127,0,0,0,0,0,0 t=1234567891,0,0,0,0,0 d=0/false h=0",
			"promote: s=3 e=4019f0d462811f3c v=0,3fc7b425e9bd8127,0,0,4019333333333333,0,0,0 t=1234567891,0,0,1750000000,0,0 d=6984567891/true h=2",
			"begin A: s=3 e=401b8696f1dd4832 v=0,3fc7b425e9bd8127,0,3fd95c28f5c28f5c,4019333333333333,0,0,0 t=1234567891,0,317000000,1750000000,0,0 d=0/false h=2",
			"begin B: s=3 e=401c94ab6cbe8fe0 v=0,3fc7b425e9bd8127,0,3fe51eb851eb851e,4019333333333333,0,0,0 t=1234567891,0,528000000,1750000000,0,0 d=0/false h=2",
			"end A: s=3 e=401ebee8dd6266ea v=0,3fc7b425e9bd8127,0,3ff33851eb851eb8,4019333333333333,0,0,0 t=1234567891,0,961000000,1750000000,0,0 d=0/false h=2",
			"end B: s=3 e=401ebee8dd6266ea v=0,3fc7b425e9bd8127,0,3ff33851eb851eb8,4019333333333333,0,0,0 t=1234567891,0,961000000,1750000000,0,0 d=7945567891/true h=2",
			"decay one rung: s=2 e=4028e77cf3baf311 v=0,3fc7b425e9bd8127,3fc5355475a31a4c,4017347ae147ae14,4019333333333333,0,0,0 t=1234567891,263000000,4961000000,1750000000,0,0 d=22945567891/true h=3",
			"touch shared: s=2 e=402a4fc9a112af91 v=0,3fc7b425e9bd8127,3febd21ff2e48e8a,4017347ae147ae14,4019333333333333,0,0,0 t=1234567891,1380000000,4961000000,1750000000,0,0 d=23208567891/true h=3",
			"partial decay: s=2 e=402d4468e8acbe42 v=0,3fc7b425e9bd8127,4002c7051b215e6a,4017347ae147ae14,4019333333333333,0,0,0 t=1234567891,3725678901,4961000000,1750000000,0,0 d=23208567891/true h=3",
			"force idle: s=6 e=402e4468e8acbe42 v=0,3fc7b425e9bd8127,4002c7051b215e6a,4017347ae147ae14,4019333333333333,0,3fe0000000000000,0 t=1234567891,3725678901,4961000000,1750000000,0,0 d=0/false h=4",
			"request during release: s=6 e=402e4468e8acbe42 v=0,3fc7b425e9bd8127,4002c7051b215e6a,4017347ae147ae14,4019333333333333,0,3fe0000000000000,0 t=1234567891,3725678901,4961000000,1750000000,0,0 d=0/false h=4",
			"re-promoted: s=3 e=4036023474565f20 v=0,3fc7b425e9bd8127,4002c7051b215e6a,4017347ae147ae14,4029333333333333,0,3ff1333333333333,0 t=1234567891,3725678901,4961000000,3500000000,0,500000000 d=17921246792/true h=7",
			"after active dwell: s=2 e=403aafa47067bd17 v=0,3fc7b425e9bd8127,400365b82edf8150,4024cd70a3d70a3d,4029333333333333,0,3ff1333333333333,0 t=1234567891,3848678901,8961000000,3500000000,0,500000000 d=32921246792/true h=8",
			"full decay: s=1 e=404269dd3262e432 v=0,3fee842deec2ef3d,40279827ad2ebe00,4024cd70a3d70a3d,4029333333333333,0,3ff1333333333333,0 t=6357567891,18725678901,8961000000,3500000000,0,500000000 d=0/false h=9",
			"settle: s=1 e=4043ef9fc1bf0d28 v=0,400ffd3471734b2a,40279827ad2ebe00,4024cd70a3d70a3d,4029333333333333,0,3ff1333333333333,0 t=26657567891,18725678901,8961000000,3500000000,0,500000000 d=0/false h=9",
			"promote from idle: s=3 e=404716062825738d v=0,400ffd3471734b2a,40279827ad2ebe00,4024cd70a3d70a3d,4032e66666666666,0,3ff1333333333333,0 t=26657567891,18725678901,8961000000,5250000000,0,500000000 d=64094246792/true h=11",
			"reset: s=1 e=0 v=0,0,0,0,0,0,0,0 t=0,0,0,0,0,0 d=0/false h=0",
			"second promotion: s=3 e=401e0fec56d5cfaa v=0,0,0,3ff372e48e8a71de,4019333333333333,0,0,0 t=0,0,1057000000,1750000000,0,0 d=5750000000/true h=2",
		},
		"lte": {
			"idle lead-in: s=1 e=3fc2f684bafe00ec v=0,3fc2f684bafe00ec,0,0,0,0,0,0 t=1234567891,0,0,0,0,0 d=0/false h=0",
			"promote: s=4 e=3ff69828a7c20df0 v=0,3fc2f684bafe00ec,0,0,0,3ff4395810624dd3,0,0 t=1234567891,0,0,0,260000000,0 d=1994567891/true h=2",
			"begin A: s=4 e=3ffeb5a6670a8dbc v=0,3fc2f684bafe00ec,0,0,3fe03afb7e90ff97,3ff4395810624dd3,0,0 t=1234567891,0,0,317000000,260000000,0 d=1994567891/false h=2",
			"begin B: s=4 e=40020e3ad47e504a v=0,3fc2f684bafe00ec,0,0,3feb089a02752546,3ff4395810624dd3,0,0 t=1234567891,0,0,528000000,260000000,0 d=1994567891/false h=2",
			"end A: s=4 e=400799158e73a9fe v=0,3fc2f684bafe00ec,0,0,3ff89a027525460b,3ff4395810624dd3,0,0 t=1234567891,0,0,961000000,260000000,0 d=1994567891/false h=2",
			"end B: s=4 e=400799158e73a9fe v=0,3fc2f684bafe00ec,0,0,3ff89a027525460b,3ff4395810624dd3,0,0 t=1234567891,0,0,961000000,260000000,0 d=2955567891/true h=2",
			"decay one rung: s=3 e=400e98c6e9cae8a9 v=0,3fc2f684bafe00ec,0,3fcffb15b573eab3,40014d013a92a306,3ff4395810624dd3,0,0 t=1234567891,0,263000000,1461000000,260000000,0 d=4455567891/true h=3",
			"touch shared: s=3 e=40138b018fee0e57 v=0,3fc2f684bafe00ec,0,3ff4f9db22d0e560,40014d013a92a306,3ff4395810624dd3,0,0 t=1234567891,0,1380000000,1461000000,260000000,0 d=4455567891/true h=3",
			"partial decay: s=2 e=401a3b1bd64c5ec8 v=0,3fc2f684bafe00ec,3ff8ed776f7d5a57,3ff6cccccccccccc,40014d013a92a306,3ff4395810624dd3,0,0 t=1234567891,2225678901,1500000000,1461000000,260000000,0 d=13955567891/true h=4",
			"force idle: s=6 e=401aa1823cb2c52e v=0,3fc2f684bafe00ec,3ff8ed776f7d5a57,3ff6cccccccccccc,40014d013a92a306,3ff4395810624dd3,3fb999999999999a,0 t=1234567891,2225678901,1500000000,1461000000,260000000,0 d=13955567891/false h=5",
			"request during release: s=6 e=401aa1823cb2c52e v=0,3fc2f684bafe00ec,3ff8ed776f7d5a57,3ff6cccccccccccc,40014d013a92a306,3ff4395810624dd3,3fb999999999999a,0 t=1234567891,2225678901,1500000000,1461000000,260000000,0 d=13955567891/false h=5",
			"re-promoted: s=4 e=402024b8ed32791f v=0,3fc2f684bafe00ec,3ff8ed776f7d5a57,3ff6cccccccccccc,40014d013a92a306,4004395810624dd3,3fd0000000000000,0 t=1234567891,2225678901,1500000000,1461000000,520000000,150000000 d=7591246792/true h=8",
			"after active dwell: s=4 e=4021b3713f1dfe3e v=0,3fc2f684bafe00ec,3ff8ed776f7d5a57,3ff6cccccccccccc,400787e28240b781,4004395810624dd3,3fd0000000000000,0 t=1234567891,2225678901,1500000000,2084000000,520000000,150000000 d=7591246792/true h=8",
			"full decay: s=2 e=4035687fcb4537ec v=0,3fc2f684bafe00ec,40138e633e80d3ac,4006cccccccccccc,40257c6aad124756,4004395810624dd3,3fd0000000000000,0 t=1234567891,6984357802,3000000000,8325321099,520000000,150000000 d=24955567891/true h=10",
			"settle: s=1 e=4039b1b4e09ab291 v=0,3ff1d7d110d6f857,40206a7bbabc7817,4006cccccccccccc,40257c6aad124756,4004395810624dd3,3fd0000000000000,0 t=9293246792,11725678901,3000000000,8325321099,520000000,150000000 d=24955567891/false h=11",
			"promote from idle: s=4 e=403af54a61a0d76e v=0,3ff1d7d110d6f857,40206a7bbabc7817,4006cccccccccccc,40257c6aad124756,400e5604189374bc,3fd0000000000000,0 t=9293246792,11725678901,3000000000,8325321099,780000000,150000000 d=33774246792/true h=13",
			"reset: s=1 e=0 v=0,0,0,0,0,0,0,0 t=0,0,0,0,0,0 d=33774246792/false h=0",
			"second promotion: s=3 e=4003585f06f69446 v=0,0,0,3fe0eecbfb15b574,3fe4000000000000,3ff4395810624dd3,0,0 t=0,0,557000000,500000000,260000000,0 d=2260000000/true h=3",
		},
		"nr": {
			"idle lead-in: s=1 e=3fbf9add37a756df v=0,3fbf9add37a756df,0,0,0,0,0,0 t=1234567891,0,0,0,0 d=0/false h=0",
			"promote: s=3 e=3fe9d6af9ec3c3f2 v=0,3fbf9add37a756df,0,0,3fe5e353f7ced916,0,0,0 t=1234567891,0,0,180000000,0 d=2214567891/true h=2",
			"begin A: s=3 e=3ff5cb9958992dc0 v=0,3fbf9add37a756df,0,3fe1c083126e978d,3fe5e353f7ced916,0,0,0 t=1234567891,0,317000000,180000000,0 d=2214567891/false h=2",
			"begin B: s=3 e=3ffbb40c08b9f25c v=0,3fbf9add37a756df,0,3fed916872b020c4,3fe5e353f7ced916,0,0,0 t=1234567891,0,528000000,180000000,0 d=2214567891/false h=2",
			"end A: s=3 e=4003e9e53fc1534b v=0,3fbf9add37a756df,0,3ffae872b020c49c,3fe5e353f7ced916,0,0,0 t=1234567891,0,961000000,180000000,0 d=2214567891/false h=2",
			"end B: s=3 e=4003e9e53fc1534b v=0,3fbf9add37a756df,0,3ffae872b020c49c,3fe5e353f7ced916,0,0,0 t=1234567891,0,961000000,180000000,0 d=3175567891/true h=2",
			"decay one rung: s=2 e=400bb0a76641f095 v=0,3fbf9add37a756df,3fb79096bb98c7e2,40047e76c8b43958,3fe5e353f7ced916,0,0,0 t=1234567891,263000000,1761000000,180000000,0 d=10175567891/true h=3",
			"touch shared: s=2 e=400ed151cb04e8cd v=0,3fbf9add37a756df,3fdee978d4fdf3b5,40047e76c8b43958,3fe5e353f7ced916,0,0,0 t=1234567891,1380000000,1761000000,180000000,0 d=10175567891/true h=3",
			"partial decay: s=2 e=4012b159dfbbda10 v=0,3fbf9add37a756df,3ff4dd221e251392,40047e76c8b43958,3fe5e353f7ced916,0,0,0 t=1234567891,3725678901,1761000000,180000000,0 d=10175567891/true h=3",
			"force idle: s=5 e=4012e48d12ef0d42 v=0,3fbf9add37a756df,3ff4dd221e251392,40047e76c8b43958,3fe5e353f7ced916,3fa999999999999a,0,0 t=1234567891,3725678901,1761000000,180000000,0 d=10175567891/false h=4",
			"request during release: s=5 e=4012e48d12ef0d42 v=0,3fbf9add37a756df,3ff4dd221e251392,40047e76c8b43958,3fe5e353f7ced916,3fa999999999999a,0,0 t=1234567891,3725678901,1761000000,180000000,0 d=10175567891/false h=4",
			"re-promoted: s=3 e=4015fd2087ab77c1 v=0,3fbf9add37a756df,3ff4dd221e251392,40047e76c8b43958,3ff5e353f7ced916,3fc1eb851eb851ec,0,0 t=1234567891,3725678901,1761000000,360000000,100000000 d=7981246792/true h=7",
			"after active dwell: s=3 e=401a0ccb5549fba5 v=0,3fbf9add37a756df,3ff4dd221e251392,400c9dcc63f14120,3ff5e353f7ced916,3fc1eb851eb851ec,0,0 t=1234567891,3725678901,2684000000,360000000,100000000 d=7981246792/true h=7",
			"full decay: s=2 e=40264abe936dee60 v=0,3fbf9add37a756df,400d45af0528c34a,40176c09087f64ec,3ff5e353f7ced916,3fc1eb851eb851ec,0,0 t=1234567891,10454357802,4755321099,360000000,100000000 d=17175567891/true h=8",
			"settle: s=1 e=40283f64bee41c6d v=0,3ff019e7e82525a6,400e082aa8ac2362,40176c09087f64ec,3ff5e353f7ced916,3fc1eb851eb851ec,0,0 t=10063246792,10725678901,4755321099,360000000,100000000 d=17175567891/false h=9",
			"promote from idle: s=3 e=40299d99fe6109fe v=0,3ff019e7e82525a6,400e082aa8ac2362,40176c09087f64ec,40006a7ef9db22d0,3fc1eb851eb851ec,0,0 t=10063246792,10725678901,4755321099,540000000,100000000 d=26984246792/true h=11",
			"reset: s=1 e=0 v=0,0,0,0,0,0,0,0 t=0,0,0,0,0 d=26984246792/false h=0",
			"second promotion: s=2 e=3ffa7694467381d8 v=0,0,3fb706f694467382,3fec28f5c28f5c2a,3fe5e353f7ced916,0,0,0 t=0,257000000,800000000,180000000,0 d=7980000000/true h=3",
		},
	}
	for _, spec := range allSpecs(t) {
		t.Run(spec.Profile(), func(t *testing.T) {
			clock := simtime.NewClock()
			m, err := spec.New(clock, WithTransitionTrace())
			if err != nil {
				t.Fatal(err)
			}
			tail := m.Tail()
			readies := 0
			ready := func() { readies++ }
			promote := func() {
				m.RequestActive(ready)
				for m.State() != tail.Active.State && clock.Step() {
				}
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			script := []struct {
				name string
				do   func()
			}{
				{"idle lead-in", func() { clock.RunFor(1234567891 * time.Nanosecond) }},
				{"promote", promote},
				{"begin A", func() { must(m.BeginTransfer()); clock.RunFor(317 * time.Millisecond) }},
				{"begin B", func() { must(m.BeginTransfer()); clock.RunFor(211 * time.Millisecond) }},
				{"end A", func() { must(m.EndTransfer()); clock.RunFor(433 * time.Millisecond) }},
				{"end B", func() { must(m.EndTransfer()) }},
				{"decay one rung", func() { clock.RunFor(tail.Active.Dwell + 263*time.Millisecond) }},
				{"touch shared", func() { m.TouchShared(); clock.RunFor(1117 * time.Millisecond) }},
				{"partial decay", func() { clock.RunFor(2345678901 * time.Nanosecond) }},
				{"force idle", func() { must(m.ForceIdle()) }},
				{"request during release", func() { m.RequestActive(ready); m.RequestActive(ready) }},
				{"re-promoted", func() {
					for m.State() != tail.Active.State && clock.Step() {
					}
				}},
				{"after active dwell", func() { clock.RunFor(tail.Active.Dwell + 123*time.Millisecond) }},
				{"full decay", func() { clock.RunFor(tail.TotalDwell() + time.Second) }},
				{"settle", func() { clock.RunFor(tail.TotalDwell() + 1300*time.Millisecond) }},
				{"promote from idle", promote},
				{"reset", func() { clock.Reset(); m.Reset() }},
				{"second promotion", func() { promote(); clock.RunFor(1057 * time.Millisecond) }},
			}
			var got []string
			for _, step := range script {
				step.do()
				got = append(got, step.name+": "+radioBits(m))
			}
			if readies != 5 {
				t.Fatalf("%d ready callbacks ran, want 5", readies)
			}
			rows := want[spec.Profile()]
			if len(got) != len(rows) {
				t.Fatalf("%d rows, pinned %d", len(got), len(rows))
			}
			for i := range got {
				if got[i] != rows[i] {
					t.Errorf("row %d moved:\n got  %s\n want %s", i, got[i], rows[i])
				}
			}
		})
	}
}

// radioBits renders one pin row: state, EnergyJ and EnergyVec as float64
// bits, per-state residency, the demotion deadline and the history length.
func radioBits(m RadioModel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "s=%d e=%x v=", m.State(), math.Float64bits(m.EnergyJ()))
	for i, e := range m.EnergyVec() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(e))
	}
	b.WriteString(" t=")
	for s := 1; s < m.NumStates(); s++ {
		if s > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", m.TimeIn(State(s)))
	}
	at, armed := m.NextDemotion()
	fmt.Fprintf(&b, " d=%d/%t h=%d", at, armed, len(m.(interface{ History() []Transition }).History()))
	return b.String()
}

// TestChainSpecValidate exercises the chain validation errors.
func TestChainSpecValidate(t *testing.T) {
	base := DefaultLTEConfig()

	bad := base
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("nameless chain validated")
	}

	bad = base
	bad.Stable = bad.Stable[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("single-state chain validated")
	}

	bad = base
	bad.Stable = make([]ChainState, len(base.Stable))
	copy(bad.Stable, base.Stable)
	bad.Stable[2].Dwell = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero mid-chain dwell validated")
	}

	bad = base
	bad.Stable = make([]ChainState, len(base.Stable))
	copy(bad.Stable, base.Stable)
	bad.Stable[1].PowerW = 2.0 // above DRX_SHORT: ordering broken
	if err := bad.Validate(); err == nil {
		t.Fatal("non-monotone powers validated")
	}

	bad = base
	bad.TxPowerW = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatal("tx below active idle power validated")
	}

	bad = base
	six := base.Stable[0]
	bad.Stable = append([]ChainState{six, six, six}, base.Stable...)
	bad.Stable[0].Dwell = 0
	for i := 1; i < len(bad.Stable); i++ {
		if bad.Stable[i].Dwell == 0 {
			bad.Stable[i].Dwell = time.Second
		}
	}
	if bad.NumStates() <= MaxStates {
		t.Fatalf("test chain should exceed MaxStates, has %d", bad.NumStates())
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("over-wide chain validated")
	}
}

// TestChainQueuedWaitersDuringRelease checks the release→re-promotion path:
// a RequestActive while RELEASING must queue and promote from idle after
// the release completes, charging the idle promotion lump.
func TestChainQueuedWaitersDuringRelease(t *testing.T) {
	for _, name := range []string{"lte", "nr"} {
		t.Run(name, func(t *testing.T) {
			spec, err := ProfileSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			clock, m := newModel(t, spec)
			transferOnce(t, clock, m, 100*time.Millisecond)
			clock.RunFor(100 * time.Millisecond) // still mid-tail, not yet idle
			if err := m.ForceIdle(); err != nil {
				t.Fatalf("ForceIdle: %v", err)
			}
			if m.State() != m.Tail().Releasing {
				t.Fatalf("state %v, want releasing", m.State())
			}
			ready := false
			m.RequestActive(func() { ready = true })
			for !ready && clock.Step() {
			}
			if !ready {
				t.Fatal("waiter queued during release never ran")
			}
			tail := m.Tail()
			if m.State() != tail.Active.State {
				t.Fatalf("state %v after release+promotion", m.State())
			}
		})
	}
}
