// model.go defines the backend-neutral radio abstraction: the RadioModel
// interface every radio generation implements, the ModelSpec factory that
// names and builds a backend, the TailProfile description of a backend's
// post-transfer demotion chain (which the policy layer and the fleet's
// analytic replay consume instead of hardcoding DCH→FACH→IDLE), and the
// registry of named profiles ("umts", "lte", "nr").
//
// Both implementations, the UMTS Machine in rrc.go and the table-driven LTE
// and 5G NR chain in chain.go, run on the one accounting core in core.go.
package rrc

import (
	"fmt"
	"strings"
	"time"

	"eabrowse/internal/simtime"
)

// MaxStates bounds the per-state accounting arrays of every backend: no
// radio model may use state indices at or above MaxStates. Slot 0 is always
// unused; slot 1 is always the terminal idle state. Keeping one fixed width
// lets EnergyVec snapshots, the obs ledger and the fleet's cursor math stay
// allocation-free regardless of which backend is plugged in.
const MaxStates = 8

// RadioModel is the behavior every radio backend exposes to the browser,
// netsim, policy and experiment layers. The contract, pinned by the
// conformance suite in model_test.go:
//
//   - States are small integers in [1, NumStates()); 1 is the terminal idle
//     state; StableState reports the non-transient ones.
//   - EnergyJ never decreases; EnergyVec slots sum to EnergyJ (up to
//     floating-point association) and are integrated exactly to "now".
//   - BeginTransfer requires the active (highest-power stable) state —
//     callers reach it via RequestActive; EndTransfer re-arms the demotion
//     timer chain described by Tail().
//   - ForceIdle is the fast-dormancy path: it fails with ErrBusy while a
//     transfer or promotion is in flight, and is a no-op when already idle
//     or releasing.
//   - Reset returns the model to a fresh idle radio at the clock's current
//     time; the owning session must Reset the shared clock first.
type RadioModel interface {
	// Profile names the backend ("umts", "lte", "nr").
	Profile() string
	// NumStates is one past the highest state index this backend uses.
	NumStates() int
	// StateName labels a state for traces and ledgers.
	StateName(State) string
	// StableState reports whether s is a stable (non-transient) state.
	StableState(State) bool

	// State returns the current radio state.
	State() State
	// Transferring reports whether user data is actively moving.
	Transferring() bool
	// RadioPower is the instantaneous power draw in watts.
	RadioPower() float64
	// EnergyJ is the total radio energy so far, integrated exactly to now.
	EnergyJ() float64
	// EnergyVec attributes EnergyJ to states without allocating.
	EnergyVec() [MaxStates]float64
	// TimeIn is the cumulative residency in state s, up to now.
	TimeIn(State) time.Duration
	// Residency copies the cumulative residency of every visited state.
	Residency() map[State]time.Duration
	// NextDemotion reports the pending inactivity-demotion deadline, if any
	// timer is armed. The fleet replay uses it to fast-forward analytically.
	NextDemotion() (at time.Duration, armed bool)

	// RequestActive asks for the active state and calls ready once reached
	// (never synchronously; via the clock at the current time if already
	// active).
	RequestActive(ready func())
	// BeginTransfer marks the start of a user-data transfer (active state
	// only).
	BeginTransfer() error
	// EndTransfer marks the end of a transfer; the last one arms demotion.
	EndTransfer() error
	// SharedReady reports whether a low-rate shared channel can carry small
	// transfers right now without a promotion (UMTS FACH; false on backends
	// without one).
	SharedReady() bool
	// TouchShared records shared-channel activity, resetting its inactivity
	// timer. No-op on backends without a shared channel.
	TouchShared()
	// ForceIdle releases the connection early (fast dormancy).
	ForceIdle() error

	// Tail describes the backend's demotion chain for analytic replay.
	Tail() TailProfile
	// Reset returns the model to a fresh idle radio at the clock's time.
	Reset()
}

// ModelSpec is a validated, immutable description of a radio backend that
// can mint RadioModel instances. rrc.Config (UMTS) and ChainSpec (LTE/NR)
// implement it.
type ModelSpec interface {
	// Profile names the backend.
	Profile() string
	// StateName labels a state without building a model.
	StateName(State) string
	// NumStates is one past the highest state index the backend uses.
	NumStates() int
	// Tail describes the backend's demotion chain.
	Tail() TailProfile
	// Validate checks that the spec is physically sensible.
	Validate() error
	// New builds a radio on the given clock.
	New(clock *simtime.Clock, opts ...Option) (RadioModel, error)
}

// TailStage is one stable state in a backend's demotion chain.
type TailStage struct {
	// State is the backend's index for this stage.
	State State
	// Name labels the stage (matches StateName of State).
	Name string
	// PowerW is the stage's idle power draw.
	PowerW float64
	// Dwell is the inactivity time spent in this stage before demoting one
	// stage further down (zero on the terminal stage, which never demotes).
	Dwell time.Duration
	// PromoLatency is the promotion delay from this stage back to active
	// (zero on the active stage itself).
	PromoLatency time.Duration
	// PromoLumpJ is the lump signaling energy of that promotion.
	PromoLumpJ float64
}

// TailProfile describes a backend's post-transfer demotion chain in the
// closed form the policy layer and the fleet's analytic cursor replay on:
// after the last transfer the radio dwells in Active for Active.Dwell, then
// steps through Stages in order, remaining in the final (terminal) stage
// until the next transfer or forever.
type TailProfile struct {
	// Profile names the backend this tail belongs to.
	Profile string
	// Active is the highest-power stable stage (UMTS DCH, LTE/NR CONNECTED).
	Active TailStage
	// Stages are the demotion targets in order, ending at the terminal idle
	// stage (whose Dwell is zero).
	Stages []TailStage
	// PromoPowerW is the power draw during promotions.
	PromoPowerW float64
	// Releasing is the transient state a fast-dormancy release passes
	// through, with its delay, power and lump signaling energy.
	Releasing     State
	ReleaseDelay  time.Duration
	ReleasePowerW float64
	ReleaseLumpJ  float64
}

// NumStages counts the stable stages including Active.
func (tp *TailProfile) NumStages() int { return len(tp.Stages) + 1 }

// Stage returns the i-th stage of the chain: 0 is Active, NumStages()-1 the
// terminal idle stage.
func (tp *TailProfile) Stage(i int) *TailStage {
	if i == 0 {
		return &tp.Active
	}
	return &tp.Stages[i-1]
}

// TerminalIndex is the stage index of the terminal idle stage.
func (tp *TailProfile) TerminalIndex() int { return len(tp.Stages) }

// Terminal returns the terminal idle stage.
func (tp *TailProfile) Terminal() *TailStage { return &tp.Stages[len(tp.Stages)-1] }

// StageIndexOf maps a stable state to its stage index, or -1 if s is not a
// stable state of this chain.
func (tp *TailProfile) StageIndexOf(s State) int {
	if s == tp.Active.State {
		return 0
	}
	for i := range tp.Stages {
		if tp.Stages[i].State == s {
			return i + 1
		}
	}
	return -1
}

// TotalDwell sums every stage's dwell: the time from the end of the last
// transfer until the radio settles in the terminal stage on its own.
func (tp *TailProfile) TotalDwell() time.Duration {
	d := tp.Active.Dwell
	for i := range tp.Stages {
		d += tp.Stages[i].Dwell
	}
	return d
}

// --- named-profile registry -------------------------------------------------

// Profiles lists the built-in radio profile names, sorted.
func Profiles() []string { return []string{"lte", "nr", "umts"} }

// ProfileSpec resolves a named radio profile to its default spec. Unknown
// names fail with the valid-name list, mirroring the benchmark-page errors.
func ProfileSpec(name string) (ModelSpec, error) {
	switch name {
	case "umts":
		return DefaultConfig(), nil
	case "lte":
		return DefaultLTEConfig(), nil
	case "nr":
		return DefaultNRConfig(), nil
	}
	return nil, fmt.Errorf("rrc: unknown radio profile %q (have: %s)",
		name, strings.Join(Profiles(), ", "))
}

// --- UMTS Config as a ModelSpec ---------------------------------------------

// Profile names the UMTS backend.
func (c Config) Profile() string { return "umts" }

// StateName labels a UMTS state.
func (c Config) StateName(s State) string { return s.String() }

// NumStates is one past the highest UMTS state index.
func (c Config) NumStates() int { return NumStates }

// Tail describes the DCH→FACH→IDLE demotion chain in backend-neutral form.
func (c Config) Tail() TailProfile {
	return TailProfile{
		Profile: "umts",
		Active:  TailStage{State: StateDCH, Name: "DCH", PowerW: c.PowerDCHIdle, Dwell: c.T1},
		Stages: []TailStage{
			{State: StateFACH, Name: "FACH", PowerW: c.PowerFACH, Dwell: c.T2, PromoLatency: c.PromoFACHToDCH},
			{State: StateIdle, Name: "IDLE", PowerW: c.PowerIdle, PromoLatency: c.PromoIdleToDCH, PromoLumpJ: c.PromoIdleSignalEnergy},
		},
		PromoPowerW:   c.PowerPromo,
		Releasing:     StateReleasing,
		ReleaseDelay:  c.ReleaseDelay,
		ReleasePowerW: c.PowerRelease,
		ReleaseLumpJ:  c.ReleaseSignalEnergy,
	}
}

// New builds a UMTS machine on the given clock.
func (c Config) New(clock *simtime.Clock, opts ...Option) (RadioModel, error) {
	m, err := NewMachine(clock, c, opts...)
	if err != nil {
		return nil, err
	}
	return m, nil
}

var (
	_ RadioModel = (*Machine)(nil)
	_ ModelSpec  = Config{}
)
