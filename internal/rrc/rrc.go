// Package rrc implements the UMTS Radio Resource Control state machine the
// paper's energy model is built on (Section 2.1): the IDLE, FACH and DCH
// states, the inactivity timers T1 (DCH→FACH, 4 s) and T2 (FACH→IDLE, 15 s),
// the promotion procedures with their latency and energy cost, and the fast
// dormancy path ("state switch" in Section 4.4) that lets the application
// layer force an early release of the signaling connection.
//
// Energy is integrated exactly (piecewise-constant power between state
// changes), so the per-state powers of Table 5 translate directly into
// Joules; the sampling-based meter in internal/energy exists only to
// reproduce the paper's 0.25 s measurement traces (Fig. 1 and Fig. 9).
package rrc

import (
	"errors"
	"fmt"
	"time"

	"eabrowse/internal/simtime"
)

// State is an RRC state of the smartphone radio, including the transient
// promotion/release states the radio passes through between the three
// stable states of the paper.
type State int

const (
	// StateIdle: no signaling connection; near-zero radio power.
	StateIdle State = iota + 1
	// StateFACH: shared channel only; low power, very low throughput.
	StateFACH
	// StateDCH: dedicated channels; high power, full throughput.
	StateDCH
	// StatePromoIdleDCH: establishing a signaling connection and acquiring
	// dedicated channels from IDLE (tens of control messages, >1 s).
	StatePromoIdleDCH
	// StatePromoFACHDCH: acquiring dedicated channels from FACH (signaling
	// connection already exists, so faster than from IDLE).
	StatePromoFACHDCH
	// StateReleasing: tearing down the signaling connection after a fast
	// dormancy request.
	StateReleasing
)

// NumStates is one past the highest State value; arrays indexed by State use
// this length.
const NumStates = int(StateReleasing) + 1

// String returns the conventional name of the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "IDLE"
	case StateFACH:
		return "FACH"
	case StateDCH:
		return "DCH"
	case StatePromoIdleDCH:
		return "PROMO(IDLE→DCH)"
	case StatePromoFACHDCH:
		return "PROMO(FACH→DCH)"
	case StateReleasing:
		return "RELEASING"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Stable reports whether s is one of the three stable RRC states.
func (s State) Stable() bool {
	return s == StateIdle || s == StateFACH || s == StateDCH
}

// Config holds the timer, latency and power parameters of the radio model.
//
// The stable-state powers come straight from Table 5 of the paper (they
// include display and system-maintenance power, as measured). The promotion
// and release parameters are calibrated so that the "intuitive approach"
// experiment of Section 3.1 reproduces the paper's Fig. 3: switching to IDLE
// after every transfer only pays off when the next transfer is more than
// about 9 seconds away.
type Config struct {
	// T1 is the DCH inactivity timer (dedicated-channel release). Paper: 4 s.
	T1 time.Duration
	// T2 is the FACH inactivity timer (signaling-connection release).
	// Paper: 15 s.
	T2 time.Duration
	// PromoIdleToDCH is the latency of establishing a signaling connection
	// and dedicated channels from IDLE. Paper: "more than one second";
	// the intuitive-approach measurement implies ≈1.75 s of extra delay.
	PromoIdleToDCH time.Duration
	// PromoFACHToDCH is the latency of acquiring dedicated channels when the
	// signaling connection already exists.
	PromoFACHToDCH time.Duration
	// ReleaseDelay is how long a fast-dormancy release keeps the radio busy
	// before IDLE is reached.
	ReleaseDelay time.Duration

	// PowerIdle..PowerDCHTx are the Table 5 stable-state powers, in watts.
	PowerIdle    float64
	PowerFACH    float64
	PowerDCHIdle float64
	PowerDCHTx   float64
	// PowerPromo is the radio power during promotions (control-plane
	// signaling at elevated power).
	PowerPromo float64
	// PowerRelease is the radio power while a fast-dormancy release is in
	// flight.
	PowerRelease float64
	// ReleaseSignalEnergy is the lump energy (J) of the release signaling
	// exchange itself, on top of PowerRelease over ReleaseDelay.
	ReleaseSignalEnergy float64
	// PromoIdleSignalEnergy is the lump energy (J) of re-establishing the
	// signaling connection from IDLE (tens of control messages), on top of
	// PowerPromo over PromoIdleToDCH. Releasing the radio too eagerly pays
	// this on the next transfer — the cost Algorithm 2 trades against.
	PromoIdleSignalEnergy float64
}

// DefaultConfig returns the parameters used throughout the paper's
// evaluation: Table 5 powers, T1 = 4 s, T2 = 15 s, and promotion/release
// costs calibrated so the "intuitive approach" of Section 3.1 reproduces
// Fig. 3: immediately dropping to IDLE after a transfer only saves energy
// when the next transfer is more than 9 s away. The overhead splits into a
// cheap release (paid at dormancy) and an expensive IDLE→DCH re-promotion
// (paid on the next transfer), matching the paper's observation that
// re-establishing the signaling connection dominates the cost.
func DefaultConfig() Config {
	return Config{
		T1:                    4 * time.Second,
		T2:                    15 * time.Second,
		PromoIdleToDCH:        1750 * time.Millisecond,
		PromoFACHToDCH:        500 * time.Millisecond,
		ReleaseDelay:          500 * time.Millisecond,
		PowerIdle:             0.15,
		PowerFACH:             0.63,
		PowerDCHIdle:          1.15,
		PowerDCHTx:            1.25,
		PowerPromo:            1.80,
		PowerRelease:          1.15,
		ReleaseSignalEnergy:   0.50,
		PromoIdleSignalEnergy: 3.15,
	}
}

// Validate checks that the configuration is physically sensible.
func (c Config) Validate() error {
	switch {
	case c.T1 <= 0 || c.T2 <= 0:
		return errors.New("rrc: T1 and T2 must be positive")
	case c.PromoIdleToDCH <= 0 || c.PromoFACHToDCH <= 0:
		return errors.New("rrc: promotion latencies must be positive")
	case c.ReleaseDelay < 0:
		return errors.New("rrc: release delay must be non-negative")
	case c.PowerIdle < 0 || c.PowerFACH < c.PowerIdle || c.PowerDCHIdle < c.PowerFACH:
		return errors.New("rrc: powers must satisfy idle <= FACH <= DCH")
	case c.PowerDCHTx < c.PowerDCHIdle:
		return errors.New("rrc: DCH transmit power below DCH idle power")
	case c.ReleaseSignalEnergy < 0 || c.PromoIdleSignalEnergy < 0:
		return errors.New("rrc: signal energies must be non-negative")
	}
	return nil
}

// Machine is a simulated 3G radio. It is driven by a simtime.Clock and is
// not safe for concurrent use (the whole simulation is single-threaded).
// The shared radioCore does the accounting, promotions and release; Machine
// adds the T1 (DCH→FACH) and T2 (FACH→IDLE) demotions and the FACH shared
// channel.
type Machine struct {
	radioCore
	cfg Config

	t1Timer *simtime.Timer
	t2Timer *simtime.Timer
}

// NewMachine creates a radio in IDLE at the clock's current time.
func NewMachine(clock *simtime.Clock, cfg Config, opts ...Option) (*Machine, error) {
	if err := checkNew(clock, cfg); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}
	m.power = [MaxStates]float64{
		StateIdle:         cfg.PowerIdle,
		StateFACH:         cfg.PowerFACH,
		StateDCH:          cfg.PowerDCHIdle,
		StatePromoIdleDCH: cfg.PowerPromo,
		StatePromoFACHDCH: cfg.PowerPromo,
		StateReleasing:    cfg.PowerRelease,
	}
	m.txPower = cfg.PowerDCHTx
	m.active = StateDCH
	m.releasing = StateReleasing
	m.promos[StateIdle] = promotion{via: StatePromoIdleDCH, latency: cfg.PromoIdleToDCH, lumpJ: cfg.PromoIdleSignalEnergy}
	m.promos[StateFACH] = promotion{via: StatePromoFACHDCH, latency: cfg.PromoFACHToDCH}
	m.releaseDelay = cfg.ReleaseDelay
	m.releaseLumpJ = cfg.ReleaseSignalEnergy
	m.dwell[StateDCH] = cfg.T1
	m.dwell[StateFACH] = cfg.T2
	m.t1Timer = clock.NewTimer(m.t1Expired)
	m.t2Timer = clock.NewTimer(m.t2Expired)
	m.init(clock, cfg, opts, m.t1Timer, m.t2Timer)
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config {
	return m.cfg
}

// SharedReady reports whether the FACH shared channel can carry small
// transfers right now.
func (m *Machine) SharedReady() bool { return m.state == StateFACH }

// TouchShared records shared-channel activity while in FACH, which resets
// the T2 inactivity timer (small transfers ride the common channels without
// a promotion). It is a no-op in any other state.
func (m *Machine) TouchShared() {
	if m.state == StateFACH {
		m.t2Timer.Arm(m.dwell[StateFACH])
	}
}

// NextDemotion reports the earlier of the pending T1/T2 deadlines. At most
// one is armed at a time (T1 only in DCH, T2 only in FACH).
func (m *Machine) NextDemotion() (time.Duration, bool) {
	if m.t1Timer.Armed() {
		return m.t1Timer.Deadline(), true
	}
	if m.t2Timer.Armed() {
		return m.t2Timer.Deadline(), true
	}
	return 0, false
}

// t1Expired demotes an inactive DCH radio to FACH.
func (m *Machine) t1Expired() {
	if m.state != StateDCH || m.transferring > 0 {
		return
	}
	m.setState(StateFACH)
	m.t2Timer.Arm(m.dwell[StateFACH])
}

// t2Expired releases the signaling connection of an inactive FACH radio.
func (m *Machine) t2Expired() {
	if m.state != StateFACH {
		return
	}
	m.setState(StateIdle)
}
