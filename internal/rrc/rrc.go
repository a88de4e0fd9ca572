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

// stateSlots sizes the fixed per-state accounting arrays.
const stateSlots = NumStates

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

// Transition records one state change, for test assertions and the
// state-trace figures.
type Transition struct {
	At   time.Duration
	From State
	To   State
}

// ErrBusy is returned by ForceIdle when the radio cannot release (a transfer
// or promotion is in flight).
var ErrBusy = errors.New("rrc: radio busy, cannot force idle")

// Machine is a simulated 3G radio. It is driven by a simtime.Clock and is
// not safe for concurrent use (the whole simulation is single-threaded).
type Machine struct {
	clock *simtime.Clock
	cfg   Config

	state        State
	transferring int // count of active transfers (DCH only)

	// Inactivity timers are lazily re-armed simtime Timers: the fleet replay
	// re-arms T1 on every one of thousands of transfers, and eager
	// cancel-and-push would flood the event queue with dead entries.
	t1Timer *simtime.Timer
	t2Timer *simtime.Timer
	// promoFinishFn/releaseDoneFn are the promotion/release completion
	// callbacks, bound once so scheduling them does not allocate a closure
	// per transition.
	promoFinishFn func()
	releaseDoneFn func()

	// waiters are callbacks waiting for DCH to become available; spare is the
	// previous generation's backing array, swapped back in by promoFinish so
	// steady-state promotions don't reallocate the queue.
	waiters      []func()
	spareWaiters []func()

	// Exact energy integration. Per-state accounting lives in fixed arrays
	// indexed by State (1..6) — the map-based originals allocated on every
	// EnergyByState probe, four-plus times per simulated visit.
	lastChange    time.Duration
	energyJ       float64
	timeInState   [stateSlots]time.Duration
	energyInState [stateSlots]float64

	history      []Transition
	recordTrace  bool
	onTransition func(Transition)

	// dchHolds accumulates the total time dedicated channels were held,
	// which the capacity model uses as the per-session service time.
	dchSince    time.Duration
	dchHoldTime time.Duration
}

// options collects construction-time settings shared by every backend.
type options struct {
	recordTrace  bool
	onTransition func(Transition)
}

// Option configures a radio model at construction time.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithTransitionTrace records every state change in History.
func WithTransitionTrace() Option {
	return optionFunc(func(o *options) { o.recordTrace = true })
}

// WithTransitionHook invokes fn on every state change.
func WithTransitionHook(fn func(Transition)) Option {
	return optionFunc(func(o *options) { o.onTransition = fn })
}

// NewMachine creates a radio in IDLE at the clock's current time.
func NewMachine(clock *simtime.Clock, cfg Config, opts ...Option) (*Machine, error) {
	if clock == nil {
		return nil, errors.New("rrc: nil clock")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		clock:      clock,
		cfg:        cfg,
		state:      StateIdle,
		lastChange: clock.Now(),
	}
	m.t1Timer = clock.NewTimer(m.t1Expired)
	m.t2Timer = clock.NewTimer(m.t2Expired)
	m.promoFinishFn = m.promoFinish
	m.releaseDoneFn = m.releaseDone
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	m.recordTrace = o.recordTrace
	m.onTransition = o.onTransition
	return m, nil
}

// Reset returns the machine to a fresh IDLE radio at the clock's current
// time, zeroing all accumulated energy, residency and hold-time accounting.
// The owning session must Reset the shared clock first so no stale promotion
// or release completions remain queued.
func (m *Machine) Reset() {
	m.state = StateIdle
	m.transferring = 0
	m.t1Timer.Disarm()
	m.t2Timer.Disarm()
	m.waiters = m.waiters[:0]
	m.lastChange = m.clock.Now()
	m.energyJ = 0
	m.timeInState = [stateSlots]time.Duration{}
	m.energyInState = [stateSlots]float64{}
	m.history = m.history[:0]
	m.dchSince = 0
	m.dchHoldTime = 0
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config {
	return m.cfg
}

// State returns the current RRC state.
func (m *Machine) State() State {
	return m.state
}

// Transferring reports whether user data is actively moving.
func (m *Machine) Transferring() bool {
	return m.transferring > 0
}

// RadioPower returns the instantaneous radio power draw in watts (including
// the display/system baseline, as in Table 5).
func (m *Machine) RadioPower() float64 {
	switch m.state {
	case StateIdle:
		return m.cfg.PowerIdle
	case StateFACH:
		return m.cfg.PowerFACH
	case StateDCH:
		if m.transferring > 0 {
			return m.cfg.PowerDCHTx
		}
		return m.cfg.PowerDCHIdle
	case StatePromoIdleDCH, StatePromoFACHDCH:
		return m.cfg.PowerPromo
	case StateReleasing:
		return m.cfg.PowerRelease
	default:
		return 0
	}
}

// EnergyJ returns total radio energy consumed so far, in Joules, integrated
// exactly up to the current simulation time.
func (m *Machine) EnergyJ() float64 {
	return m.energyJ + m.RadioPower()*sinceSeconds(m.lastChange, m.clock.Now())
}

// EnergyByState returns the radio energy consumed so far attributed to each
// RRC state (keyed by State.String()), integrated exactly up to the current
// simulation time. Lump signaling energies are attributed to the state they
// buy: the release exchange to RELEASING, the IDLE→DCH signaling
// re-establishment to PROMO(IDLE→DCH). The values sum to EnergyJ up to
// floating-point association.
func (m *Machine) EnergyByState() map[string]float64 {
	out := make(map[string]float64, stateSlots)
	for i, e := range m.energyInState {
		if e != 0 {
			out[umtsStateNames[i]] = e
		}
	}
	out[umtsStateNames[m.state]] += m.RadioPower() * sinceSeconds(m.lastChange, m.clock.Now())
	return out
}

// umtsStateNames caches the State.String() labels so EnergyByState reuses
// the backend's state names instead of re-deriving them per entry on the
// metrics path.
var umtsStateNames = func() (out [stateSlots]string) {
	for i := range out {
		out[i] = State(i).String()
	}
	return
}()

// EnergyVec returns the same attribution as EnergyByState as a fixed array
// indexed by State, without allocating. Slot 0 is unused, as are slots at
// and above NumStates (the array is MaxStates wide so every backend shares
// one snapshot shape).
func (m *Machine) EnergyVec() [MaxStates]float64 {
	var out [MaxStates]float64
	copy(out[:], m.energyInState[:])
	out[m.state] += m.RadioPower() * sinceSeconds(m.lastChange, m.clock.Now())
	return out
}

// TimeIn returns the cumulative time spent in state s, up to now.
func (m *Machine) TimeIn(s State) time.Duration {
	if s < 0 || int(s) >= stateSlots {
		return 0
	}
	d := m.timeInState[s]
	if m.state == s {
		d += m.clock.Now() - m.lastChange
	}
	return d
}

// Residency returns the cumulative time spent in every state visited so
// far, up to now. The returned map is a copy.
func (m *Machine) Residency() map[State]time.Duration {
	out := make(map[State]time.Duration, stateSlots)
	for i, d := range m.timeInState {
		if d != 0 {
			out[State(i)] = d
		}
	}
	out[m.state] += m.clock.Now() - m.lastChange
	return out
}

// DCHHoldTime returns the cumulative time dedicated channels were held
// (DCH plus the FACH→DCH promotion, during which the network has committed
// the channels).
func (m *Machine) DCHHoldTime() time.Duration {
	d := m.dchHoldTime
	if m.holdingDCH() {
		d += m.clock.Now() - m.dchSince
	}
	return d
}

// History returns recorded transitions (only populated when the machine was
// built with WithTransitionTrace). The returned slice is a copy.
func (m *Machine) History() []Transition {
	out := make([]Transition, len(m.history))
	copy(out, m.history)
	return out
}

// RequestDCH asks for dedicated channels and calls ready once they are
// available. If the radio is already in DCH the callback runs via the clock
// at the current time (never synchronously, to keep event ordering sane).
func (m *Machine) RequestDCH(ready func()) {
	if ready == nil {
		return
	}
	switch m.state {
	case StateDCH:
		m.clock.Defer(0, ready)
	case StateIdle:
		m.waiters = append(m.waiters, ready)
		m.startIdlePromotion()
	case StateFACH:
		m.waiters = append(m.waiters, ready)
		m.t2Timer.Disarm()
		m.startPromotion(StatePromoFACHDCH, m.cfg.PromoFACHToDCH)
	case StatePromoIdleDCH, StatePromoFACHDCH:
		m.waiters = append(m.waiters, ready)
	case StateReleasing:
		// Queue; the release completion will kick off a fresh promotion.
		m.waiters = append(m.waiters, ready)
	}
}

// BeginTransfer marks the start of a user-data transfer. The radio must be
// in DCH (use RequestDCH first).
func (m *Machine) BeginTransfer() error {
	if m.state != StateDCH {
		return fmt.Errorf("rrc: begin transfer in %v, need DCH", m.state)
	}
	m.accrue()
	m.transferring++
	m.t1Timer.Disarm()
	return nil
}

// EndTransfer marks the end of a user-data transfer; when the last active
// transfer ends the network arms T1.
func (m *Machine) EndTransfer() error {
	if m.state != StateDCH || m.transferring == 0 {
		return fmt.Errorf("rrc: end transfer in %v with %d active", m.state, m.transferring)
	}
	m.accrue()
	m.transferring--
	if m.transferring == 0 {
		m.armT1()
	}
	return nil
}

// TouchFACH records shared-channel activity while in FACH, which resets the
// T2 inactivity timer (small transfers ride the common channels without a
// promotion). It is a no-op in any other state.
func (m *Machine) TouchFACH() {
	if m.state == StateFACH {
		m.armT2()
	}
}

// ForceIdle releases the signaling connection early (fast dormancy through
// the RIL). It fails with ErrBusy if a transfer or promotion is in flight or
// callbacks are waiting for DCH. Forcing an already-idle radio is a no-op.
func (m *Machine) ForceIdle() error {
	switch m.state {
	case StateIdle, StateReleasing:
		return nil
	case StatePromoIdleDCH, StatePromoFACHDCH:
		return ErrBusy
	}
	if m.transferring > 0 || len(m.waiters) > 0 {
		return ErrBusy
	}
	m.t1Timer.Disarm()
	m.t2Timer.Disarm()
	m.energyJ += m.cfg.ReleaseSignalEnergy
	m.energyInState[StateReleasing] += m.cfg.ReleaseSignalEnergy
	m.setState(StateReleasing)
	m.clock.Defer(m.cfg.ReleaseDelay, m.releaseDoneFn)
	return nil
}

func (m *Machine) releaseDone() {
	if m.state != StateReleasing {
		return
	}
	m.setState(StateIdle)
	if len(m.waiters) > 0 {
		m.startIdlePromotion()
	}
}

// startIdlePromotion begins an IDLE→DCH promotion, charging the signaling
// re-establishment lump.
func (m *Machine) startIdlePromotion() {
	if m.state == StatePromoIdleDCH {
		return
	}
	m.energyJ += m.cfg.PromoIdleSignalEnergy
	m.energyInState[StatePromoIdleDCH] += m.cfg.PromoIdleSignalEnergy
	m.startPromotion(StatePromoIdleDCH, m.cfg.PromoIdleToDCH)
}

func (m *Machine) startPromotion(promo State, latency time.Duration) {
	if m.state == promo {
		return
	}
	m.setState(promo)
	m.clock.Defer(latency, m.promoFinishFn)
}

// promoFinish completes a pending promotion: the radio reaches DCH, T1 is
// armed, and queued waiters run in arrival order.
func (m *Machine) promoFinish() {
	m.setState(StateDCH)
	m.armT1()
	// Swap in the spare backing array before running callbacks — a waiter may
	// re-enter RequestDCH and append. The drained array is cleared (dropping
	// closure references) and becomes the next spare.
	waiters := m.waiters
	m.waiters = m.spareWaiters[:0]
	for _, w := range waiters {
		w()
	}
	for i := range waiters {
		waiters[i] = nil
	}
	m.spareWaiters = waiters[:0]
}

func (m *Machine) armT1() {
	m.t1Timer.Arm(m.cfg.T1)
}

// t1Expired demotes an inactive DCH radio to FACH.
func (m *Machine) t1Expired() {
	if m.state != StateDCH || m.transferring > 0 {
		return
	}
	m.setState(StateFACH)
	m.armT2()
}

func (m *Machine) armT2() {
	m.t2Timer.Arm(m.cfg.T2)
}

// t2Expired releases the signaling connection of an inactive FACH radio.
func (m *Machine) t2Expired() {
	if m.state != StateFACH {
		return
	}
	m.setState(StateIdle)
}

// holdingDCH reports whether dedicated channels are currently committed to
// this radio (DCH, or mid FACH→DCH promotion).
func (m *Machine) holdingDCH() bool {
	return m.state == StateDCH || m.state == StatePromoFACHDCH || m.state == StatePromoIdleDCH
}

func (m *Machine) setState(next State) {
	if next == m.state {
		return
	}
	wasHolding := m.holdingDCH()
	m.accrue()
	tr := Transition{At: m.clock.Now(), From: m.state, To: next}
	m.state = next
	nowHolding := m.holdingDCH()
	switch {
	case !wasHolding && nowHolding:
		m.dchSince = m.clock.Now()
	case wasHolding && !nowHolding:
		m.dchHoldTime += m.clock.Now() - m.dchSince
	}
	if m.recordTrace {
		m.history = append(m.history, tr)
	}
	if m.onTransition != nil {
		m.onTransition(tr)
	}
}

// accrue integrates energy and per-state time up to now at the current power.
func (m *Machine) accrue() {
	now := m.clock.Now()
	if now == m.lastChange {
		return
	}
	e := m.RadioPower() * sinceSeconds(m.lastChange, now)
	m.energyJ += e
	m.energyInState[m.state] += e
	m.timeInState[m.state] += now - m.lastChange
	m.lastChange = now
}

func sinceSeconds(from, to time.Duration) float64 {
	return (to - from).Seconds()
}
