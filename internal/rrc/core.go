// core.go holds the accounting engine every radio backend embeds. A backend
// describes itself as tables (per-state power and dwell, the promotion that
// leaves each stable state, the release parameters) plus its own inactivity
// timers; radioCore runs the rest: exact piecewise-constant energy and
// residency integration, the transition record and hook, the double-buffered
// waiter queue, transfers, promotions, fast-dormancy release and reset. The
// UMTS Machine (rrc.go) adds the T1/T2 demotions and the FACH shared channel;
// the LTE/NR chainMachine (chain.go) adds one demotion timer over its ladder.
package rrc

import (
	"errors"
	"fmt"
	"time"

	"eabrowse/internal/simtime"
)

// promotion is the way up from one stable state to the active state: the
// transient state it passes through, its latency and its lump signaling
// energy (charged to the transient state).
type promotion struct {
	via     State
	latency time.Duration
	lumpJ   float64
}

// radioCore is the backend-neutral half of a radio model. It is not safe for
// concurrent use (the whole simulation is single-threaded).
type radioCore struct {
	clock *simtime.Clock
	spec  ModelSpec

	// power is every state's draw in watts; the active state draws txPower
	// instead while a transfer is in flight.
	power     [MaxStates]float64
	txPower   float64
	active    State
	releasing State
	// promos[s] leaves stable state s below active; dwell[s] is stable state
	// s's inactivity time before it demotes.
	promos       [MaxStates]promotion
	dwell        [MaxStates]time.Duration
	releaseDelay time.Duration
	releaseLumpJ float64

	// timers are the backend's inactivity timers, lazily re-armed: the
	// fleet replay re-arms the active one on every one of thousands of
	// transfers, and eager cancel-and-push would flood the event queue with
	// dead entries. timers[0] runs the active state's dwell; all of them
	// stop on a promotion, a release and a reset.
	timers []*simtime.Timer
	// promoFinishFn/releaseDoneFn are the promotion/release completion
	// callbacks, bound once so scheduling them does not allocate a closure
	// per transition.
	promoFinishFn func()
	releaseDoneFn func()

	state        State
	transferring int // count of active transfers (active state only)

	// waiters are callbacks waiting for the active state; spare is the
	// previous generation's backing array, swapped back in by promoFinish
	// so steady-state promotions don't reallocate the queue.
	waiters      []func()
	spareWaiters []func()

	// Exact energy integration, in fixed arrays indexed by State so no
	// snapshot allocates.
	lastChange    time.Duration
	energyJ       float64
	timeInState   [MaxStates]time.Duration
	energyInState [MaxStates]float64

	history      []Transition
	recordTrace  bool
	onTransition func(Transition)
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

// init binds a core whose tables the backend has filled to its clock, its
// spec and its timers, in the idle state at the clock's time.
func (c *radioCore) init(clock *simtime.Clock, spec ModelSpec, opts []Option, timers ...*simtime.Timer) {
	c.clock = clock
	c.spec = spec
	c.timers = timers
	c.promoFinishFn = c.promoFinish
	c.releaseDoneFn = c.releaseDone
	c.state = StateIdle
	c.lastChange = clock.Now()
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	c.recordTrace = o.recordTrace
	c.onTransition = o.onTransition
}

// checkNew rejects what no backend can be built from.
func checkNew(clock *simtime.Clock, spec ModelSpec) error {
	if clock == nil {
		return errors.New("rrc: nil clock")
	}
	return spec.Validate()
}

// Profile names the backend.
func (c *radioCore) Profile() string { return c.spec.Profile() }

// NumStates is one past the highest state index this backend uses.
func (c *radioCore) NumStates() int { return c.spec.NumStates() }

// StateName labels a state for traces and ledgers.
func (c *radioCore) StateName(s State) string { return c.spec.StateName(s) }

// Tail describes the backend's demotion chain.
func (c *radioCore) Tail() TailProfile { return c.spec.Tail() }

// StableState reports whether s is a stable state: the active state or one
// below it.
func (c *radioCore) StableState(s State) bool { return s >= 1 && s <= c.active }

// State returns the current radio state.
func (c *radioCore) State() State { return c.state }

// Transferring reports whether user data is actively moving.
func (c *radioCore) Transferring() bool { return c.transferring > 0 }

// RadioPower returns the instantaneous radio power draw in watts (including
// the display/system baseline, as in Table 5).
func (c *radioCore) RadioPower() float64 {
	if c.state == c.active && c.transferring > 0 {
		return c.txPower
	}
	return c.power[c.state]
}

// EnergyJ returns total radio energy consumed so far, in Joules, integrated
// exactly up to the current simulation time.
func (c *radioCore) EnergyJ() float64 {
	return c.energyJ + c.RadioPower()*sinceSeconds(c.lastChange, c.clock.Now())
}

// EnergyVec attributes EnergyJ to states without allocating, integrated
// exactly up to now. Lump signaling energies go to the state they buy: a
// release's to the releasing state, a promotion's to its transient state.
// Slot 0 is unused, as are slots at and above NumStates.
func (c *radioCore) EnergyVec() [MaxStates]float64 {
	out := c.energyInState
	out[c.state] += c.RadioPower() * sinceSeconds(c.lastChange, c.clock.Now())
	return out
}

// TimeIn returns the cumulative time spent in state s, up to now.
func (c *radioCore) TimeIn(s State) time.Duration {
	if s < 0 || int(s) >= MaxStates {
		return 0
	}
	d := c.timeInState[s]
	if c.state == s {
		d += c.clock.Now() - c.lastChange
	}
	return d
}

// Residency returns the cumulative time spent in every state visited so
// far, up to now. The returned map is a copy.
func (c *radioCore) Residency() map[State]time.Duration {
	out := make(map[State]time.Duration, c.spec.NumStates())
	for i, d := range c.timeInState {
		if d != 0 {
			out[State(i)] = d
		}
	}
	out[c.state] += c.clock.Now() - c.lastChange
	return out
}

// History returns recorded transitions (only populated when the radio was
// built with WithTransitionTrace). The returned slice is a copy.
func (c *radioCore) History() []Transition {
	out := make([]Transition, len(c.history))
	copy(out, c.history)
	return out
}

// RequestActive asks for the active state and calls ready once it is
// reached. If the radio is already active the callback runs via the clock
// at the current time (never synchronously, to keep event ordering sane);
// mid-promotion or mid-release it queues, and the promotion's completion (or
// the release completion's fresh promotion) runs it.
func (c *radioCore) RequestActive(ready func()) {
	if ready == nil {
		return
	}
	if c.state == c.active {
		c.clock.Defer(0, ready)
		return
	}
	c.waiters = append(c.waiters, ready)
	if c.StableState(c.state) {
		c.promote()
	}
}

// promote leaves the current stable state for the active one, charging the
// promotion's lump signaling energy.
func (c *radioCore) promote() {
	c.disarm()
	p := &c.promos[c.state]
	c.charge(p.via, p.lumpJ)
	c.setState(p.via)
	c.clock.Defer(p.latency, c.promoFinishFn)
}

// promoFinish completes a pending promotion: the radio reaches the active
// state, its dwell is armed, and queued waiters run in arrival order.
func (c *radioCore) promoFinish() {
	c.setState(c.active)
	c.timers[0].Arm(c.dwell[c.active])
	// Swap in the spare backing array before running callbacks — a waiter
	// may re-enter RequestActive and append. The drained array is cleared
	// (dropping closure references) and becomes the next spare.
	waiters := c.waiters
	c.waiters = c.spareWaiters[:0]
	for _, w := range waiters {
		w()
	}
	for i := range waiters {
		waiters[i] = nil
	}
	c.spareWaiters = waiters[:0]
}

// BeginTransfer marks the start of a user-data transfer. The radio must be
// in the active state (use RequestActive first).
func (c *radioCore) BeginTransfer() error {
	if c.state != c.active {
		return fmt.Errorf("rrc: begin transfer in %v, need %s", c.StateName(c.state), c.StateName(c.active))
	}
	c.accrue()
	c.transferring++
	c.timers[0].Disarm()
	return nil
}

// EndTransfer marks the end of a user-data transfer; when the last active
// transfer ends the active state's inactivity timer is armed.
func (c *radioCore) EndTransfer() error {
	if c.state != c.active || c.transferring == 0 {
		return fmt.Errorf("rrc: end transfer in %v with %d active", c.StateName(c.state), c.transferring)
	}
	c.accrue()
	c.transferring--
	if c.transferring == 0 {
		c.timers[0].Arm(c.dwell[c.active])
	}
	return nil
}

// ForceIdle releases the connection early (fast dormancy through the RIL).
// It fails with ErrBusy if a transfer or promotion is in flight or callbacks
// are waiting for the active state. Forcing an idle or releasing radio is a
// no-op.
func (c *radioCore) ForceIdle() error {
	if c.state == StateIdle || c.state == c.releasing {
		return nil
	}
	if !c.StableState(c.state) || c.transferring > 0 || len(c.waiters) > 0 {
		return ErrBusy
	}
	c.disarm()
	c.charge(c.releasing, c.releaseLumpJ)
	c.setState(c.releasing)
	c.clock.Defer(c.releaseDelay, c.releaseDoneFn)
	return nil
}

func (c *radioCore) releaseDone() {
	if c.state != c.releasing {
		return
	}
	c.setState(StateIdle)
	if len(c.waiters) > 0 {
		c.promote()
	}
}

// Reset returns the radio to a fresh idle one at the clock's current time,
// zeroing all accumulated energy and residency. The owning session must
// Reset the shared clock first so no stale promotion or release completions
// remain queued.
func (c *radioCore) Reset() {
	c.state = StateIdle
	c.transferring = 0
	c.disarm()
	c.waiters = c.waiters[:0]
	c.lastChange = c.clock.Now()
	c.energyJ = 0
	c.timeInState = [MaxStates]time.Duration{}
	c.energyInState = [MaxStates]float64{}
	c.history = c.history[:0]
}

// disarm stops every inactivity timer.
func (c *radioCore) disarm() {
	for _, t := range c.timers {
		t.Disarm()
	}
}

// charge adds a lump signaling energy to state s.
func (c *radioCore) charge(s State, j float64) {
	c.energyJ += j
	c.energyInState[s] += j
}

func (c *radioCore) setState(next State) {
	if next == c.state {
		return
	}
	c.accrue()
	tr := Transition{At: c.clock.Now(), From: c.state, To: next}
	c.state = next
	if c.recordTrace {
		c.history = append(c.history, tr)
	}
	if c.onTransition != nil {
		c.onTransition(tr)
	}
}

// accrue integrates energy and per-state time up to now at the current power.
func (c *radioCore) accrue() {
	now := c.clock.Now()
	if now == c.lastChange {
		return
	}
	e := c.RadioPower() * sinceSeconds(c.lastChange, now)
	c.energyJ += e
	c.energyInState[c.state] += e
	c.timeInState[c.state] += now - c.lastChange
	c.lastChange = now
}

func sinceSeconds(from, to time.Duration) float64 {
	return (to - from).Seconds()
}
