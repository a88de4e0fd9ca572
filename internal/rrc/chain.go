// chain.go implements the table-driven demotion-chain radio backend behind
// the LTE and 5G NR profiles. Where UMTS has a bespoke machine (rrc.go) with
// a shared FACH channel and two promotion paths, LTE DRX and NR are pure
// chains: one active state at the top, a ladder of progressively cheaper
// stable states below it, each with its own inactivity dwell, promotion
// latency and promotion signaling cost. A ChainSpec is that ladder as data;
// chainMachine runs it on the radioCore the UMTS machine also embeds
// (core.go), adding only the one inactivity timer that walks the ladder, so
// pooled sessions stay allocation-free on any backend.
package rrc

import (
	"errors"
	"fmt"
	"time"

	"eabrowse/internal/simtime"
)

// ChainState is one stable state in a demotion chain.
type ChainState struct {
	// Name labels the state ("CONNECTED", "DRX_SHORT", ...).
	Name string
	// PowerW is the idle power draw in this state.
	PowerW float64
	// Dwell is the inactivity time before demoting one rung down (zero on
	// the terminal idle state, which never demotes).
	Dwell time.Duration
	// PromoLatency is the promotion delay from this state to the active
	// state (zero on the active state itself).
	PromoLatency time.Duration
	// PromoLumpJ is the lump signaling energy of that promotion, on top of
	// PromoPowerW over PromoLatency.
	PromoLumpJ float64
}

// ChainSpec describes a demotion-chain radio backend. Stable lists the
// stable states from the terminal idle state (index 0) up to the active
// state (last index); state indices are assigned 1..len(Stable) in that
// order, with PROMO and RELEASING transients above them.
type ChainSpec struct {
	// Name is the profile name ("lte", "nr").
	Name string
	// Stable is the chain, terminal idle first, active last.
	Stable []ChainState
	// TxPowerW is the active-state power while a transfer is in flight.
	TxPowerW float64
	// PromoPowerW is the power draw during promotions.
	PromoPowerW float64
	// ReleaseDelay, ReleasePowerW and ReleaseLumpJ parameterize the fast
	// dormancy release, as in the UMTS Config.
	ReleaseDelay  time.Duration
	ReleasePowerW float64
	ReleaseLumpJ  float64
}

// DefaultLTEConfig returns a stylized LTE DRX profile: CONNECTED with a
// short inactivity timer, short-cycle and long-cycle DRX rungs, and a cheap
// reconnect relative to UMTS (no expensive signaling-connection
// re-establishment; RRC connection setup from IDLE is ~260 ms). Power and
// timer shapes follow the published LTE power-model measurements (e.g.
// Huang et al., MobiSys 2012), rounded to the same stylization level as the
// paper's Table 5.
func DefaultLTEConfig() ChainSpec {
	return ChainSpec{
		Name: "lte",
		Stable: []ChainState{
			{Name: "IDLE", PowerW: 0.12, PromoLatency: 260 * time.Millisecond, PromoLumpJ: 0.90},
			{Name: "DRX_LONG", PowerW: 0.70, Dwell: 9500 * time.Millisecond, PromoLatency: 50 * time.Millisecond},
			{Name: "DRX_SHORT", PowerW: 0.95, Dwell: 1500 * time.Millisecond, PromoLatency: 20 * time.Millisecond},
			{Name: "CONNECTED", PowerW: 1.25, Dwell: 500 * time.Millisecond},
		},
		TxPowerW:      1.60,
		PromoPowerW:   1.40,
		ReleaseDelay:  150 * time.Millisecond,
		ReleasePowerW: 1.00,
		ReleaseLumpJ:  0.10,
	}
}

// DefaultNRConfig returns a simple 5G NR profile: CONNECTED, the
// RRC_INACTIVE suspend state (context retained in the RAN, so resuming is
// nearly free — the feature that most changes the dormancy trade-off), and
// IDLE.
func DefaultNRConfig() ChainSpec {
	return ChainSpec{
		Name: "nr",
		Stable: []ChainState{
			{Name: "IDLE", PowerW: 0.10, PromoLatency: 180 * time.Millisecond, PromoLumpJ: 0.45},
			{Name: "INACTIVE", PowerW: 0.35, Dwell: 7 * time.Second, PromoLatency: 25 * time.Millisecond, PromoLumpJ: 0.02},
			{Name: "CONNECTED", PowerW: 1.10, Dwell: 800 * time.Millisecond},
		},
		TxPowerW:      1.75,
		PromoPowerW:   1.30,
		ReleaseDelay:  100 * time.Millisecond,
		ReleasePowerW: 0.90,
		ReleaseLumpJ:  0.05,
	}
}

// Profile names the backend.
func (c ChainSpec) Profile() string { return c.Name }

// NumStates is one past the highest state index: len(Stable) stable states,
// then PROMO and RELEASING.
func (c ChainSpec) NumStates() int { return len(c.Stable) + 3 }

// active, promo and releasing are the spec's state indices.
func (c ChainSpec) active() State    { return State(len(c.Stable)) }
func (c ChainSpec) promo() State     { return State(len(c.Stable) + 1) }
func (c ChainSpec) releasing() State { return State(len(c.Stable) + 2) }

// StateName labels a state of this chain.
func (c ChainSpec) StateName(s State) string {
	switch {
	case s >= 1 && int(s) <= len(c.Stable):
		return c.Stable[s-1].Name
	case s == c.promo():
		return "PROMO"
	case s == c.releasing():
		return "RELEASING"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Validate checks that the chain is physically sensible and fits the fixed
// accounting width.
func (c ChainSpec) Validate() error {
	switch {
	case c.Name == "":
		return errors.New("rrc: chain spec needs a profile name")
	case len(c.Stable) < 2:
		return errors.New("rrc: chain needs at least an idle and an active state")
	case c.NumStates() > MaxStates:
		return fmt.Errorf("rrc: chain %q needs %d state slots, max %d", c.Name, c.NumStates(), MaxStates)
	case c.ReleaseDelay < 0 || c.ReleaseLumpJ < 0 || c.ReleasePowerW < 0:
		return errors.New("rrc: release parameters must be non-negative")
	case c.TxPowerW < c.Stable[len(c.Stable)-1].PowerW:
		return errors.New("rrc: transmit power below active idle power")
	}
	for i, st := range c.Stable {
		if st.Name == "" {
			return fmt.Errorf("rrc: chain %q stable state %d has no name", c.Name, i)
		}
		if st.PowerW < 0 || st.PromoLumpJ < 0 {
			return fmt.Errorf("rrc: chain %q state %s has negative power or lump", c.Name, st.Name)
		}
		if i > 0 && st.PowerW < c.Stable[i-1].PowerW {
			return fmt.Errorf("rrc: chain %q powers must be non-decreasing toward active (%s < %s)",
				c.Name, st.Name, c.Stable[i-1].Name)
		}
		if i > 0 && st.Dwell <= 0 {
			return fmt.Errorf("rrc: chain %q state %s needs a positive dwell", c.Name, st.Name)
		}
		if i < len(c.Stable)-1 && st.PromoLatency <= 0 {
			return fmt.Errorf("rrc: chain %q state %s needs a positive promotion latency", c.Name, st.Name)
		}
	}
	return nil
}

// Tail describes the chain's demotion ladder in backend-neutral form.
func (c ChainSpec) Tail() TailProfile {
	n := len(c.Stable)
	act := c.Stable[n-1]
	tp := TailProfile{
		Profile:       c.Name,
		Active:        TailStage{State: c.active(), Name: act.Name, PowerW: act.PowerW, Dwell: act.Dwell},
		Stages:        make([]TailStage, 0, n-1),
		PromoPowerW:   c.PromoPowerW,
		Releasing:     c.releasing(),
		ReleaseDelay:  c.ReleaseDelay,
		ReleasePowerW: c.ReleasePowerW,
		ReleaseLumpJ:  c.ReleaseLumpJ,
	}
	for i := n - 2; i >= 0; i-- {
		st := c.Stable[i]
		tp.Stages = append(tp.Stages, TailStage{
			State:        State(i + 1),
			Name:         st.Name,
			PowerW:       st.PowerW,
			Dwell:        st.Dwell,
			PromoLatency: st.PromoLatency,
			PromoLumpJ:   st.PromoLumpJ,
		})
	}
	return tp
}

// New builds a chain radio on the given clock, in the terminal idle state.
func (c ChainSpec) New(clock *simtime.Clock, opts ...Option) (RadioModel, error) {
	if err := checkNew(clock, c); err != nil {
		return nil, err
	}
	cm := &chainMachine{}
	for i, st := range c.Stable {
		cm.power[i+1] = st.PowerW
		cm.promos[i+1] = promotion{via: c.promo(), latency: st.PromoLatency, lumpJ: st.PromoLumpJ}
		cm.dwell[i+1] = st.Dwell
	}
	cm.power[c.promo()] = c.PromoPowerW
	cm.power[c.releasing()] = c.ReleasePowerW
	cm.txPower = c.TxPowerW
	cm.active = c.active()
	cm.releasing = c.releasing()
	cm.releaseDelay = c.ReleaseDelay
	cm.releaseLumpJ = c.ReleaseLumpJ
	cm.demoteTimer = clock.NewTimer(cm.demoteExpired)
	cm.init(clock, c, opts, cm.demoteTimer)
	return cm, nil
}

var (
	_ ModelSpec  = ChainSpec{}
	_ RadioModel = (*chainMachine)(nil)
)

// chainMachine executes a ChainSpec on the shared radioCore, adding one
// inactivity timer that walks the ladder down a rung per dwell.
type chainMachine struct {
	radioCore

	// demoteTimer is the single inactivity timer: only the current stable
	// state's dwell can be pending, so one lazily re-armed timer covers the
	// whole ladder.
	demoteTimer *simtime.Timer
}

// NextDemotion reports the pending demotion deadline, if armed.
func (cm *chainMachine) NextDemotion() (time.Duration, bool) {
	return cm.demoteTimer.Deadline(), cm.demoteTimer.Armed()
}

// demoteExpired steps the radio one rung down the ladder and re-arms for
// the next rung (unless the terminal stage was reached).
func (cm *chainMachine) demoteExpired() {
	if cm.state > cm.active || cm.state == StateIdle {
		return
	}
	if cm.state == cm.active && cm.transferring > 0 {
		return
	}
	next := cm.state - 1
	cm.setState(next)
	if next > StateIdle {
		cm.demoteTimer.Arm(cm.dwell[next])
	}
}

// SharedReady reports false: DRX chains have no FACH-like shared channel.
func (cm *chainMachine) SharedReady() bool { return false }

// TouchShared is a no-op on chain backends.
func (cm *chainMachine) TouchShared() {}
