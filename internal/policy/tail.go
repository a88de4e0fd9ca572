package policy

import (
	"eabrowse/internal/rrc"
)

// The radio-tail model: closed-form energy and state of a radio that
// finished its last data transfer and is left to its inactivity timers.
// Used by the trace-driven case comparison, where re-simulating thousands
// of reading windows event-by-event would be wasteful; its agreement with
// the event-driven radio machines is asserted by tests.
//
// The functions walk an rrc.TailProfile by stage index (0 = active,
// TerminalIndex = terminal idle), so they work for any backend.

// stageAfter returns the tail-stage index elapsed seconds after the last
// transfer ended, with the radio following its timers.
func stageAfter(tp *rrc.TailProfile, elapsed float64) int {
	b := tp.Active.Dwell.Seconds()
	if elapsed < b {
		return 0
	}
	for i := 0; i < tp.TerminalIndex()-1; i++ {
		b += tp.Stages[i].Dwell.Seconds()
		if elapsed < b {
			return i + 1
		}
	}
	return tp.TerminalIndex()
}

// tailEnergy integrates radio power over the window [from, from+dur)
// seconds after the last transfer, with the radio following its timers.
func tailEnergy(tp *rrc.TailProfile, from, dur float64) float64 {
	if dur <= 0 {
		return 0
	}
	end := from + dur
	total := 0.0
	lo, hi := 0.0, tp.Active.Dwell.Seconds()
	total += overlap(from, end, lo, hi) * tp.Active.PowerW
	for i := 0; i < tp.TerminalIndex()-1; i++ {
		lo, hi = hi, hi+tp.Stages[i].Dwell.Seconds()
		total += overlap(from, end, lo, hi) * tp.Stages[i].PowerW
	}
	if end > hi {
		total += (end - max(from, hi)) * tp.Terminal().PowerW
	}
	return total
}

// releaseEnergy is the cost of a fast-dormancy release (delay at release
// power plus the signaling lump).
func releaseEnergy(tp *rrc.TailProfile) float64 {
	return tp.ReleaseDelay.Seconds()*tp.ReleasePowerW + tp.ReleaseLumpJ
}

// switchedWindowEnergy integrates a reading window of dur seconds (starting
// tailElapsed after the last transfer) during which the radio is forced to
// the terminal stage switchAt seconds into the window.
func switchedWindowEnergy(tp *rrc.TailProfile, tailElapsed, dur, switchAt float64) float64 {
	if switchAt >= dur {
		return tailEnergy(tp, tailElapsed, dur)
	}
	if switchAt < 0 {
		switchAt = 0
	}
	before := tailEnergy(tp, tailElapsed, switchAt)
	rel := tp.ReleaseDelay.Seconds()
	relWindow := min(rel, dur-switchAt)
	release := relWindow*tp.ReleasePowerW + tp.ReleaseLumpJ
	idle := (dur - switchAt - relWindow) * tp.Terminal().PowerW
	if idle < 0 {
		idle = 0
	}
	return before + release + idle
}

// promoAdjustStage returns the load-time and load-energy adjustment for a
// page load that was measured starting from the terminal stage but actually
// starts from the given stage. Warmer stages promote faster and skip (part
// of) the signaling re-establishment lump.
func promoAdjustStage(tp *rrc.TailProfile, stage int) (deltaSeconds, deltaJ float64) {
	if stage == tp.TerminalIndex() {
		return 0, 0
	}
	term := tp.Terminal()
	idlePromoS := term.PromoLatency.Seconds()
	idlePromoJ := term.PromoLumpJ + idlePromoS*tp.PromoPowerW
	if stage == 0 {
		return -idlePromoS, -idlePromoJ
	}
	st := tp.Stage(stage)
	sS := st.PromoLatency.Seconds()
	return sS - idlePromoS, (st.PromoLumpJ + sS*tp.PromoPowerW) - idlePromoJ
}

func overlap(a0, a1, b0, b1 float64) float64 {
	lo := max(a0, b0)
	hi := min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
