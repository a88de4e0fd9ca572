package browser

import (
	"fmt"
	"time"

	"eabrowse/internal/channel"
	"eabrowse/internal/netsim"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
	"eabrowse/internal/webpage"
)

// maxLoadTime bounds one page load in simulated time. A load that has not
// reached its final display by then is a wedged pipeline (a bug), not a slow
// page.
const maxLoadTime = 30 * time.Minute

// Run loads page and steps the engine's clock until the final display. It
// is the one driver of a page load: every caller that wants a finished load
// goes through here. The completion callback is bound once per engine, so
// repeated visits on a reused engine allocate nothing for it.
func (e *Engine) Run(page *webpage.Page) (*Result, error) {
	e.runResult = nil
	if err := e.Load(page, e.runDoneFn); err != nil {
		return nil, err
	}
	deadline := e.clock.Now() + maxLoadTime
	for e.runResult == nil && e.clock.Now() < deadline {
		if !e.clock.Step() {
			break
		}
	}
	if e.runResult == nil {
		return nil, fmt.Errorf("load of %s did not finish within %v", page.Name, maxLoadTime)
	}
	return e.runResult, nil
}

// LoadFresh loads page to its final display on a fresh phone: a new clock,
// the spec's radio, a link with the given config (shaped by sched; nil is
// the fixed link) and an engine in mode with the given cost model. It serves
// the packages below experiments that measure a page once per pipeline.
func LoadFresh(page *webpage.Page, mode Mode, spec rrc.ModelSpec, link netsim.Config, cost CostModel,
	sched *channel.Schedule, opts ...Option) (*Result, error) {
	clock := simtime.NewClock()
	radio, err := spec.New(clock)
	if err != nil {
		return nil, err
	}
	l, err := netsim.NewLink(clock, radio, link)
	if err != nil {
		return nil, err
	}
	l.SetChannel(sched)
	engine, err := NewEngine(clock, radio, l, cost, mode, opts...)
	if err != nil {
		return nil, err
	}
	return engine.Run(page)
}
