// Package ril models Section 4.4's state-switch path: on Android the radio
// firmware is closed, so the prototype forces dormancy *through the Radio
// Interface Layer* — the application sends an abstract operation message to
// RIL.java in the framework, which forwards it over a Unix socket to the
// RIL daemon, which finally drives the firmware.
//
// The simulation keeps that structure: requests are asynchronous messages
// with a hop latency, answered by responses, and the application layer never
// touches the rrc.Machine directly. The indirection matters for fidelity —
// a dormancy request can race with a new transfer and be rejected, exactly
// the failure mode an application-layer implementation has to handle.
package ril

import (
	"errors"
	"fmt"
	"time"

	"eabrowse/internal/faults"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

// Op is an abstract radio operation (the "message describing an operation
// to be performed" of Section 4.4).
type Op int

const (
	// OpForceDormancy releases the signaling connection (fast dormancy).
	OpForceDormancy Op = iota + 1
	// OpQueryState reads the current RRC state.
	OpQueryState
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpForceDormancy:
		return "FORCE_DORMANCY"
	case OpQueryState:
		return "QUERY_STATE"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status is the outcome of a request.
type Status int

const (
	// StatusOK: the operation was applied.
	StatusOK Status = iota + 1
	// StatusBusy: the radio could not perform the operation now (e.g. a
	// transfer was in flight when the dormancy request arrived).
	StatusBusy
	// StatusError: malformed request, or the daemon rejected the operation
	// (flaky firmware under fault injection).
	StatusError
	// StatusTimeout: no response arrived within the caller's deadline. The
	// operation may still have executed at the daemon — the caller cannot
	// tell, exactly the ambiguity a real RIL client faces. Synthesized
	// locally by SubmitWithTimeout, never sent by the daemon.
	StatusTimeout
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusBusy:
		return "BUSY"
	case StatusError:
		return "ERROR"
	case StatusTimeout:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Response answers one request.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	// State is the RRC state observed when the operation executed.
	State rrc.State
}

// DefaultHopLatency is the application → framework → daemon round trip.
// The two in-process hops plus a Unix-socket crossing are fast compared to
// any radio procedure; 20 ms is generous for a 2010-era device.
const DefaultHopLatency = 20 * time.Millisecond

// DefaultOpTimeout is how long SubmitWithTimeout waits for a response before
// synthesizing StatusTimeout. Generous against any realistic hop latency, yet
// short enough that a retry loop converges before the rrc inactivity timers
// would have demoted the radio anyway.
const DefaultOpTimeout = 1 * time.Second

// Interface is the simulated RIL daemon endpoint.
type Interface struct {
	clock  *simtime.Clock
	radio  rrc.RadioModel
	nextID uint64

	served   map[Status]int
	faults   *faults.Injector
	dropped  int
	timeouts int
}

// Option configures the Interface.
type Option interface {
	apply(*Interface)
}

type optionFunc func(*Interface)

func (f optionFunc) apply(r *Interface) { f(r) }

// WithFaults attaches an impairment injector: operations can come back with
// extra latency, be rejected with StatusError, or lose their response
// entirely. A nil or disabled injector leaves the endpoint fault-free.
func WithFaults(in *faults.Injector) Option {
	return optionFunc(func(r *Interface) { r.faults = in })
}

// New creates a RIL endpoint over the given radio (any rrc.RadioModel
// backend).
func New(clock *simtime.Clock, radio rrc.RadioModel, opts ...Option) (*Interface, error) {
	if clock == nil || radio == nil {
		return nil, errors.New("ril: nil clock or radio")
	}
	r := &Interface{
		clock:  clock,
		radio:  radio,
		served: make(map[Status]int, 3),
	}
	for _, o := range opts {
		o.apply(r)
	}
	return r, nil
}

// Reset rewinds the endpoint's counters and request ids to their initial
// state. The caller must have reset the simulation clock first, dropping any
// in-flight messages; experiments.Session.Reset drives the full sequence.
func (r *Interface) Reset() {
	if r == nil {
		return
	}
	r.nextID = 0
	clear(r.served)
	r.dropped = 0
	r.timeouts = 0
}

// Submit sends an operation request; reply (optional) is delivered after the
// hop latency with the outcome. Returns the request id. Under fault
// injection the response may never arrive — callers that must make progress
// regardless use SubmitWithTimeout.
func (r *Interface) Submit(op Op, reply func(Response)) uint64 {
	r.nextID++
	id := r.nextID
	plan := r.faults.PlanOp()
	outbound := plan.ExtraLatency / 2
	// One hop to the daemon; the operation executes there, and the response
	// takes the same path back.
	r.clock.After(DefaultHopLatency/2+outbound, func() {
		var resp Response
		if plan.Error {
			// The daemon rejects the request without executing it.
			resp = Response{ID: id, Op: op, Status: StatusError, State: r.radio.State()}
		} else {
			resp = r.execute(id, op)
		}
		r.served[resp.Status]++
		if plan.DropResponse {
			// The operation ran (or was rejected) at the daemon, but the
			// response is lost on the way back; the caller never hears.
			r.dropped++
			return
		}
		if reply != nil {
			r.clock.After(DefaultHopLatency/2+(plan.ExtraLatency-outbound), func() { reply(resp) })
		}
	})
	return id
}

// SubmitWithTimeout is Submit plus a response deadline: if no response is
// delivered within timeout, reply receives a synthesized StatusTimeout and a
// late response (if any) is discarded. With no enabled fault injector the
// deadline machinery is skipped entirely — responses always arrive — so the
// fault-free event schedule is untouched.
func (r *Interface) SubmitWithTimeout(op Op, timeout time.Duration, reply func(Response)) uint64 {
	if reply == nil || timeout <= 0 || !r.faults.Enabled() {
		return r.Submit(op, reply)
	}
	settled := false
	var watchdog *simtime.Event
	id := r.Submit(op, func(resp Response) {
		if settled {
			return
		}
		settled = true
		watchdog.Cancel()
		reply(resp)
	})
	watchdog = r.clock.After(timeout, func() {
		if settled {
			return
		}
		settled = true
		r.timeouts++
		reply(Response{ID: id, Op: op, Status: StatusTimeout, State: r.radio.State()})
	})
	return id
}

func (r *Interface) execute(id uint64, op Op) Response {
	resp := Response{ID: id, Op: op, State: r.radio.State()}
	switch op {
	case OpForceDormancy:
		err := r.radio.ForceIdle()
		switch {
		case err == nil:
			resp.Status = StatusOK
		case errors.Is(err, rrc.ErrBusy):
			resp.Status = StatusBusy
		default:
			resp.Status = StatusError
		}
		resp.State = r.radio.State()
	case OpQueryState:
		resp.Status = StatusOK
	default:
		resp.Status = StatusError
	}
	return resp
}

// Dropped returns how many responses were lost on the way back (fault
// injection only).
func (r *Interface) Dropped() int { return r.dropped }

// ForceDormancyWithRetry submits a dormancy request and retries on any
// non-OK outcome — BUSY (a transfer raced the request), ERROR (flaky
// daemon), or a lost response that hit the per-attempt deadline — every
// interval, up to attempts times. This is the pattern an application layer
// needs because it can neither atomically observe the radio nor trust the
// daemon to always answer. done (optional) receives the final response;
// its status is StatusOK only if some attempt succeeded.
func (r *Interface) ForceDormancyWithRetry(attempts int, interval time.Duration, done func(Response)) {
	if attempts <= 0 {
		attempts = 1
	}
	var attempt func(left int)
	attempt = func(left int) {
		r.SubmitWithTimeout(OpForceDormancy, DefaultOpTimeout, func(resp Response) {
			if resp.Status != StatusOK && left > 1 {
				r.clock.After(interval, func() { attempt(left - 1) })
				return
			}
			if done != nil {
				done(resp)
			}
		})
	}
	attempt(attempts)
}
