// Package obs is the structured observability layer of the simulated
// testbed: a typed event stream stamped with simulated time, a per-state /
// per-phase energy ledger, and counters and histograms snapshotable as JSON.
//
// The paper's headline numbers (its energy saving and faster loads) rest
// on per-RRC-state energy accounting and on the exact ordering of fetch,
// compute and dormancy events. This package makes both visible without
// changing them:
//
//   - Zero overhead when disabled. Every hook threads a *Recorder that may be
//     nil; all Recorder methods are nil-safe no-ops, so the instrumented hot
//     paths pay only a pointer test.
//   - Deterministic when enabled. Each simulated phone owns one Recorder and
//     writes it single-threaded (the whole simulation is single-threaded by
//     design). Recorders register with an explicit, caller-chosen key, and
//     the Collector serializes sessions in sorted key order — so the merged
//     trace and metrics are byte-identical at any worker-pool size.
//
// Timestamps are simulated time (nanoseconds since each phone's simulation
// start), never wall clock, which is what makes traces diffable and the
// golden-trace regression test possible.
package obs

import (
	"math"
	"time"
)

// Event kinds emitted by the instrumented substrates. Browser load-timeline
// events additionally pass through their browser.EventKind names
// (object-arrived, transmission-done, radio-dormant, ...).
const (
	// KindTransition is an RRC state change (From/To carry the state names).
	KindTransition = "rrc-transition"
	// KindXferStart is a link-level transfer attempt starting (Detail names
	// the channel, DCH or FACH; Attempt counts from 1).
	KindXferStart = "xfer-start"
	// KindXferRetry is a link-level attempt dying with retry budget left.
	KindXferRetry = "xfer-retry"
	// KindXferEnd is a transfer delivering its last byte (DurNS spans first
	// attempt start to completion).
	KindXferEnd = "xfer-end"
	// KindXferFailed is a transfer exhausting its attempt budget.
	KindXferFailed = "xfer-failed"
	// KindComputeSlice is one completed browser CPU task (Detail is the
	// priority queue it ran from).
	KindComputeSlice = "compute-slice"
	// KindPhaseEnergy closes a ledger phase (Detail is the phase name,
	// Joules its radio+CPU energy).
	KindPhaseEnergy = "phase-energy"
	// KindDormancyRequest is the engine asking for fast dormancy.
	KindDormancyRequest = "dormancy-request"
	// KindPolicyDecision is one Algorithm 2 evaluation (Detail is the
	// reason, DurNS the predicted reading time).
	KindPolicyDecision = "policy-decision"
)

// Event is one entry of the observability stream. Fields are omitted from
// the JSON encoding when empty, so each kind serializes compactly.
type Event struct {
	// Session is the owning recorder's key (stamped by Record).
	Session string `json:"s"`
	// AtNS is the simulated timestamp, nanoseconds since simulation start.
	AtNS int64 `json:"at_ns"`
	// Kind classifies the event.
	Kind string `json:"kind"`
	// From and To carry RRC state names on transitions.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// URL names the object involved in fetch/transfer events.
	URL string `json:"url,omitempty"`
	// Detail carries kind-specific context (channel, phase, reason...).
	Detail string `json:"detail,omitempty"`
	// Bytes is the transfer size, when applicable.
	Bytes int `json:"bytes,omitempty"`
	// Attempt counts transfer attempts from 1.
	Attempt int `json:"attempt,omitempty"`
	// DurNS is a duration payload (transfer time, compute-slice length,
	// predicted reading time), in simulated nanoseconds.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Joules is an energy payload, rounded to a microjoule so traces stay
	// byte-identical across architectures (FMA contraction differs in the
	// last ulp).
	Joules float64 `json:"j,omitempty"`
}

// Round6 rounds v to 6 decimal places. All float values that reach a trace
// or metrics file pass through it: simulated energies are deterministic to
// the last ulp on one architecture but may differ across architectures
// (fused multiply-add), and a microjoule of rounding hides that without
// hiding regressions.
func Round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// Recorder collects one session's events, counters and histograms. It is
// owned by a single simulated phone and is not safe for concurrent use —
// exactly like the simulation that feeds it. A nil *Recorder is the disabled
// state: every method is a nil-safe no-op.
type Recorder struct {
	key      string
	events   []Event
	counters map[string]int64
	hists    map[string]*AtomicHist
}

// NewRecorder returns a standalone recorder (not attached to a Collector);
// tests use this directly.
func NewRecorder(key string) *Recorder {
	return &Recorder{key: key}
}

// Key returns the recorder's session key ("" for nil).
func (r *Recorder) Key() string {
	if r == nil {
		return ""
	}
	return r.key
}

// Enabled reports whether events are being collected.
func (r *Recorder) Enabled() bool {
	return r != nil
}

// Record appends ev at simulated time at, stamping the session key and
// counting the event kind. No-op on a nil recorder.
func (r *Recorder) Record(at time.Duration, ev Event) {
	if r == nil {
		return
	}
	ev.Session = r.key
	ev.AtNS = int64(at)
	ev.Joules = Round6(ev.Joules)
	r.events = append(r.events, ev)
	r.Count("events."+ev.Kind, 1)
}

// Count adds delta to the named counter. No-op on a nil recorder.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
}

// ObserveDur records d into the named duration histogram. No-op on a nil
// recorder.
func (r *Recorder) ObserveDur(name string, d time.Duration) {
	if r == nil {
		return
	}
	if r.hists == nil {
		r.hists = make(map[string]*AtomicHist)
	}
	h := r.hists[name]
	if h == nil {
		h = &AtomicHist{}
		r.hists[name] = h
	}
	h.Observe(d)
}

// Events returns a copy of the recorded events, in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Counters returns a copy of the counters.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// histogramBucketsMS are the fixed upper bounds (milliseconds of simulated
// time) of every duration histogram. Fixed bounds keep snapshots structurally
// identical run to run, which is what makes metrics files diffable.
var histogramBucketsMS = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// len14 is len(histogramBucketsMS)+1 (the overflow bucket); Go needs a
// constant for the array length.
const len14 = 14

// HistogramBucket is one bucket of a snapshot; LeMS <= 0 marks the overflow
// bucket.
type HistogramBucket struct {
	LeMS float64 `json:"le_ms"`
	N    int64   `json:"n"`
}

// HistogramSnapshot is the JSON form of a duration histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumMS   float64           `json:"sum_ms"`
	Buckets []HistogramBucket `json:"buckets"`
}
