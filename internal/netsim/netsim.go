// Package netsim models the data path between the smartphone and the web
// server on top of the RRC state machine: a FIFO radio link with DCH-grade
// throughput, a per-request round-trip overhead, and a slow FACH path for
// tiny transfers.
//
// Bandwidth is calibrated to the paper's Fig. 4 measurement: a raw socket
// download of 760 KB over DCH takes about 8 seconds, while the shared FACH
// channels move only a few hundred bytes per second (Section 2.1).
package netsim

import (
	"errors"
	"fmt"
	"time"

	"eabrowse/internal/channel"
	"eabrowse/internal/faults"
	"eabrowse/internal/obs"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

// ErrTransferFailed marks a transfer that died after exhausting the link's
// retry budget (injected hard failure or unrecoverable stall).
var ErrTransferFailed = errors.New("netsim: transfer failed")

// DefaultTransferAttempts is how many times the link tries a transfer before
// reporting failure to the caller: the first attempt plus two retries.
const DefaultTransferAttempts = 3

// StallAbortTimeout is the link's stall watchdog: an attempt that makes no
// progress for this long is aborted and retried. Stalls shorter than this
// are ridden out (they just lengthen the transfer).
const StallAbortTimeout = 5 * time.Second

// Config holds link parameters.
type Config struct {
	// DCHDownKBps is downlink throughput on dedicated channels, KB/s.
	DCHDownKBps float64
	// DCHUpKBps is uplink throughput on dedicated channels, KB/s (UMTS
	// uplinks were several times slower than downlinks).
	DCHUpKBps float64
	// FACHDownKBps is downlink throughput on the shared channels, KB/s.
	FACHDownKBps float64
	// FACHMaxBytes is the largest transfer allowed to ride FACH without a
	// promotion to DCH.
	FACHMaxBytes int
	// RTT is the fixed per-request overhead (HTTP request + first byte).
	RTT time.Duration
}

// DefaultConfig returns the calibrated link: 760 KB in ≈8 s over DCH.
func DefaultConfig() Config {
	return Config{
		DCHDownKBps:  96,
		DCHUpKBps:    32,
		FACHDownKBps: 0.3,
		FACHMaxBytes: 256,
		RTT:          300 * time.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.DCHDownKBps <= 0 || c.DCHUpKBps <= 0:
		return errors.New("netsim: DCH bandwidth must be positive")
	case c.FACHDownKBps <= 0:
		return errors.New("netsim: FACH bandwidth must be positive")
	case c.FACHMaxBytes < 0:
		return errors.New("netsim: FACH max bytes must be non-negative")
	case c.RTT < 0:
		return errors.New("netsim: RTT must be non-negative")
	}
	return nil
}

// Record describes one completed transfer, for the traffic-shape analysis of
// Fig. 4.
type Record struct {
	URL     string
	Bytes   int
	Start   time.Duration
	End     time.Duration
	OverDCH bool
	// Uplink marks a Send (device → server) transfer.
	Uplink bool
	// Attempts counts how many times the link tried the transfer (1 in the
	// fault-free simulation).
	Attempts int
	// Failed marks a transfer that exhausted its attempts without
	// delivering the last byte.
	Failed bool
}

// Transfer is a pending or in-flight transfer.
type Transfer struct {
	url      string
	bytes    int
	uplink   bool
	done     func(error)
	enqueued time.Duration
	attempt  int
	started  time.Duration
	everRan  bool
}

// URL returns the transfer's URL tag.
func (t *Transfer) URL() string { return t.url }

// Bytes returns the transfer size.
func (t *Transfer) Bytes() int { return t.bytes }

// Link is a FIFO radio data link bound to one RRC machine. Not safe for
// concurrent use (single-threaded simulation).
//
// The link moves one transfer at a time: queued transfers wait as values in a
// head-indexed slice and the in-flight one lives in cur, so the fault-free
// steady state allocates nothing per transfer. The completion callbacks the
// link schedules on the clock are bound once at construction.
type Link struct {
	clock *simtime.Clock
	radio rrc.RadioModel
	cfg   Config

	queue []Transfer
	qHead int
	cur   Transfer
	busy  bool

	// Prebound hot-path callbacks (fault paths build closures instead; they
	// only run under injection).
	startDCHFn func()
	dchEndFn   func()
	fachEndFn  func()

	records []Record

	bytesDown  int
	firstStart time.Duration
	lastEnd    time.Duration
	everMoved  bool

	faults      *faults.Injector
	channel     *channel.Schedule
	maxAttempts int
	retries     int
	failed      int

	observer *obs.Recorder
}

// NewLink creates a link over the given radio (any rrc.RadioModel backend).
func NewLink(clock *simtime.Clock, radio rrc.RadioModel, cfg Config) (*Link, error) {
	if clock == nil {
		return nil, errors.New("netsim: nil clock")
	}
	if radio == nil {
		return nil, errors.New("netsim: nil radio")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Queue and record capacity cover a typical page load outright, so a
	// fresh link never grows them mid-visit.
	l := &Link{
		clock:       clock,
		radio:       radio,
		cfg:         cfg,
		maxAttempts: DefaultTransferAttempts,
		queue:       make([]Transfer, 0, 8),
		records:     make([]Record, 0, 16),
	}
	l.startDCHFn = l.startDCHCur
	l.dchEndFn = l.dchEnd
	l.fachEndFn = l.fachEnd
	return l, nil
}

// Reset returns the link to a fresh drained state, keeping queue and record
// capacity. The owning session must Reset the shared clock first so no stale
// completion events remain queued.
func (l *Link) Reset() {
	for i := range l.queue {
		l.queue[i] = Transfer{}
	}
	l.queue = l.queue[:0]
	l.qHead = 0
	l.cur = Transfer{}
	l.busy = false
	l.records = l.records[:0]
	l.bytesDown = 0
	l.firstStart = 0
	l.lastEnd = 0
	l.everMoved = false
	l.retries = 0
	l.failed = 0
}

// SetFaults attaches an impairment injector. A nil injector (the default)
// leaves the link fault-free and bit-for-bit identical to the unimpaired
// simulation. Attach before issuing transfers.
func (l *Link) SetFaults(in *faults.Injector) {
	l.faults = in
}

// SetObserver attaches an event recorder. A nil recorder (the default)
// disables transfer tracing at the cost of a pointer test per hook.
func (l *Link) SetObserver(r *obs.Recorder) {
	l.observer = r
}

// SetChannel attaches a time-varying channel schedule; the schedule's origin
// is the clock's zero, so attach before the simulation starts. A nil schedule
// (the default) keeps the fixed-link arithmetic bit-for-bit unchanged.
//
// The channel composes with fault injection toxiproxy-style: the schedule
// first scales bandwidth and adds latency deterministically, then the
// injector's per-attempt plan stacks its own factor, extra RTT, stalls and
// failures on top. Like the injector and observer, the channel survives
// Reset — it is part of the link's wiring, not its per-run state.
func (l *Link) SetChannel(s *channel.Schedule) {
	l.channel = s
}

// Channel returns the attached schedule, or nil for the fixed link.
func (l *Link) Channel() *channel.Schedule { return l.channel }

// attemptDur computes one attempt's duration: per-request overhead plus the
// payload time at rate kbps (already scaled by the fault plan's factor).
// Under a channel schedule the payload is integrated piecewise across
// segment boundaries so each segment carries exactly the bytes its
// conditions allow; without one this is the original fixed-link arithmetic.
func (l *Link) attemptDur(t *Transfer, plan faults.TransferPlan, kbps float64) time.Duration {
	if l.channel == nil {
		return l.cfg.RTT + plan.ExtraRTT + kbDuration(t.bytes, kbps)
	}
	now := l.clock.Now()
	overhead := l.cfg.RTT + plan.ExtraRTT + l.channel.At(now).ExtraRTT
	return overhead + l.channel.XferDuration(now+overhead, t.bytes, kbps)
}

// Retries returns how many transfer attempts the link aborted and retried.
func (l *Link) Retries() int { return l.retries }

// FailedTransfers returns how many transfers exhausted their attempts.
func (l *Link) FailedTransfers() int { return l.failed }

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// BytesDown returns the total bytes downloaded so far.
func (l *Link) BytesDown() int { return l.bytesDown }

// Records returns a copy of the completed-transfer log.
func (l *Link) Records() []Record {
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// TransmissionWindow returns the time of the first transfer start and the
// last transfer end, i.e. the paper's "data transmission time" window. ok is
// false if nothing has been transferred.
func (l *Link) TransmissionWindow() (start, end time.Duration, ok bool) {
	if !l.everMoved {
		return 0, 0, false
	}
	return l.firstStart, l.lastEnd, true
}

// Fetch enqueues a download of size bytes tagged with url; done (optional)
// runs when the last byte arrives. Returns an error for non-positive sizes.
// If the transfer fails permanently (possible only under fault injection),
// done never runs — callers that must observe failures use FetchResult.
func (l *Link) Fetch(url string, bytes int, done func()) error {
	return l.enqueue(url, bytes, false, adaptDone(done))
}

// Send enqueues an uplink transfer (device → server) of size bytes; done
// (optional) runs when the last byte has been sent. Like Fetch, done is not
// invoked for a permanently failed transfer; use SendResult to observe those.
func (l *Link) Send(url string, bytes int, done func()) error {
	return l.enqueue(url, bytes, true, adaptDone(done))
}

// FetchResult is Fetch with an error-aware completion callback: done runs
// exactly once, with nil when the last byte arrived or with an error
// (wrapping ErrTransferFailed) when the link gave up after its retry budget.
func (l *Link) FetchResult(url string, bytes int, done func(error)) error {
	return l.enqueue(url, bytes, false, done)
}

// adaptDone wraps a success-only callback for the error-aware queue.
func adaptDone(done func()) func(error) {
	if done == nil {
		return nil
	}
	return func(err error) {
		if err == nil {
			done()
		}
	}
}

func (l *Link) enqueue(url string, bytes int, uplink bool, done func(error)) error {
	if bytes <= 0 {
		return fmt.Errorf("netsim: transfer %q with %d bytes", url, bytes)
	}
	l.queue = append(l.queue, Transfer{
		url:      url,
		bytes:    bytes,
		uplink:   uplink,
		done:     done,
		enqueued: l.clock.Now(),
	})
	l.pump()
	return nil
}

// pump starts the next queued transfer if the link is free.
func (l *Link) pump() {
	if l.busy || l.qHead == len(l.queue) {
		return
	}
	l.cur = l.queue[l.qHead]
	l.queue[l.qHead] = Transfer{}
	l.qHead++
	if l.qHead == len(l.queue) {
		l.queue = l.queue[:0]
		l.qHead = 0
	}
	l.busy = true

	// Tiny transfers ride the shared channel when the backend has one and
	// the radio already sits there (UMTS FACH).
	if l.cur.bytes <= l.cfg.FACHMaxBytes && l.radio.SharedReady() {
		l.startFACH(&l.cur)
		return
	}
	l.radio.RequestActive(l.startDCHFn)
}

// startDCHCur starts the in-flight transfer over DCH (the prebound form the
// radio calls back once dedicated channels are up).
func (l *Link) startDCHCur() {
	l.startDCH(&l.cur)
}

// dchEnd completes a clean DCH attempt of the in-flight transfer.
func (l *Link) dchEnd() {
	t := &l.cur
	if err := l.radio.EndTransfer(); err != nil {
		// A demotion reached the radio mid-transfer (fault-injected timing
		// can produce this); propagate instead of panicking so the transfer's
		// completion callback learns about it.
		l.retryOrFail(t, true, fmt.Errorf("netsim: end transfer %q: %v: %w", t.url, err, ErrTransferFailed))
		return
	}
	l.finish(t, true, nil)
}

// fachEnd completes a clean FACH attempt of the in-flight transfer.
func (l *Link) fachEnd() {
	l.radio.TouchShared()
	l.finish(&l.cur, false, nil)
}

// noteStart records the start of a transfer's first attempt.
func (t *Transfer) noteStart(now time.Duration) {
	if !t.everRan {
		t.started = now
		t.everRan = true
	}
}

func (l *Link) startDCH(t *Transfer) {
	if err := l.radio.BeginTransfer(); err != nil {
		// The radio was demoted between the callback being scheduled and
		// running (cannot happen with the current machine, but fail safe):
		// retry through a fresh active-state request.
		l.radio.RequestActive(l.startDCHFn)
		return
	}
	t.noteStart(l.clock.Now())
	l.noteAttempt(t, "DCH")
	plan := l.faults.PlanTransfer(t.uplink, false)
	bw := l.cfg.DCHDownKBps
	if t.uplink {
		bw = l.cfg.DCHUpKBps
	}
	bw *= plan.ThroughputFactor
	dur := l.attemptDur(t, plan, bw)

	// An injected hard failure kills the attempt partway through; a stall
	// longer than the watchdog aborts it once the watchdog expires. Either
	// way the radio transfer ends early and the attempt is retried (or the
	// transfer reported failed once the budget is spent). Short stalls are
	// ridden out — they only lengthen the attempt. The abort closure lives
	// in a helper so the fault-free path stays allocation-free.
	switch {
	case plan.Fail:
		l.abortDCH(t, time.Duration(float64(dur)*plan.FailFrac),
			fmt.Errorf("netsim: %q died mid-transfer: %w", t.url, ErrTransferFailed))
		return
	case plan.Stall >= StallAbortTimeout:
		l.abortDCH(t, dur/2+StallAbortTimeout,
			fmt.Errorf("netsim: %q stalled beyond %v: %w", t.url, StallAbortTimeout, ErrTransferFailed))
		return
	case plan.Stall > 0:
		dur += plan.Stall
	}
	l.clock.Defer(dur, l.dchEndFn)
}

// abortDCH schedules the early death of the in-flight DCH attempt (fault
// injection only).
func (l *Link) abortDCH(t *Transfer, after time.Duration, cause error) {
	l.clock.After(after, func() {
		if err := l.radio.EndTransfer(); err != nil {
			// The radio state decayed under the dead attempt; the abort
			// below retries or reports failure regardless.
			cause = fmt.Errorf("netsim: end aborted transfer %q: %v: %w", t.url, err, ErrTransferFailed)
		}
		l.retryOrFail(t, true, cause)
	})
}

func (l *Link) startFACH(t *Transfer) {
	t.noteStart(l.clock.Now())
	l.noteAttempt(t, "FACH")
	l.radio.TouchShared()
	plan := l.faults.PlanTransfer(t.uplink, true)
	dur := plan.Stall + l.attemptDur(t, plan, l.cfg.FACHDownKBps*plan.ThroughputFactor)
	if plan.Fail {
		at := time.Duration(float64(dur) * plan.FailFrac)
		l.clock.After(at, func() {
			l.radio.TouchShared()
			l.retryOrFail(t, false, fmt.Errorf("netsim: %q died on FACH: %w", t.url, ErrTransferFailed))
		})
		return
	}
	l.clock.Defer(dur, l.fachEndFn)
}

// noteAttempt traces the start of one transfer attempt on the given channel.
func (l *Link) noteAttempt(t *Transfer, channel string) {
	if l.observer == nil {
		return
	}
	l.observer.Record(l.clock.Now(), obs.Event{
		Kind:    obs.KindXferStart,
		URL:     t.url,
		Detail:  channel,
		Bytes:   t.bytes,
		Attempt: t.attempt + 1,
	})
}

// retryOrFail handles a dead attempt: start over while budget remains,
// otherwise complete the transfer with the error.
func (l *Link) retryOrFail(t *Transfer, overDCH bool, cause error) {
	if t.attempt+1 < l.maxAttempts {
		if l.observer != nil {
			l.observer.Record(l.clock.Now(), obs.Event{
				Kind:    obs.KindXferRetry,
				URL:     t.url,
				Detail:  cause.Error(),
				Attempt: t.attempt + 1,
			})
		}
		t.attempt++
		l.retries++
		if overDCH {
			l.radio.RequestActive(l.startDCHFn)
		} else {
			l.startFACH(t)
		}
		return
	}
	l.failed++
	l.finish(t, overDCH, cause)
}

func (l *Link) finish(t *Transfer, overDCH bool, failure error) {
	now := l.clock.Now()
	l.records = append(l.records, Record{
		URL:      t.url,
		Bytes:    t.bytes,
		Start:    t.started,
		End:      now,
		OverDCH:  overDCH,
		Uplink:   t.uplink,
		Attempts: t.attempt + 1,
		Failed:   failure != nil,
	})
	if failure == nil {
		l.bytesDown += t.bytes
	}
	if l.observer != nil {
		kind := obs.KindXferEnd
		if failure != nil {
			kind = obs.KindXferFailed
		}
		l.observer.Record(now, obs.Event{
			Kind:    kind,
			URL:     t.url,
			Bytes:   t.bytes,
			Attempt: t.attempt + 1,
			DurNS:   int64(now - t.started),
		})
		l.observer.ObserveDur("xfer_ns", now-t.started)
	}
	if !l.everMoved {
		l.firstStart = t.started
		l.everMoved = true
	}
	l.lastEnd = now
	l.busy = false
	// Copy the completion callback before pump can overwrite cur: done may
	// enqueue follow-up transfers, which start immediately on the free link.
	done := t.done
	t.done = nil
	if done != nil {
		done(failure)
	}
	l.pump()
}

// kbDuration converts a byte count and a KB/s rate into a duration.
func kbDuration(bytes int, kbps float64) time.Duration {
	seconds := float64(bytes) / 1024 / kbps
	return time.Duration(seconds * float64(time.Second))
}
