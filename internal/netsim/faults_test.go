package netsim

import (
	"errors"
	"testing"
	"time"

	"eabrowse/internal/faults"
	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

// newFaultyLink builds a link with the given injector attached.
func newFaultyLink(t *testing.T, cfg faults.Config) (*simtime.Clock, *rrc.Machine, *Link) {
	t.Helper()
	clock, radio, link := newTestLink(t)
	in, err := faults.New(cfg)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	link.SetFaults(in)
	return clock, radio, link
}

func TestZeroFaultInjectorKeepsTimingIdentical(t *testing.T) {
	_, _, plain := newTestLink(t)
	var plainDone time.Duration
	if err := plain.Fetch("obj", 96*1024, nil); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock2, _, faulty := newFaultyLink(t, faults.Config{Seed: 99})
	if err := faulty.Fetch("obj", 96*1024, func() { plainDone = clock2.Now() }); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	// Drive both simulations and compare the records.
	clockOf := func(l *Link) *simtime.Clock { return l.clock }
	clockOf(plain).Run()
	clock2.Run()
	pr, fr := plain.Records(), faulty.Records()
	if len(pr) != 1 || len(fr) != 1 {
		t.Fatalf("records: %d vs %d", len(pr), len(fr))
	}
	if pr[0] != fr[0] {
		t.Fatalf("zero-fault injector changed the transfer record: %+v vs %+v", pr[0], fr[0])
	}
	if fr[0].End != plainDone {
		t.Fatalf("done callback at %v, record end %v", plainDone, fr[0].End)
	}
	if faulty.Retries() != 0 || faulty.FailedTransfers() != 0 {
		t.Fatal("zero-fault injector produced retries or failures")
	}
}

// TestSendRidesOutShortStall: a stall below the watchdog threshold lengthens
// the uplink transfer but does not abort it.
func TestSendRidesOutShortStall(t *testing.T) {
	stall := 2 * time.Second
	clock, _, link := newFaultyLink(t, faults.Config{
		Seed:      3,
		StallRate: 0.999,
		StallMin:  stall,
		StallMax:  stall,
	})
	var doneAt time.Duration
	if err := link.Send("up", 32*1024, func() { doneAt = clock.Now() }); err != nil {
		t.Fatalf("Send: %v", err)
	}
	clock.Run()
	recs := link.Records()
	if len(recs) != 1 || recs[0].Failed || !recs[0].Uplink {
		t.Fatalf("unexpected records: %+v", recs)
	}
	if recs[0].Attempts != 1 {
		t.Fatalf("short stall should not retry, got %d attempts", recs[0].Attempts)
	}
	// Fault-free: promo 1.75 s + RTT 0.3 s + 32 KB at 32 KB/s = 1 s; the
	// stall adds its full length on top.
	faultFree := 1750*time.Millisecond + 300*time.Millisecond + time.Second
	if doneAt < faultFree+stall {
		t.Fatalf("done at %v, want at least %v", doneAt, faultFree+stall)
	}
}

// TestSendAbortsLongStallAndFails: every attempt stalls beyond the watchdog,
// so the link aborts each one and finally reports failure through the
// error-aware callback — and the link still drains.
func TestSendAbortsLongStallAndFails(t *testing.T) {
	clock, radio, link := newFaultyLink(t, faults.Config{
		Seed:      5,
		StallRate: 0.999,
		StallMin:  2 * StallAbortTimeout,
		StallMax:  2 * StallAbortTimeout,
	})
	var got error
	settled := 0
	if err := link.SendResult("up", 32*1024, func(err error) { settled++; got = err }); err != nil {
		t.Fatalf("SendResult: %v", err)
	}
	clock.Run()
	if settled != 1 {
		t.Fatalf("completion callback ran %d times, want 1", settled)
	}
	if !errors.Is(got, ErrTransferFailed) {
		t.Fatalf("error %v does not wrap ErrTransferFailed", got)
	}
	if link.Retries() != DefaultTransferAttempts-1 {
		t.Fatalf("retries = %d, want %d", link.Retries(), DefaultTransferAttempts-1)
	}
	if link.FailedTransfers() != 1 {
		t.Fatalf("failed transfers = %d, want 1", link.FailedTransfers())
	}
	recs := link.Records()
	if len(recs) != 1 || !recs[0].Failed || recs[0].Attempts != DefaultTransferAttempts {
		t.Fatalf("unexpected record: %+v", recs)
	}
	if link.BytesDown() != 0 {
		t.Fatalf("failed transfer counted %d bytes down", link.BytesDown())
	}
	if link.Busy() || link.QueueLen() != 0 {
		t.Fatal("link wedged after failed transfer")
	}
	// The radio must not be stuck transferring; its timers demote it.
	if radio.Transferring() {
		t.Fatal("radio still marked transferring after abort")
	}
}

// TestDrainedHookUnderInjectedFailures: a mixed queue of downlink and uplink
// transfers under heavy hard-failure injection still drains exactly, every
// callback fires exactly once, and the byte counter reflects successes only.
func TestDrainedHookUnderInjectedFailures(t *testing.T) {
	clock, _, link := newFaultyLink(t, faults.Config{Seed: 11, FailRate: 0.5})
	const n = 12
	size := 24 * 1024
	completions := 0
	failures := 0
	for i := 0; i < n; i++ {
		cb := func(err error) {
			completions++
			if err != nil {
				failures++
			}
		}
		var err error
		if i%3 == 0 {
			err = link.SendResult("up", size, cb)
		} else {
			err = link.FetchResult("down", size, cb)
		}
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	clock.Run()
	if completions != n {
		t.Fatalf("completions = %d, want %d", completions, n)
	}
	if failures != link.FailedTransfers() {
		t.Fatalf("callback failures %d != link failed transfers %d", failures, link.FailedTransfers())
	}
	// FailRate 0.5 over 12 transfers × 3 attempts: both outcomes must occur.
	if failures == 0 || failures == n {
		t.Fatalf("degenerate failure count %d of %d (seed drift?)", failures, n)
	}
	if want := (n - failures) * size; link.BytesDown() != want {
		t.Fatalf("bytes down = %d, want %d (successes only)", link.BytesDown(), want)
	}
	if link.Busy() || link.QueueLen() != 0 {
		t.Fatalf("link not drained: busy=%v queue=%d", link.Busy(), link.QueueLen())
	}
	recs := link.Records()
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	retried := 0
	for _, r := range recs {
		if r.Attempts > 1 {
			retried++
		}
		if r.Failed && r.Attempts != DefaultTransferAttempts {
			t.Fatalf("failed record with %d attempts: %+v", r.Attempts, r)
		}
	}
	if retried == 0 {
		t.Fatal("no transfer was ever retried at 50% fail rate")
	}
}

// TestEndTransferErrorPropagates is the regression test for the old
// fail-safe panic: when the radio's transfer bookkeeping is yanked away
// mid-flight (as an injected demotion can do), the link must propagate the
// problem into a retry instead of panicking the simulation.
func TestEndTransferErrorPropagates(t *testing.T) {
	clock, radio, link := newTestLink(t)
	var got error
	settled := 0
	if err := link.FetchResult("obj", 48*1024, func(err error) { settled++; got = err }); err != nil {
		t.Fatalf("FetchResult: %v", err)
	}
	for !radio.Transferring() {
		if !clock.Step() {
			t.Fatal("transfer never started")
		}
	}
	// Sabotage: end the transfer behind the link's back, so the link's own
	// EndTransfer at completion time fails.
	if err := radio.EndTransfer(); err != nil {
		t.Fatalf("sabotage EndTransfer: %v", err)
	}
	clock.Run()
	if settled != 1 {
		t.Fatalf("completion callback ran %d times, want 1", settled)
	}
	if got != nil {
		t.Fatalf("retry after EndTransfer error should succeed, got %v", got)
	}
	recs := link.Records()
	if len(recs) != 1 || recs[0].Attempts != 2 || recs[0].Failed {
		t.Fatalf("unexpected record after sabotage: %+v", recs)
	}
	if link.Retries() != 1 {
		t.Fatalf("retries = %d, want 1", link.Retries())
	}
}
