package ril

import (
	"testing"
	"time"

	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

func newRig(t *testing.T, opts ...Option) (*simtime.Clock, *rrc.Machine, *Interface) {
	t.Helper()
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	r, err := New(clock, radio, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return clock, radio, r
}

func promoteToDCH(t *testing.T, clock *simtime.Clock, radio *rrc.Machine) {
	t.Helper()
	radio.RequestActive(func() {})
	clock.RunUntil(clock.Now() + radio.Config().PromoIdleToDCH)
	if radio.State() != rrc.StateDCH {
		t.Fatalf("setup: radio = %v, want DCH", radio.State())
	}
}

func TestNewValidation(t *testing.T) {
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := New(nil, radio); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := New(clock, nil); err == nil {
		t.Fatal("nil radio accepted")
	}
	if _, err := New(clock, radio, WithHopLatency(-time.Second)); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestQueryState(t *testing.T) {
	clock, _, r := newRig(t)
	var resp Response
	got := false
	r.Submit(OpQueryState, func(rs Response) { resp = rs; got = true })
	clock.Run()
	if !got {
		t.Fatal("no response delivered")
	}
	if resp.Status != StatusOK || resp.State != rrc.StateIdle {
		t.Fatalf("response = %+v", resp)
	}
}

func TestForceDormancyFromDCH(t *testing.T) {
	clock, radio, r := newRig(t)
	promoteToDCH(t, clock, radio)
	var resp Response
	r.Submit(OpForceDormancy, func(rs Response) { resp = rs })
	clock.RunFor(time.Second)
	if resp.Status != StatusOK {
		t.Fatalf("status = %v, want OK", resp.Status)
	}
	clock.RunFor(radio.Config().ReleaseDelay)
	if radio.State() != rrc.StateIdle {
		t.Fatalf("radio = %v after dormancy, want IDLE", radio.State())
	}
	if r.Served(StatusOK) != 1 {
		t.Fatalf("Served(OK) = %d", r.Served(StatusOK))
	}
}

func TestForceDormancyBusyDuringTransfer(t *testing.T) {
	clock, radio, r := newRig(t)
	promoteToDCH(t, clock, radio)
	if err := radio.BeginTransfer(); err != nil {
		t.Fatalf("BeginTransfer: %v", err)
	}
	var resp Response
	r.Submit(OpForceDormancy, func(rs Response) { resp = rs })
	clock.RunFor(time.Second)
	if resp.Status != StatusBusy {
		t.Fatalf("status = %v, want BUSY", resp.Status)
	}
	if r.Served(StatusBusy) != 1 {
		t.Fatalf("Served(BUSY) = %d", r.Served(StatusBusy))
	}
}

func TestHopLatencyApplied(t *testing.T) {
	clock, _, r := newRig(t, WithHopLatency(100*time.Millisecond))
	var at time.Duration
	r.Submit(OpQueryState, func(Response) { at = clock.Now() })
	clock.Run()
	if at != 100*time.Millisecond {
		t.Fatalf("response at %v, want 100ms", at)
	}
}

func TestRequestIDsIncrease(t *testing.T) {
	_, _, r := newRig(t)
	a := r.Submit(OpQueryState, nil)
	b := r.Submit(OpQueryState, nil)
	if b <= a {
		t.Fatalf("ids not increasing: %d, %d", a, b)
	}
}

func TestUnknownOpErrors(t *testing.T) {
	clock, _, r := newRig(t)
	var resp Response
	r.Submit(Op(99), func(rs Response) { resp = rs })
	clock.Run()
	if resp.Status != StatusError {
		t.Fatalf("status = %v, want ERROR", resp.Status)
	}
}

func TestForceDormancyWithRetry(t *testing.T) {
	clock, radio, r := newRig(t)
	promoteToDCH(t, clock, radio)
	if err := radio.BeginTransfer(); err != nil {
		t.Fatalf("BeginTransfer: %v", err)
	}
	// The transfer ends after 300 ms; the first attempt hits BUSY, a retry
	// succeeds.
	clock.After(300*time.Millisecond, func() {
		if err := radio.EndTransfer(); err != nil {
			t.Fatalf("EndTransfer: %v", err)
		}
	})
	var final Response
	r.ForceDormancyWithRetry(5, 200*time.Millisecond, func(rs Response) { final = rs })
	clock.RunFor(3 * time.Second)
	if final.Status != StatusOK {
		t.Fatalf("final status = %v, want OK after retries", final.Status)
	}
	if r.Served(StatusBusy) == 0 {
		t.Fatal("no BUSY observed before success")
	}
}

func TestForceDormancyWithRetryGivesUp(t *testing.T) {
	clock, radio, r := newRig(t)
	promoteToDCH(t, clock, radio)
	if err := radio.BeginTransfer(); err != nil {
		t.Fatalf("BeginTransfer: %v", err)
	}
	var final Response
	gotFinal := false
	r.ForceDormancyWithRetry(3, 50*time.Millisecond, func(rs Response) { final = rs; gotFinal = true })
	clock.RunFor(2 * time.Second)
	if !gotFinal {
		t.Fatal("retry loop never reported")
	}
	if final.Status != StatusBusy {
		t.Fatalf("final status = %v, want BUSY after exhausting retries", final.Status)
	}
	if r.Served(StatusBusy) != 3 {
		t.Fatalf("Served(BUSY) = %d, want 3 attempts", r.Served(StatusBusy))
	}
}

func TestStrings(t *testing.T) {
	if OpForceDormancy.String() != "FORCE_DORMANCY" || OpQueryState.String() != "QUERY_STATE" {
		t.Fatal("op names wrong")
	}
	if Op(7).String() != "Op(7)" {
		t.Fatal("unknown op name wrong")
	}
	if StatusOK.String() != "OK" || StatusBusy.String() != "BUSY" || StatusError.String() != "ERROR" {
		t.Fatal("status names wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Fatal("unknown status name wrong")
	}
}
