package netsim

import (
	"testing"
	"time"

	"eabrowse/internal/rrc"
	"eabrowse/internal/simtime"
)

func newTestLink(t *testing.T) (*simtime.Clock, *rrc.Machine, *Link) {
	t.Helper()
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	link, err := NewLink(clock, radio, DefaultConfig())
	if err != nil {
		t.Fatalf("NewLink: %v", err)
	}
	return clock, radio, link
}

func TestNewLinkValidation(t *testing.T) {
	clock := simtime.NewClock()
	radio, err := rrc.NewMachine(clock, rrc.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := NewLink(nil, radio, DefaultConfig()); err == nil {
		t.Fatal("NewLink(nil clock) succeeded")
	}
	if _, err := NewLink(clock, nil, DefaultConfig()); err == nil {
		t.Fatal("NewLink(nil radio) succeeded")
	}
	bad := DefaultConfig()
	bad.DCHDownKBps = 0
	if _, err := NewLink(clock, radio, bad); err == nil {
		t.Fatal("NewLink(bad config) succeeded")
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero DCH bw", func(c *Config) { c.DCHDownKBps = 0 }},
		{"zero FACH bw", func(c *Config) { c.FACHDownKBps = 0 }},
		{"negative FACH max", func(c *Config) { c.FACHMaxBytes = -1 }},
		{"negative RTT", func(c *Config) { c.RTT = -time.Second }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate succeeded, want error")
			}
		})
	}
}

func TestFetchRejectsNonPositiveSize(t *testing.T) {
	_, _, link := newTestLink(t)
	if err := link.Fetch("x", 0, nil); err == nil {
		t.Fatal("Fetch(0 bytes) succeeded")
	}
	if err := link.Fetch("x", -5, nil); err == nil {
		t.Fatal("Fetch(-5 bytes) succeeded")
	}
}

func TestSingleFetchTiming(t *testing.T) {
	clock, radio, link := newTestLink(t)
	var doneAt time.Duration
	if err := link.Fetch("obj", 96*1024, func() { doneAt = clock.Now() }); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock.Run()
	// Promotion (1.75 s) + RTT (0.12 s) + 96 KB at 96 KB/s (1 s).
	want := radio.Config().PromoIdleToDCH + link.Config().RTT + time.Second
	if doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	if link.BytesDown() != 96*1024 {
		t.Fatalf("BytesDown = %d, want %d", link.BytesDown(), 96*1024)
	}
}

func TestBulkDownloadCalibration(t *testing.T) {
	// The paper's Fig. 4: a raw socket download of 760 KB takes ~8 s.
	clock, _, link := newTestLink(t)
	var doneAt time.Duration
	if err := link.Fetch("bulk", 760*1024, func() { doneAt = clock.Now() }); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock.Run()
	secs := doneAt.Seconds()
	if secs < 7 || secs > 11 {
		t.Fatalf("760 KB bulk download took %.2f s, want ~8-10 s (incl. promotion)", secs)
	}
}

func TestFIFOOrdering(t *testing.T) {
	clock, _, link := newTestLink(t)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		if err := link.Fetch(name, 10*1024, func() { order = append(order, name) }); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
	}
	clock.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("completion order = %v, want [a b c]", order)
	}
}

func TestBackToBackTransfersKeepDCH(t *testing.T) {
	clock, radio, link := newTestLink(t)
	for i := 0; i < 5; i++ {
		if err := link.Fetch("obj", 48*1024, nil); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
	}
	// After promotion plus half the transfers, radio must still be DCH and
	// never demote mid-queue.
	clock.RunUntil(radio.Config().PromoIdleToDCH + 1500*time.Millisecond)
	if radio.State() != rrc.StateDCH {
		t.Fatalf("State = %v mid-queue, want DCH", radio.State())
	}
	clock.Run()
	if got := link.BytesDown(); got != 5*48*1024 {
		t.Fatalf("BytesDown = %d, want %d", got, 5*48*1024)
	}
}

func TestRecordsAndWindow(t *testing.T) {
	clock, _, link := newTestLink(t)
	if _, _, ok := link.TransmissionWindow(); ok {
		t.Fatal("TransmissionWindow ok before any transfer")
	}
	for i := 0; i < 3; i++ {
		if err := link.Fetch("obj", 96*1024, nil); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
	}
	clock.Run()
	recs := link.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	start, end, ok := link.TransmissionWindow()
	if !ok {
		t.Fatal("TransmissionWindow not ok")
	}
	if start != recs[0].Start || end != recs[2].End {
		t.Fatalf("window [%v,%v], want [%v,%v]", start, end, recs[0].Start, recs[2].End)
	}
	for _, r := range recs {
		if !r.OverDCH {
			t.Fatalf("record %+v not over DCH", r)
		}
		if r.End <= r.Start {
			t.Fatalf("record %+v has non-positive duration", r)
		}
	}
}

func TestSmallTransferOverFACH(t *testing.T) {
	clock, radio, link := newTestLink(t)
	// Get to FACH first: one transfer, then wait T1.
	if err := link.Fetch("warm", 10*1024, nil); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock.Run() // radio idles out eventually; rerun a fresh scenario instead
	// Radio back to IDLE. Promote and demote to FACH:
	if err := link.Fetch("warm2", 10*1024, nil); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock.RunUntil(clock.Now() + radio.Config().PromoIdleToDCH + time.Second + radio.Config().T1)
	if radio.State() != rrc.StateFACH {
		t.Fatalf("State = %v, want FACH", radio.State())
	}
	// 100-byte transfer stays on FACH.
	if err := link.Fetch("tiny", 100, nil); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock.RunFor(time.Second)
	if radio.State() != rrc.StateFACH {
		t.Fatalf("State = %v during tiny transfer, want FACH", radio.State())
	}
	clock.Run()
	recs := link.Records()
	last := recs[len(recs)-1]
	if last.OverDCH {
		t.Fatal("tiny transfer went over DCH")
	}
}

// TestDrainedHook: the link drains completely after each burst of queued
// transfers, and is busy again once refilled.
func TestDrainedHook(t *testing.T) {
	clock, _, link := newTestLink(t)
	if err := link.Fetch("a", 10*1024, nil); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if err := link.Fetch("b", 10*1024, nil); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock.Run()
	if link.Busy() || link.QueueLen() != 0 {
		t.Fatalf("link not drained: busy=%v queue=%d", link.Busy(), link.QueueLen())
	}
	if err := link.Fetch("c", 10*1024, nil); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if !link.Busy() {
		t.Fatal("refilled link not busy")
	}
	clock.Run()
	if link.Busy() || link.QueueLen() != 0 {
		t.Fatalf("link not drained after refill: busy=%v queue=%d", link.Busy(), link.QueueLen())
	}
}

func TestQueueLenAndBusy(t *testing.T) {
	clock, _, link := newTestLink(t)
	if link.Busy() {
		t.Fatal("fresh link busy")
	}
	for i := 0; i < 3; i++ {
		if err := link.Fetch("obj", 10*1024, nil); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
	}
	if !link.Busy() {
		t.Fatal("link not busy with queued work")
	}
	if got := link.QueueLen(); got != 2 {
		t.Fatalf("QueueLen = %d, want 2", got)
	}
	clock.Run()
	if link.Busy() || link.QueueLen() != 0 {
		t.Fatalf("link not drained: busy=%v queue=%d", link.Busy(), link.QueueLen())
	}
}

func TestUplinkSend(t *testing.T) {
	clock, radio, link := newTestLink(t)
	var doneAt time.Duration
	if err := link.Send("up", 32*1024, func() { doneAt = clock.Now() }); err != nil {
		t.Fatalf("Send: %v", err)
	}
	clock.Run()
	// Promotion + RTT + 32 KB at the slower uplink rate (32 KB/s → 1 s).
	want := radio.Config().PromoIdleToDCH + link.Config().RTT + time.Second
	if doneAt != want {
		t.Fatalf("uplink done at %v, want %v", doneAt, want)
	}
	recs := link.Records()
	if len(recs) != 1 || !recs[0].Uplink {
		t.Fatalf("records = %+v, want one uplink record", recs)
	}
}

func TestUplinkSlowerThanDownlink(t *testing.T) {
	clock, _, link := newTestLink(t)
	var upEnd, downEnd time.Duration
	if err := link.Send("up", 64*1024, func() { upEnd = clock.Now() }); err != nil {
		t.Fatalf("Send: %v", err)
	}
	clock.Run()
	clock2, _, link2 := newTestLink(t)
	if err := link2.Fetch("down", 64*1024, func() { downEnd = clock2.Now() }); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	clock2.Run()
	if upEnd <= downEnd {
		t.Fatalf("uplink (%v) not slower than downlink (%v)", upEnd, downEnd)
	}
}

func TestSendRejectsNonPositive(t *testing.T) {
	_, _, link := newTestLink(t)
	if err := link.Send("x", 0, nil); err == nil {
		t.Fatal("Send(0) accepted")
	}
}
