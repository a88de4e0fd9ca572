//go:build servebench

package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The serve saturation gate: two closed loops (16 connections, 6 s measured
// after 2 s warmup), each against a fresh in-process easerd over real
// sockets. Tag-gated because it saturates the machine for ~20 s:
//
//	go test -tags servebench -v ./cmd/eaload

// minPredictRPS is a catastrophe floor for closed-loop /v1/predict: 25% of
// the 40,520.8 req/s in the BENCH_SERVE.json snapshot committed in 787a18d
// (a dev box). CI runners vary widely in single-core speed, so only an
// order-of-magnitude regression — a lock back on the hot path, an
// accidental fallback — trips it.
const minPredictRPS = 10_130

// closedLoop runs eaload -inprocess in closed-loop mode with args appended
// and returns its report.
func closedLoop(t *testing.T, args ...string) Report {
	t.Helper()
	var out bytes.Buffer
	base := []string{"-inprocess", "-json", "-conns", "16", "-duration", "6s", "-warmup", "2s"}
	if err := run(append(base, args...), &out); err != nil {
		t.Fatalf("eaload %v: %v", args, err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("eaload %v report: %v", args, err)
	}
	if rep.Errors != 0 || rep.Non2xx != 0 {
		t.Fatalf("eaload %v: %d errors, %d non-2xx", args, rep.Errors, rep.Non2xx)
	}
	return rep
}

func TestServeSaturation(t *testing.T) {
	single := closedLoop(t, "-endpoint", "predict")
	batch := closedLoop(t, "-endpoint", "predict_batch", "-batch", "16")
	t.Logf("predict %.1f req/s, predict_batch x16 %.1f predictions/s",
		single.AchievedRPS, batch.ItemsPerSec)
	// Machine-independent: both numbers come from this run on this box.
	if batch.ItemsPerSec < 2*single.AchievedRPS {
		t.Errorf("batch endpoint no longer amortizes: %.1f predictions/s < 2 x %.1f req/s",
			batch.ItemsPerSec, single.AchievedRPS)
	}
	if single.AchievedRPS < minPredictRPS {
		t.Errorf("closed-loop predict collapsed: %.1f req/s < %d", single.AchievedRPS, minPredictRPS)
	}
}
