package main

import (
	"testing"

	"eabrowse/internal/experiments"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run(-list): %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestTable5Experiment(t *testing.T) {
	if err := run([]string{"-exp", "table5"}); err != nil {
		t.Fatalf("run(table5): %v", err)
	}
}

func TestFig3Experiment(t *testing.T) {
	if err := run([]string{"-exp", "fig3"}); err != nil {
		t.Fatalf("run(fig3): %v", err)
	}
}

func TestBadFaultLoss(t *testing.T) {
	// A loss rate outside [0, 1) must be rejected by the chaos experiment.
	if err := run([]string{"-exp", "chaos", "-fault-loss", "1.5"}); err == nil {
		t.Fatal("chaos accepted -fault-loss 1.5")
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	opts := benchOptions{
		profile: experiments.DefaultChaosProfile(),
		maxLoss: 0.3,
		fleet:   experiments.DefaultFleetConfig(),
	}
	seen := make(map[string]bool)
	for _, e := range allExperiments(&opts) {
		if seen[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.desc == "" || e.run == nil {
			t.Fatalf("experiment %q incomplete", e.name)
		}
	}
}

func TestParallelFlag(t *testing.T) {
	// -parallel is accepted and heavy experiments stay out of 'all' (fleet
	// must only run when named).
	if err := run([]string{"-exp", "table5", "-parallel", "2"}); err != nil {
		t.Fatalf("run(table5 -parallel 2): %v", err)
	}
}

func TestBadFleetUsers(t *testing.T) {
	if err := run([]string{"-exp", "fleet", "-fleet-users", "0"}); err == nil {
		t.Fatal("fleet accepted -fleet-users 0")
	}
}

func TestBadRadioProfile(t *testing.T) {
	if err := run([]string{"-exp", "table5", "-radio", "wimax"}); err == nil {
		t.Fatal("unknown -radio profile accepted")
	}
}

func TestRadioFlag(t *testing.T) {
	// -radio switches the process-wide default; restore it for later tests.
	defer func() {
		if err := experiments.SetDefaultRadioProfile("umts"); err != nil {
			t.Fatal(err)
		}
	}()
	if err := run([]string{"-exp", "table5", "-radio", "lte"}); err != nil {
		t.Fatalf("run(table5 -radio lte): %v", err)
	}
}

func TestBadFleetRadioMix(t *testing.T) {
	if err := run([]string{"-exp", "fleet", "-fleet-radio-mix", "umts"}); err == nil {
		t.Fatal("fleet accepted a weightless radio mix")
	}
	if err := run([]string{"-exp", "fleet", "-fleet-radio-mix", "umts:0.5,zz:0.5"}); err == nil {
		t.Fatal("fleet accepted an unknown profile in the radio mix")
	}
}

// TestBadPprofAddr checks an unbindable -pprof address fails the run
// immediately instead of dying silently inside a goroutine.
func TestBadPprofAddr(t *testing.T) {
	if err := run([]string{"-list", "-pprof", "127.0.0.1:notaport"}); err == nil {
		t.Fatal("nonsense pprof address accepted")
	}
}

// TestPprofCleanShutdown checks a good -pprof address binds and the server
// comes down with the run (a second run on the same flag set must not see
// the port still held).
func TestPprofCleanShutdown(t *testing.T) {
	if err := run([]string{"-list", "-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatalf("run with pprof: %v", err)
	}
	if err := run([]string{"-list", "-pprof", "127.0.0.1:0"}); err != nil {
		t.Fatalf("second run with pprof: %v", err)
	}
}
