package experiments

import (
	"fmt"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/faults"
	"eabrowse/internal/runner"
	"eabrowse/internal/webpage"
)

// The chaos sweep is the regression guard for the fault-hardening layer: it
// loads both benchmarks under increasingly hostile network conditions and
// checks that the energy-aware pipeline degrades instead of hanging. The
// paper's evaluation ran on a live T-Mobile UMTS network; this experiment
// recreates that environment's misbehaviour — loss-driven throughput
// collapse, stalls, dead connections, flaky RIL — deterministically, so
// "every load completes, merely degraded" stays a measured property.

// DefaultChaosProfile is the background impairment mix applied at every
// point of the sweep (the loss rate is the swept variable on top of it).
func DefaultChaosProfile() faults.Config {
	return faults.Config{
		Seed:                1,
		RTTJitter:           200 * time.Millisecond,
		StallRate:           0.05,
		StallMin:            1 * time.Second,
		StallMax:            8 * time.Second,
		FailRate:            0.02,
		FACHCongestionRate:  0.10,
		FACHCongestionDelay: 2 * time.Second,
		RILTimeoutRate:      0.05,
		RILErrorRate:        0.02,
	}
}

// ChaosReadingTime is the reading window simulated after each load, so the
// energy numbers capture the dormancy benefit (as in Fig. 10).
const ChaosReadingTime = 20 * time.Second

// ChaosModeStats aggregates one pipeline's behaviour over all pages at one
// loss rate.
type ChaosModeStats struct {
	Mode browser.Mode
	// Completed counts loads that reached the final display; Degraded the
	// subset that finished with reduced fidelity (abandoned objects or a
	// failed fast dormancy).
	Completed int
	Degraded  int
	// EnergyJ is the mean radio+CPU energy per load including the reading
	// window; LoadS the mean time to the final display.
	EnergyJ float64
	LoadS   float64
	// Retry/failure tallies summed over all loads.
	FetchRetries     int
	LinkRetries      int
	FailedObjects    int
	FailedTransfers  int
	DormancyFailures int
}

// ChaosPoint is one loss rate of the sweep.
type ChaosPoint struct {
	LossPct  float64
	Original ChaosModeStats
	Aware    ChaosModeStats
}

// EnergySavingPct is the energy-aware saving at this loss rate.
func (p *ChaosPoint) EnergySavingPct() float64 {
	return savingPct(p.Original.EnergyJ, p.Aware.EnergyJ)
}

// ChaosResult is the whole sweep.
type ChaosResult struct {
	Seed   int64
	Pages  int
	Points []ChaosPoint
}

// chaosLossGrid returns the swept loss rates: the canonical grid clipped to
// maxLoss, always including 0 and maxLoss itself.
func chaosLossGrid(maxLoss float64) []float64 {
	canonical := []float64{0, 0.02, 0.05, 0.10, 0.20, 0.30}
	grid := make([]float64, 0, len(canonical)+1)
	for _, p := range canonical {
		if p < maxLoss {
			grid = append(grid, p)
		}
	}
	return append(grid, maxLoss)
}

// ChaosSweep runs the chaos experiment: both benchmarks, both pipelines, at
// every loss rate of the grid up to maxLoss, on top of the given background
// profile. Everything is seeded, so two sweeps with equal inputs are
// byte-identical.
func ChaosSweep(profile faults.Config, maxLoss float64) (*ChaosResult, error) {
	if maxLoss < 0 || maxLoss >= 1 {
		return nil, fmt.Errorf("experiments: max loss %v outside [0, 1)", maxLoss)
	}
	pages, err := BenchmarkPages()
	if err != nil {
		return nil, err
	}

	res := &ChaosResult{Seed: profile.Seed, Pages: len(pages)}
	for li, loss := range chaosLossGrid(maxLoss) {
		point := ChaosPoint{LossPct: loss * 100}
		for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
			stats, err := chaosRunMode(mode, pages, profile, loss, li)
			if err != nil {
				return nil, fmt.Errorf("loss %.0f%% (%v): %w", loss*100, mode, err)
			}
			if mode == browser.ModeOriginal {
				point.Original = *stats
			} else {
				point.Aware = *stats
			}
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// chaosPageOutcome is one page's contribution to a mode's stats; loads run
// in parallel and outcomes are aggregated in page order, so the averages are
// bit-identical at any worker count.
type chaosPageOutcome struct {
	degraded        bool
	energyJ         float64
	loadS           float64
	fetchRetries    int
	linkRetries     int
	failedObjects   int
	failedTransfers int
	dormancyFailed  bool
}

func chaosRunMode(mode browser.Mode, pages []*webpage.Page, profile faults.Config,
	loss float64, lossIdx int) (*ChaosModeStats, error) {
	outcomes, err := runner.Collect(len(pages), func(pi int) (chaosPageOutcome, error) {
		page := pages[pi]
		cfg := profile
		cfg.LossRate = loss
		// One independent, reproducible fault stream per (loss, mode, page).
		cfg.Seed = profile.Seed + int64(lossIdx)*10_000 + int64(mode)*1_000 + int64(pi)
		s, err := New(mode, WithFaultInjector(cfg),
			WithObsKey(fmt.Sprintf("chaos/L%d/%s/%s", lossIdx, mode, page.Name)))
		if err != nil {
			return chaosPageOutcome{}, err
		}
		r, err := s.LoadToEnd(page)
		if err != nil {
			return chaosPageOutcome{}, fmt.Errorf("page %s: %w", page.Name, err)
		}
		s.Clock.RunFor(ChaosReadingTime)
		return chaosPageOutcome{
			degraded:        r.Degraded(),
			energyJ:         s.Radio.EnergyJ() + r.CPUEnergyJ,
			loadS:           r.FinalDisplayAt.Seconds(),
			fetchRetries:    r.FetchRetries,
			linkRetries:     r.LinkRetries,
			failedObjects:   r.FailedObjects,
			failedTransfers: r.FailedTransfers,
			dormancyFailed:  r.DormancyFailed,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	stats := &ChaosModeStats{Mode: mode}
	for _, o := range outcomes {
		stats.Completed++
		if o.degraded {
			stats.Degraded++
		}
		stats.EnergyJ += o.energyJ
		stats.LoadS += o.loadS
		stats.FetchRetries += o.fetchRetries
		stats.LinkRetries += o.linkRetries
		stats.FailedObjects += o.failedObjects
		stats.FailedTransfers += o.failedTransfers
		if o.dormancyFailed {
			stats.DormancyFailures++
		}
	}
	n := float64(len(pages))
	stats.EnergyJ /= n
	stats.LoadS /= n
	return stats, nil
}
