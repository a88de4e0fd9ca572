package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"eabrowse/internal/browser"
	"eabrowse/internal/netsim"
	"eabrowse/internal/obs"
)

// ledgerTol absorbs the float64 reordering between the ledger's per-state
// accumulators and the machine's single energy counter, plus the Round6
// applied to each serialized phase.
const ledgerTol = 1e-5

// TestLedgerInvariants checks the energy-attribution ledger against the
// substrate it observes, for every benchmark page under both pipelines:
// phases must telescope exactly to the ledger total, each phase must equal
// its own radio+CPU split, and the total must match the session's measured
// radio+CPU energy over the same window.
func TestLedgerInvariants(t *testing.T) {
	pages, err := BenchmarkPages()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
		for _, page := range pages {
			s, err := New(mode)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Visit(page, Fig10ReadingTime)
			if err != nil {
				t.Fatalf("%v %s: %v", mode, page.Name, err)
			}
			radioJ := s.Radio.EnergyJ()
			led := out.Result.Ledger
			if led == nil {
				t.Fatalf("%v %s: result carries no ledger", mode, page.Name)
			}
			if !led.Closed() {
				t.Fatalf("%v %s: ledger not closed after the reading window", mode, page.Name)
			}
			phases := led.Phases()
			if len(phases) == 0 {
				t.Fatalf("%v %s: ledger has no phases", mode, page.Name)
			}
			var sum float64
			for _, ph := range phases {
				var split float64
				for _, j := range ph.RadioByStateJ {
					if j < 0 {
						t.Errorf("%v %s: phase %q has negative %v", mode, page.Name, ph.Phase, ph.RadioByStateJ)
					}
					split += j
				}
				split += ph.CPUJ
				if math.Abs(split-ph.TotalJ) > ledgerTol {
					t.Errorf("%v %s: phase %q split %.9f != total %.9f",
						mode, page.Name, ph.Phase, split, ph.TotalJ)
				}
				if ph.EndNS < ph.StartNS {
					t.Errorf("%v %s: phase %q ends before it starts", mode, page.Name, ph.Phase)
				}
				sum += ph.TotalJ
			}
			if total := led.TotalJ(); math.Abs(sum-total) > ledgerTol {
				t.Errorf("%v %s: phases sum to %.9f, ledger total %.9f",
					mode, page.Name, sum, total)
			}
			// The session starts at zero energy and the ledger closes after
			// the reading window, so its total is the phone's whole budget.
			// The CPU mill is quiet after the final display, making the
			// result's CPUEnergyJ the closed-ledger CPU value too.
			measured := radioJ + out.Result.CPUEnergyJ
			if total := led.TotalJ(); math.Abs(total-measured) > ledgerTol {
				t.Errorf("%v %s: ledger total %.9f != measured radio+CPU %.9f",
					mode, page.Name, total, measured)
			}
			if math.Abs(out.TotalWithReadingJ-led.TotalJ()) > ledgerTol {
				t.Errorf("%v %s: TotalWithReadingJ %.9f != ledger total %.9f",
					mode, page.Name, out.TotalWithReadingJ, led.TotalJ())
			}
		}
	}
}

// TestPaperSessionsEndWithPhaseEnergy runs every paper experiment that
// traces its sessions into the process-wide collector, as `eabench -exp all
// -trace` does, and requires each session's trace to end with its closed
// ledger's phase-energy events: a session whose driver never closes the
// ledger would drop its energy attribution from the trace.
func TestPaperSessionsEndWithPhaseEnergy(t *testing.T) {
	c := obs.Enable()
	t.Cleanup(obs.Disable)
	for _, run := range []struct {
		name string
		fn   func() error
	}{
		{"fig8", func() error { _, err := Fig8(); return err }},
		{"fig9", func() error { _, err := Fig9(); return err }},
		{"fig10", func() error { _, err := Fig10(); return err }},
		{"fig14", func() error { _, err := Fig14(); return err }},
		{"reorder", func() error { _, err := Reorder(); return err }},
		{"chaos", func() error { _, err := ChaosSweep(DefaultChaosProfile(), 0.30); return err }},
	} {
		if err := run.fn(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	last := map[string]string{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev struct {
			S    string `json:"s"`
			Kind string `json:"kind"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.S != "" {
			last[ev.S] = ev.Kind
		}
	}
	if len(last) == 0 {
		t.Fatal("no traced sessions")
	}
	for _, key := range c.Sessions() {
		if last[key] != obs.KindPhaseEnergy {
			t.Errorf("%s: trace ends with %q, want the closed ledger's phase-energy events last", key, last[key])
		}
	}
}

// allowedRRCEdges is the complete transition graph of the UMTS state machine:
// promotions go through a PROMO state, demotions step DCH→FACH→IDLE on the
// inactivity timers, and fast dormancy goes through RELEASING. Anything else
// in a trace — an IDLE→DCH jump above all — is a bug.
var allowedRRCEdges = map[string]bool{
	"IDLE->PROMO(IDLE→DCH)": true,
	"PROMO(IDLE→DCH)->DCH":  true,
	"FACH->PROMO(FACH→DCH)": true,
	"PROMO(FACH→DCH)->DCH":  true,
	"DCH->FACH":             true,
	"FACH->IDLE":            true,
	"DCH->RELEASING":        true,
	"FACH->RELEASING":       true,
	"RELEASING->IDLE":       true,
}

// TestTraceInvariants loads a page under both pipelines — once clean and once
// under the chaos fault profile at 30% loss, to force retries — and checks
// structural properties of the resulting event streams: timestamps
// non-decreasing, every RRC edge in the whitelist, and transfer attempts
// within the link's retry budget.
func TestTraceInvariants(t *testing.T) {
	page, err := MCNNPage()
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollector()
	profile := DefaultChaosProfile()
	profile.LossRate = 0.30
	for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
		for _, faulty := range []bool{false, true} {
			key := fmt.Sprintf("inv/%s/faulty=%v", mode, faulty)
			rec, err := c.NewRecorder(key)
			if err != nil {
				t.Fatal(err)
			}
			opts := []SessionOption{WithObsRecorder(rec)}
			if faulty {
				opts = append(opts, WithFaultInjector(profile))
			}
			if _, err := LoadPage(page, mode, Fig10ReadingTime, opts...); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			checkSessionTrace(t, key, rec.Events())
		}
	}
}

func checkSessionTrace(t *testing.T, key string, events []obs.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Errorf("%s: empty trace", key)
		return
	}
	var lastNS int64
	transitions := 0
	retriesByURL := make(map[string]int)
	for _, ev := range events {
		if ev.AtNS < lastNS {
			t.Errorf("%s: timestamps regress at %v (%d after %d)", key, ev.Kind, ev.AtNS, lastNS)
		}
		lastNS = ev.AtNS
		switch ev.Kind {
		case obs.KindTransition:
			transitions++
			if edge := ev.From + "->" + ev.To; !allowedRRCEdges[edge] {
				t.Errorf("%s: illegal RRC transition %s", key, edge)
			}
		case obs.KindXferStart, obs.KindXferRetry:
			if ev.Attempt < 1 || ev.Attempt > netsim.DefaultTransferAttempts {
				t.Errorf("%s: %v of %s with attempt %d outside [1, %d]",
					key, ev.Kind, ev.URL, ev.Attempt, netsim.DefaultTransferAttempts)
			}
			if ev.Kind == obs.KindXferRetry {
				retriesByURL[ev.URL]++
			}
		case obs.KindXferEnd, obs.KindXferFailed:
			if ev.Attempt > netsim.DefaultTransferAttempts {
				t.Errorf("%s: %v of %s finished on attempt %d > budget %d",
					key, ev.Kind, ev.URL, ev.Attempt, netsim.DefaultTransferAttempts)
			}
			if ev.DurNS < 0 {
				t.Errorf("%s: %v of %s with negative duration", key, ev.Kind, ev.URL)
			}
		}
	}
	if transitions == 0 {
		t.Errorf("%s: no RRC transitions traced", key)
	}
	// Every fetch of a URL grants the link its attempt budget; engine-level
	// refetches grant it again. The trace must never show more link retries
	// than both budgets combined allow.
	maxRetries := browser.DefaultFetchAttempts * (netsim.DefaultTransferAttempts - 1)
	for url, n := range retriesByURL {
		if n > maxRetries {
			t.Errorf("%s: %s retried %d times, policy allows at most %d", key, url, n, maxRetries)
		}
	}
}
