package experiments

import (
	"math"
	"sync"
	"testing"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/features"
)

// forEachTmplKey calls fn with every template key the runtime's fleet can
// ask for: every pool page, both pipelines, every radio, every start stage
// of that radio's tail, every channel segment (or -1 without a channel).
func forEachTmplKey(rt *fleetRuntime, fn func(fr *fleetRadio, k tmplKey)) {
	for page := range rt.pool {
		for _, mode := range []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware} {
			for ri := range rt.radios {
				fr := &rt.radios[ri]
				for start := 0; start <= fr.tail.TerminalIndex(); start++ {
					for seg := -1; seg < len(rt.segScheds); seg++ {
						fn(fr, tmplKey{page: page, mode: mode, radio: fr.idx, start: start, seg: seg})
					}
				}
			}
		}
	}
}

// TestTemplateIDs checks the dense template ids of a mixed-RAN fleet under
// a multi-segment channel: every key maps to its own slot of the table.
func TestTemplateIDs(t *testing.T) {
	cfg := FleetConfig{Users: 10, HoursPerUser: 0.05, Seed: 5,
		RadioMix: "umts:0.4,lte:0.3,nr:0.3", Channel: "cell-handover"}
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.radios) != 3 || len(rt.segScheds) < 2 {
		t.Fatalf("want a 3-radio, multi-segment fleet, got %d radios and %d segments",
			len(rt.radios), len(rt.segScheds))
	}
	owner := make(map[int]tmplKey)
	forEachTmplKey(rt, func(_ *fleetRadio, k tmplKey) {
		id := rt.tmplID(k)
		if id < 0 || id >= len(rt.templates) {
			t.Fatalf("key %+v: id %d outside [0, %d)", k, id, len(rt.templates))
		}
		if prev, ok := owner[id]; ok {
			t.Fatalf("keys %+v and %+v share id %d", prev, k, id)
		}
		owner[id] = k
	})
	t.Logf("%d keys in a table of %d slots", len(owner), len(rt.templates))
}

// TestDelayedStepsMatchPredict builds every template of a mixed-RAN fleet
// and checks that exactly the energy-aware terminal-start ones carry a
// delayed-load step table, and that each table matches the forest itself:
// at the smallest and largest delay and at the delays that put the
// stretched transmission time on, just below and just above each reachable
// split threshold, it returns PredictSeconds bit for bit. Delays outside
// (0, ReleaseDelay] are refused.
func TestDelayedStepsMatchPredict(t *testing.T) {
	cfg := FleetConfig{Users: 60, HoursPerUser: 0.1, Seed: 5, RadioMix: "umts:0.4,lte:0.3,nr:0.3"}
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables, steps := 0, 0
	forEachTmplKey(rt, func(fr *fleetRadio, k tmplKey) {
		tmpl, err := rt.template(k)
		if err != nil {
			t.Fatalf("key %+v: %v", k, err)
		}
		wantTable := k.mode == browser.ModeEnergyAware && k.start == fr.tail.TerminalIndex()
		if (tmpl.delayed != nil) != wantTable {
			t.Fatalf("key %+v: has step table %v, want %v", k, tmpl.delayed != nil, wantTable)
		}
		if !wantTable {
			return
		}
		tables++
		steps += len(tmpl.delayed.thr)
		rd := fr.tail.ReleaseDelay
		deltas := []time.Duration{1, rd}
		x0 := tmpl.vec[features.TransmissionTime]
		for _, thr := range rt.transThr {
			d := time.Duration(math.Round((thr - x0) * 1e9))
			deltas = append(deltas, d-1, d, d+1)
		}
		for _, d := range deltas {
			if d <= 0 || d > rd {
				continue
			}
			vec := tmpl.vec
			vec[features.TransmissionTime] += d.Seconds()
			want, err := rt.pred.PredictSeconds(vec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tmpl.delayedPredS(d)
			if err != nil {
				t.Fatalf("key %+v delay %v: %v", k, d, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("key %+v delay %v: table %v, forest %v", k, d, got, want)
			}
		}
		for _, d := range []time.Duration{0, -1, rd + 1} {
			if _, err := tmpl.delayedPredS(d); err == nil {
				t.Fatalf("key %+v: delay %v accepted", k, d)
			}
		}
	})
	if tables == 0 || steps == 0 {
		t.Fatalf("%d step tables with %d inner thresholds: nothing exercised", tables, steps)
	}
	t.Logf("%d step tables, %d inner thresholds", tables, steps)
}

// TestTemplateConcurrentFill races first-use builds: goroutines ask for the
// same keys at once, and every caller must get the one template the table
// ends up holding.
func TestTemplateConcurrentFill(t *testing.T) {
	cfg := FleetConfig{Users: 10, HoursPerUser: 0.05, Seed: 5, RadioMix: "umts:0.5,lte:0.5"}
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var keys []tmplKey
	forEachTmplKey(rt, func(_ *fleetRadio, k tmplKey) {
		if k.page < 3 {
			keys = append(keys, k)
		}
	})
	const workers = 4
	got := make([][]*visitTemplate, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				tmpl, err := rt.template(k)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], tmpl)
			}
		}()
	}
	wg.Wait()
	for w := range got {
		if len(got[w]) != len(keys) {
			t.Fatalf("worker %d got %d templates, want %d", w, len(got[w]), len(keys))
		}
		for i, k := range keys {
			if want := rt.templates[rt.tmplID(k)].Load(); got[w][i] != want {
				t.Fatalf("worker %d key %+v: got a template the table does not hold", w, k)
			}
		}
	}
}
