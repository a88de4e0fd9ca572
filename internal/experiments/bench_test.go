package experiments

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"eabrowse/internal/browser"
	"eabrowse/internal/runner"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

// pooledVisit warms a session pool and returns one steady-state page visit
// on it, the one /v1/simulate runs: check a session out, visit m.cnn.com
// (load to final display, Fig. 10's 20 s reading window, ledger close),
// check it back in. The warm-up fills the load-plan cache and the pool's
// result buffers.
func pooledVisit(tb testing.TB, mode browser.Mode) func() {
	tb.Helper()
	page, err := MCNNPage()
	if err != nil {
		tb.Fatal(err)
	}
	pool := NewSessionPool(mode, WithEngineOptions(browser.WithReusableResults()))
	visit := func() {
		s, err := pool.Get()
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Visit(page, Fig10ReadingTime); err != nil {
			tb.Fatal(err)
		}
		pool.Put(s)
	}
	visit()
	return visit
}

var visitModes = []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware}

// maxVisitAllocs bounds a pooled visit's heap allocations. The pooled visit
// allocates nothing (0 allocs/op in the BENCH_SIM.json snapshot committed
// in c5858fa); the +2 grace keeps one incidental allocation from failing a
// zero baseline.
const maxVisitAllocs = 2

// TestVisitAllocs gates the steady-state pooled visit at maxVisitAllocs.
func TestVisitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; alloc gates hold only in normal builds")
	}
	for _, mode := range visitModes {
		visit := pooledVisit(t, mode)
		got := testing.AllocsPerRun(50, visit)
		t.Logf("%s: %v allocs/visit", mode, got)
		if got > maxVisitAllocs {
			t.Errorf("%s: pooled visit allocates %v, want <= %d", mode, got, maxVisitAllocs)
		}
	}
}

// BenchmarkVisit measures the steady-state cost of one pooled page visit
// (pooledVisit); TestVisitAllocs gates its allocations.
func BenchmarkVisit(b *testing.B) {
	for _, mode := range visitModes {
		b.Run(mode.String(), func(b *testing.B) {
			visit := pooledVisit(b, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visit()
			}
		})
	}
}

// BenchmarkFleetReplay measures the full fleet experiment end to end —
// streaming trace, template replay, capacity model — at a small population,
// with the training artifacts pre-warmed so the number tracks the replay
// engine rather than one-time GBRT training.
func BenchmarkFleetReplay(b *testing.B) {
	if _, err := TrainedPredictor(true); err != nil {
		b.Fatal(err)
	}
	cfg := FleetConfig{Users: 50, HoursPerUser: 0.1, Seed: 20130709}
	b.ReportAllocs()
	b.ResetTimer()
	var visits int
	for i := 0; i < b.N; i++ {
		res, err := Fleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		visits = res.Visits
	}
	b.ReportMetric(float64(visits), "visits")
}

// fleetScaleConfig is a population large enough for the counted-multiplicity
// fold to dominate: every visit after the first few thousand hits an
// existing template.
var fleetScaleConfig = FleetConfig{Users: 20_000, HoursPerUser: 0.25, Seed: 20130709}

// maxFleetAllocsPerVisit bounds heap allocations per replayed visit at
// fleetScaleConfig: the allocs/visit of the BenchmarkFleetScale snapshot
// committed in c5858fa (342,743 allocs over 286,705 visits) x 1.25 + 0.05.
const maxFleetAllocsPerVisit = 342_743.0/286_705*1.25 + 0.05

// TestFleetAllocsPerVisit gates the fleet replay's allocations per visit
// at maxFleetAllocsPerVisit, counting every malloc across one Fleet call
// with the training artifacts pre-warmed.
func TestFleetAllocsPerVisit(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; alloc gates hold only in normal builds")
	}
	if _, err := TrainedPredictor(true); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Fleet(fleetScaleConfig)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perVisit := float64(after.Mallocs-before.Mallocs) / float64(res.Visits)
	t.Logf("%d visits, %.3f allocs/visit", res.Visits, perVisit)
	if perVisit > maxFleetAllocsPerVisit {
		t.Fatalf("fleet allocates %.3f per visit, want <= %.3f", perVisit, maxFleetAllocsPerVisit)
	}
}

// TestFoldedVisitAllocs gates the folded replay's steady state at zero
// allocations per visit: once a shard has built its templates, opened its
// fold accumulators and grown its sketches to capacity, replaying a user —
// delayed-release visits included — allocates nothing. Generating the
// user's visits is not part of the replay (its per-user category draw
// allocates; TestFleetAllocsPerVisit counts it with everything else).
func TestFoldedVisitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations; alloc gates hold only in normal builds")
	}
	cfg := FleetConfig{Users: 2000, HoursPerUser: 0.25, Seed: 20130709}
	rt, err := newFleetRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.folded {
		t.Fatal("default fleet does not fold")
	}
	shard := FleetShardResult{
		OrigTrans:   stats.NewSketch(fleetSketchBudget),
		AwareTrans:  stats.NewSketch(fleetSketchBudget),
		OrigVisitJ:  stats.NewSketch(fleetSketchBudget),
		AwareVisitJ: stats.NewSketch(fleetSketchBudget),
	}
	fs := foldState{slot: make([]int32, len(rt.templates))}
	rng := trace.NewUserRand(1)
	var buf []trace.Visit
	// Warm the shard on its first users, remembering one whose replay runs a
	// delayed-release visit (only those count predictions during replay).
	user := -1
	for u := 0; u < 64; u++ {
		buf = rt.stream.UserVisitsRand(rng, u, buf[:0])
		before := shard.Predictions
		if err := rt.replayUserFolded(u, buf, &fs, &shard); err != nil {
			t.Fatal(err)
		}
		if user < 0 && shard.Predictions > before {
			user = u
		}
	}
	if user < 0 {
		t.Fatal("no warm-up user replays a delayed-release visit")
	}
	// Push every sketch through a compression so its centroid array has
	// reached the size it keeps for good.
	for _, sk := range []*stats.Sketch{shard.OrigTrans, shard.AwareTrans, shard.OrigVisitJ, shard.AwareVisitJ} {
		for i := 0; i <= 2*fleetSketchBudget; i++ {
			sk.Observe(1e6+float64(i), 1)
		}
	}
	buf = rt.stream.UserVisitsRand(rng, user, buf[:0])
	visits := len(buf)
	allocs := testing.AllocsPerRun(50, func() {
		if err := rt.replayUserFolded(user, buf, &fs, &shard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("user %d: %d visits, %v allocs per replay", user, visits, allocs)
	if allocs != 0 {
		t.Fatalf("warmed folded replay allocates %v per user (%d visits), want 0", allocs, visits)
	}
}

// BenchmarkFleetScale measures fleet throughput at fleetScaleConfig and
// reports users_per_sec, visits and the process peak RSS alongside.
// TestFleetAllocsPerVisit gates its allocations per visit.
func BenchmarkFleetScale(b *testing.B) {
	if _, err := TrainedPredictor(true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var visits int
	for i := 0; i < b.N; i++ {
		res, err := Fleet(fleetScaleConfig)
		if err != nil {
			b.Fatal(err)
		}
		visits = res.Visits
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(fleetScaleConfig.Users)/sec, "users_per_sec")
	b.ReportMetric(float64(visits), "visits")
	b.ReportMetric(float64(benchVmHWM())/1024, "peak_rss_mb")
}

// BenchmarkFleetFromShards times the fleet merge and capacity phase alone on
// shards of fleetScaleConfig replayed once up front, at one pool worker (the
// four capacity answers in series) and at two (run concurrently).
func BenchmarkFleetFromShards(b *testing.B) {
	outs, err := RunFleetShards(fleetScaleConfig, 0, FleetShardCount(fleetScaleConfig))
	if err != nil {
		b.Fatal(err)
	}
	prev := runner.Workers()
	defer runner.SetWorkers(prev)
	for _, workers := range []int{1, 2} {
		b.Run("pool="+strconv.Itoa(workers), func(b *testing.B) {
			runner.SetWorkers(workers)
			for i := 0; i < b.N; i++ {
				if _, err := FleetFromShards(fleetScaleConfig, outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchVmHWM reads the process peak resident set (kB) from
// /proc/self/status; 0 when the file is unavailable (non-Linux).
func benchVmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb
		}
	}
	return 0
}

// BenchmarkVisitFresh is the unpooled baseline for BenchmarkVisit: a new
// session per visit, fresh result buffers every load. The gap between the
// two is what the pooling layer buys.
func BenchmarkVisitFresh(b *testing.B) {
	page, err := MCNNPage()
	if err != nil {
		b.Fatal(err)
	}
	mode := browser.ModeEnergyAware
	b.Run(mode.String(), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := New(mode)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.LoadToEnd(page); err != nil {
				b.Fatal(err)
			}
		}
	})
}
