//go:build soak

// Soak harness for the resident service: a compressed day of traffic.
//
// The paper's deployment target is a phone-adjacent daemon that stays up for
// days while models are retrained underneath it. This harness compresses that
// life into a configurable wall-clock window (default 25 s, EASERD_SOAK_SECONDS
// to stretch it toward a real 24 h run) by driving requests back-to-back:
// concurrent predict/decide/simulate clients, a hot-reload loop flipping
// between two known models (with deliberately corrupt files mixed in), and a
// metrics poller — all against one server instance.
//
// What it proves, matching the package's robustness contracts:
//
//   - No partial model is ever observed: every prediction equals, bitwise,
//     what exactly one of the two known models says for that probe vector,
//     and the reported generation agrees with the value.
//   - Corrupt model files roll back: reload fails, service keeps answering.
//   - No request crashes the process; the panic counter stays zero.
//   - The steady-state predict core runs at 0 allocs/op (measured quiesced).
//   - Memory is flat: heap after the full run stays within noise of the
//     post-warmup baseline — no per-request leak survives a day of traffic.
//   - Shutdown drains cleanly at the end with in-flight work completed.
//
// Run it with the soak build tag (the fast unit suite stays tag-free):
//
//	go test -race -tags soak -run TestSoak ./internal/serve
//	EASERD_SOAK_SECONDS=3600 go test -tags soak -run TestSoak -timeout 2h ./internal/serve
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/predictor"
	"eabrowse/internal/trace"
)

// soakDuration is the compressed-day window; EASERD_SOAK_SECONDS overrides.
func soakDuration(t *testing.T) time.Duration {
	if s := os.Getenv("EASERD_SOAK_SECONDS"); s != "" {
		sec, err := strconv.Atoi(s)
		if err != nil || sec <= 0 {
			t.Fatalf("bad EASERD_SOAK_SECONDS=%q", s)
		}
		return time.Duration(sec) * time.Second
	}
	return 25 * time.Second
}

// trainSoakModel trains a small forest whose size makes it distinguishable.
func trainSoakModel(t *testing.T, trees int) *predictor.Predictor {
	t.Helper()
	ds, err := trace.Synthesize(trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := predictor.Split(ds.Visits, 0.3, 20130709)
	if err != nil {
		t.Fatal(err)
	}
	p, err := predictor.Train(train, predictor.Config{
		GBRT:                 gbrt.Config{Trees: trees, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5},
		UseInterestThreshold: true,
		Alpha:                2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// heapInUse reports live heap bytes after a full GC.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is not a -short test")
	}
	dur := soakDuration(t)

	// Two distinguishable models: any prediction the service ever returns
	// must equal exactly one of their answers for the probe vector.
	modelA := trainSoakModel(t, 40)
	modelB := trainSoakModel(t, 60)
	probe := features.Vector{12, 340, 25, 4, 9, 120, 0.8, 3, 2800, 320}
	wantA, err := modelA.PredictVecSeconds(&probe)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := modelB.PredictVecSeconds(&probe)
	if err != nil {
		t.Fatal(err)
	}
	if wantA == wantB {
		t.Fatalf("soak models are indistinguishable (%v); partial-swap detection would be blind", wantA)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := modelA.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	s, base := startServer(t, Config{
		ModelPath:  path,
		QueueDepth: 512,
		// A generous deadline: the soak asserts on behavior, not latency.
		RequestTimeout: 10 * time.Second,
	})

	var (
		stopFlag  atomic.Bool
		predicts  atomic.Uint64
		decides   atomic.Uint64
		simulates atomic.Uint64
		rejected  atomic.Uint64
		reloadOK  atomic.Uint64
		reloadBad atomic.Uint64
		torn      atomic.Uint64 // predictions matching neither model — must stay 0
		failures  []string
		failMu    sync.Mutex
	)
	fail := func(format string, args ...any) {
		failMu.Lock()
		if len(failures) < 20 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
		failMu.Unlock()
	}

	client := &http.Client{Timeout: 15 * time.Second}
	post := func(url string, body []byte) (int, []byte) {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			fail("POST %s: %v", url, err)
			return 0, nil
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	predictBody, _ := json.Marshal(predictRequest{Features: probe[:]})
	decideBody, _ := json.Marshal(decideRequest{Features: probe[:], Mode: "power"})
	simBody, _ := json.Marshal(simulateRequest{Page: "m.cnn.com", Mode: "energy-aware", ReadingS: 15})

	var wg sync.WaitGroup
	// Predict/decide clients: the hot path under sustained concurrency.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !stopFlag.Load() {
				code, data := post(base+"/v1/predict", predictBody)
				switch code {
				case http.StatusOK:
					var pr predictResponse
					if err := json.Unmarshal(data, &pr); err != nil {
						fail("predict body %q: %v", data, err)
						continue
					}
					if pr.ReadingSeconds != wantA && pr.ReadingSeconds != wantB {
						torn.Add(1)
						fail("torn prediction %v (want %v or %v) at generation %d",
							pr.ReadingSeconds, wantA, wantB, pr.ModelGeneration)
					}
					predicts.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				case 0: // transport error already recorded
				default:
					fail("predict status %d (%s)", code, data)
				}
				if id%2 == 0 {
					if code, _ := post(base+"/v1/decide", decideBody); code == http.StatusOK {
						decides.Add(1)
					}
				}
			}
		}(i)
	}
	// One simulate client: pooled sessions reused for the whole soak.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopFlag.Load() {
			if code, data := post(base+"/v1/simulate", simBody); code == http.StatusOK {
				simulates.Add(1)
			} else if code != 0 && code != http.StatusTooManyRequests {
				fail("simulate status %d (%s)", code, data)
			}
		}
	}()
	// The reload loop: flip A/B models, with every 5th write a corrupt file
	// that must be rejected without disturbing service.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for !stopFlag.Load() {
			i++
			var expectOK bool
			switch {
			case i%5 == 0:
				_ = os.WriteFile(path, []byte("{corrupt model file"), 0o644)
			case i%2 == 0:
				_ = modelB.SaveFile(path)
				expectOK = true
			default:
				_ = modelA.SaveFile(path)
				expectOK = true
			}
			code, data := post(base+"/admin/reload", nil)
			switch {
			case code == http.StatusOK && expectOK:
				reloadOK.Add(1)
			case code == http.StatusInternalServerError && !expectOK:
				reloadBad.Add(1)
			case code == 0:
			default:
				fail("reload %d (corrupt=%v): status %d (%s)", i, !expectOK, code, data)
			}
			time.Sleep(5 * time.Millisecond)
		}
		// Leave a valid model behind for the quiesced phases below.
		_ = modelA.SaveFile(path)
		if code, data := post(base+"/admin/reload", nil); code != http.StatusOK {
			fail("final reload: status %d (%s)", code, data)
		}
	}()
	// The metrics poller: /metrics stays coherent under full load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopFlag.Load() {
			resp, err := client.Get(base + "/metrics")
			if err != nil {
				fail("metrics: %v", err)
				continue
			}
			var m Metrics
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err != nil {
				fail("metrics decode: %v", err)
			} else if m.Panics != 0 {
				fail("panic counter %d mid-soak", m.Panics)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Warm up, baseline the heap, run the compressed day, measure again.
	warmup := dur / 5
	if warmup > 5*time.Second {
		warmup = 5 * time.Second
	}
	time.Sleep(warmup)
	baseline := heapInUse()
	time.Sleep(dur - warmup)
	stopFlag.Store(true)
	wg.Wait()
	final := heapInUse()

	t.Logf("soak %v: %d predicts (%d torn), %d decides, %d simulates, %d rejected, %d reloads (+%d corrupt rejected), heap %d -> %d bytes",
		dur, predicts.Load(), torn.Load(), decides.Load(), simulates.Load(),
		rejected.Load(), reloadOK.Load(), reloadBad.Load(), baseline, final)

	failMu.Lock()
	for _, f := range failures {
		t.Error(f)
	}
	failMu.Unlock()

	// Enough traffic actually flowed to mean something.
	if predicts.Load() < 100 || decides.Load() == 0 || simulates.Load() == 0 {
		t.Fatalf("soak moved too little traffic: %d/%d/%d", predicts.Load(), decides.Load(), simulates.Load())
	}
	if reloadOK.Load() == 0 || reloadBad.Load() == 0 {
		t.Fatalf("reload loop exercised too little: %d ok, %d corrupt", reloadOK.Load(), reloadBad.Load())
	}
	if torn.Load() != 0 {
		t.Fatalf("%d torn predictions: a request observed a partially swapped model", torn.Load())
	}
	if got := s.panics.Load(); got != 0 {
		t.Fatalf("panic counter %d after soak", got)
	}

	// Flat RSS: the post-soak heap stays within noise of the warm baseline.
	// Allow 50% + 4 MiB of slack for GC timing and pooled buffers.
	limit := baseline + baseline/2 + 4<<20
	if final > limit {
		t.Fatalf("heap grew %d -> %d bytes (limit %d): per-request leak", baseline, final, limit)
	}

	// Quiesced, the predict core still runs allocation-free — the pools and
	// counters have not degraded over the day.
	lm := s.model.current()
	if lm == nil {
		t.Fatal("no model after soak")
	}
	vec := probe
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.predictCoreStripe(&vec, &s.stripes[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("predict core allocates %.1f/op after soak, want 0", allocs)
	}

	// And the day ends with a clean drain (startServer's cleanup shuts down;
	// do it eagerly here to assert on the error).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after soak: %v", err)
	}
}
