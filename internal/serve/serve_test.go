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
	"strings"
	"sync"
	"testing"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/predictor"
	"eabrowse/internal/retry"
	"eabrowse/internal/trace"
)

// goldenModelPath is the committed fixture trained by the predictor package's
// golden test; it doubles as this package's model file.
const goldenModelPath = "../predictor/testdata/golden_predictor.json"

// probeVec is an arbitrary plausible Table 1 feature vector.
var probeVec = features.Vector{12, 340, 25, 4, 9, 120, 0.8, 3, 2800, 320}

// fastRetry keeps test startups snappy.
func fastRetry() retry.Policy {
	p := retry.DefaultPolicy()
	p.InitialDelay = time.Millisecond
	p.MaxDelay = 5 * time.Millisecond
	return p
}

// startServer brings up a service on a free port and tears it down with the
// test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = fastRetry()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, "http://" + s.Addr()
}

// postJSON posts a JSON-encoded body and decodes a JSON response into out
// (when non-nil), returning the status code.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: bad response body %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestServeLifecycle(t *testing.T) {
	s, base := startServer(t, Config{ModelPath: goldenModelPath, QueueDepth: 64})

	if !s.Ready() {
		t.Fatal("server not ready after Start with a model")
	}
	if code, body := getStatus(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := getStatus(t, base+"/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("readyz: %d %q", code, body)
	}

	// Predictions must be bit-identical to using the predictor directly.
	direct, err := predictor.LoadFile(goldenModelPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	want, err := direct.PredictVecSeconds(&probeVec)
	if err != nil {
		t.Fatal(err)
	}
	var pr predictResponse
	if code := postJSON(t, base+"/v1/predict", predictRequest{Features: probeVec[:]}, &pr); code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	if pr.ReadingSeconds != want {
		t.Fatalf("served prediction %v != direct %v", pr.ReadingSeconds, want)
	}
	if pr.ModelGeneration != 1 {
		t.Fatalf("model generation %d, want 1", pr.ModelGeneration)
	}

	// Decide must agree with the thresholds that travel in the model file.
	for _, mode := range []string{"", "delay", "power"} {
		var dr decideResponse
		if code := postJSON(t, base+"/v1/decide", decideRequest{Features: probeVec[:], Mode: mode}, &dr); code != http.StatusOK {
			t.Fatalf("decide(%q): status %d", mode, code)
		}
		if dr.ReadingSeconds != want {
			t.Fatalf("decide(%q) predicted %v, want %v", mode, dr.ReadingSeconds, want)
		}
		if dr.TpSeconds != 9 || dr.TdSeconds != 20 {
			t.Fatalf("decide(%q) thresholds tp=%v td=%v, want 9/20", mode, dr.TpSeconds, dr.TdSeconds)
		}
		pred := time.Duration(dr.ReadingSeconds * float64(time.Second))
		wantSwitch := pred > 20*time.Second || (mode == "power" && pred > 9*time.Second)
		if dr.Switch != wantSwitch {
			t.Fatalf("decide(%q): switch=%v reason=%q for predicted %v", mode, dr.Switch, dr.Reason, pred)
		}
		switch dr.Reason {
		case "beyond-Td", "beyond-Tp", "keep":
		default:
			t.Fatalf("decide(%q): unknown reason %q", mode, dr.Reason)
		}
	}

	// Simulate runs a full pooled page load; energy with reading strictly
	// exceeds load energy (the tail burns power) in both browser modes.
	for _, mode := range []string{"original", "energy-aware"} {
		var sr simulateResponse
		req := simulateRequest{Page: "m.cnn.com", Mode: mode, ReadingS: 30}
		if code := postJSON(t, base+"/v1/simulate", req, &sr); code != http.StatusOK {
			t.Fatalf("simulate(%s): status %d", mode, code)
		}
		if sr.Page != "m.cnn.com" || sr.Mode != mode {
			t.Fatalf("simulate(%s): echoed %q/%q", mode, sr.Page, sr.Mode)
		}
		if sr.LoadSeconds <= 0 || sr.TransmissionS <= 0 || sr.LoadEnergyJ <= 0 {
			t.Fatalf("simulate(%s): non-positive figures %+v", mode, sr)
		}
		if sr.EnergyWithReading <= sr.LoadEnergyJ {
			t.Fatalf("simulate(%s): reading window added no energy: %+v", mode, sr)
		}
		if sr.ReadingEnergyJ <= 0 {
			t.Fatalf("simulate(%s): reading energy %v", mode, sr.ReadingEnergyJ)
		}
	}
	// Pooled sessions must give bit-identical answers on reuse.
	var first, second simulateResponse
	req := simulateRequest{Page: "m.ebay.com", Mode: "energy-aware", ReadingS: 12}
	postJSON(t, base+"/v1/simulate", req, &first)
	postJSON(t, base+"/v1/simulate", req, &second)
	if first != second {
		t.Fatalf("pooled simulate not deterministic:\n%+v\n%+v", first, second)
	}

	var m Metrics
	if code := postJSON(t, base+"/metrics", nil, nil); code != http.StatusMethodNotAllowed && code != http.StatusOK {
		t.Fatalf("metrics POST: %d", code)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	resp.Body.Close()
	if m.Requests == 0 || m.QueueCapacity != 64 {
		t.Fatalf("metrics: %+v", m)
	}
	if !m.Model.Ready || m.Model.Generation != 1 || m.Model.Reloads != 0 || m.Model.Trees == 0 {
		t.Fatalf("metrics model: %+v", m.Model)
	}
	if m.Obs.Counters[counterPredict] < 1 || m.Obs.Counters[counterDecide] < 3 || m.Obs.Counters[counterSimulate] < 4 {
		t.Fatalf("obs counters: %+v", m.Obs.Counters)
	}
	if m.Obs.Histograms[latencyPredict].Count < 1 {
		t.Fatalf("obs histograms: %+v", m.Obs.Histograms)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteMetrics wrote invalid JSON")
	}
}

func TestBadRequests(t *testing.T) {
	_, base := startServer(t, Config{ModelPath: goldenModelPath, MaxBodyBytes: 2048})

	short := probeVec[:3]
	cases := []struct {
		name   string
		url    string
		method string
		body   string
		want   int
	}{
		{"predict GET", "/v1/predict", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"predict not json", "/v1/predict", http.MethodPost, "not json", http.StatusBadRequest},
		{"predict short vector", "/v1/predict", http.MethodPost,
			fmt.Sprintf(`{"features":[%v,%v,%v]}`, short[0], short[1], short[2]), http.StatusBadRequest},
		{"predict unknown field", "/v1/predict", http.MethodPost, `{"featurez":[1]}`, http.StatusBadRequest},
		{"predict trailing data", "/v1/predict", http.MethodPost, `{"features":[]} extra`, http.StatusBadRequest},
		{"predict huge body", "/v1/predict", http.MethodPost,
			`{"features":[` + strings.Repeat("1,", 4096) + `1]}`, http.StatusRequestEntityTooLarge},
		{"decide bad mode", "/v1/decide", http.MethodPost,
			`{"features":[1,2,3,4,5,6,7,8,9,10],"mode":"turbo"}`, http.StatusBadRequest},
		{"simulate bad page", "/v1/simulate", http.MethodPost, `{"page":"m.nosuch.example"}`, http.StatusBadRequest},
		{"simulate bad mode", "/v1/simulate", http.MethodPost, `{"page":"m.cnn.com","mode":"warp"}`, http.StatusBadRequest},
		{"simulate negative reading", "/v1/simulate", http.MethodPost,
			`{"page":"m.cnn.com","reading_s":-1}`, http.StatusBadRequest},
		{"simulate absurd reading", "/v1/simulate", http.MethodPost,
			`{"page":"m.cnn.com","reading_s":1e9}`, http.StatusBadRequest},
		{"simulate huge body", "/v1/simulate", http.MethodPost,
			`{"page":"m.cnn.com","reading_s":1}` + strings.Repeat(" ", 4096), http.StatusRequestEntityTooLarge},
		{"reload GET", "/admin/reload", http.MethodGet, "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, base+tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
				t.Fatalf("error body missing: %v", err)
			}
		})
	}
}

func TestNotReadyWithoutModel(t *testing.T) {
	s, base := startServer(t, Config{})
	if s.Ready() {
		t.Fatal("ready with no model")
	}
	code, body := getStatus(t, base+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "no model") {
		t.Fatalf("readyz: %d %q", code, body)
	}
	// The process is alive even if it cannot serve predictions yet.
	if code, _ := getStatus(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := postJSON(t, base+"/v1/predict", predictRequest{Features: probeVec[:]}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("predict without model: %d, want 503", code)
	}
	var rr reloadResponse
	if code := postJSON(t, base+"/admin/reload", nil, &rr); code != http.StatusInternalServerError {
		t.Fatalf("reload without path: %d", code)
	}
	if rr.Generation != 0 || rr.Error == "" {
		t.Fatalf("reload without path: %+v", rr)
	}
}

// TestReloadSwapAndRollback is the tentpole's core contract: a good file
// swaps in atomically, a bad file is rejected with the old model untouched.
func TestReloadSwapAndRollback(t *testing.T) {
	golden, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s, base := startServer(t, Config{ModelPath: path})

	var before predictResponse
	postJSON(t, base+"/v1/predict", predictRequest{Features: probeVec[:]}, &before)
	if before.ModelGeneration != 1 {
		t.Fatalf("generation %d, want 1", before.ModelGeneration)
	}

	// Corrupt the file: the reload must fail and the old model keep serving.
	if err := os.WriteFile(path, []byte("{definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	var rr reloadResponse
	if code := postJSON(t, base+"/admin/reload", nil, &rr); code != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt file: status %d", code)
	}
	if rr.Generation != 1 || rr.Error == "" {
		t.Fatalf("reload of corrupt file: %+v", rr)
	}
	var after predictResponse
	if code := postJSON(t, base+"/v1/predict", predictRequest{Features: probeVec[:]}, &after); code != http.StatusOK {
		t.Fatalf("predict after failed reload: %d", code)
	}
	if after != before {
		t.Fatalf("failed reload changed answers: %+v vs %+v", after, before)
	}
	if got := s.model.failures.Load(); got != 1 {
		t.Fatalf("reload failures %d, want 1", got)
	}

	// Restore a good file: the swap succeeds and the generation advances.
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, base+"/admin/reload", nil, &rr); code != http.StatusOK {
		t.Fatalf("reload of restored file: status %d (%+v)", code, rr)
	}
	if rr.Generation != 2 || rr.Trees == 0 {
		t.Fatalf("reload of restored file: %+v", rr)
	}
	var again predictResponse
	postJSON(t, base+"/v1/predict", predictRequest{Features: probeVec[:]}, &again)
	if again.ModelGeneration != 2 || again.ReadingSeconds != before.ReadingSeconds {
		t.Fatalf("after swap: %+v", again)
	}

	var m Metrics
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Model.Reloads != 1 || m.Model.ReloadFailures != 1 {
		t.Fatalf("metrics after reloads: %+v", m.Model)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressure wedges the single worker, fills the one-slot queue, and
// requires the next simulate request to bounce with 429 + Retry-After
// instead of queueing unboundedly. (Prediction endpoints run inline, off the
// queue; the backpressure contract belongs to /v1/simulate now.)
func TestBackpressure(t *testing.T) {
	s, base := startServer(t, Config{ModelPath: goldenModelPath, Workers: 1, QueueDepth: 1})

	block := make(chan struct{})
	release := func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}
	defer release()
	// Occupy the worker...
	go func() { _ = s.submit(context.Background(), func() { <-block }) }()
	waitFor(t, "worker busy", func() bool { return s.inFlight.Load() == 1 })
	// ...and fill the queue behind it.
	go func() { _ = s.submit(context.Background(), func() {}) }()
	waitFor(t, "queue full", func() bool { return len(s.queue) == 1 })

	raw, _ := json.Marshal(simulateRequest{Page: "m.cnn.com", ReadingS: 1})
	resp, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated simulate: status %d (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.rejects.Load() == 0 {
		t.Fatal("reject not counted")
	}

	// The inline prediction lane does not queue, so a wedged worker pool
	// cannot starve it: predict answers 200 while simulate bounces.
	if code := postJSON(t, base+"/v1/predict", predictRequest{Features: probeVec[:]}, nil); code != http.StatusOK {
		t.Fatalf("predict while simulate saturated: %d", code)
	}

	// Unwedge: service recovers by itself.
	release()
	waitFor(t, "drain", func() bool { return s.inFlight.Load() == 0 && len(s.queue) == 0 })
	if code := postJSON(t, base+"/v1/simulate", simulateRequest{Page: "m.cnn.com", ReadingS: 1}, nil); code != http.StatusOK {
		t.Fatalf("simulate after drain: %d", code)
	}
}

// TestRequestDeadline wedges the worker and checks a short-deadline simulate
// request queued behind it answers 504 without waiting for the wedge to
// clear.
func TestRequestDeadline(t *testing.T) {
	s, base := startServer(t, Config{ModelPath: goldenModelPath, Workers: 1, QueueDepth: 8})

	block := make(chan struct{})
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()
	go func() { _ = s.submit(context.Background(), func() { <-block }) }()
	waitFor(t, "worker busy", func() bool { return s.inFlight.Load() == 1 })

	raw, _ := json.Marshal(simulateRequest{Page: "m.cnn.com", ReadingS: 1})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/simulate", bytes.NewReader(raw))
	req.Header.Set("X-Request-Timeout-Ms", "50")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d, want 504", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("504 took %v; the deadline did not fire", waited)
	}
	// The skipped job never ran: the worker sees its dead context and drops it.
	close(block)
	waitFor(t, "queue drained", func() bool { return len(s.queue) == 0 })
}

// TestPanicRecovery checks a panicking request fails alone — counted, turned
// into an error, worker and process intact.
func TestPanicRecovery(t *testing.T) {
	s, base := startServer(t, Config{ModelPath: goldenModelPath, Workers: 1})

	err := s.submit(context.Background(), func() { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job returned %v", err)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter %d, want 1", got)
	}
	// The lone worker survived and keeps serving.
	if code := postJSON(t, base+"/v1/predict", predictRequest{Features: probeVec[:]}, nil); code != http.StatusOK {
		t.Fatalf("predict after panic: %d", code)
	}
}

// TestGracefulShutdown checks Shutdown drains in-flight work, then refuses
// new submissions, and leaves metrics readable for the final flush.
func TestGracefulShutdown(t *testing.T) {
	s, _ := startServer(t, Config{ModelPath: goldenModelPath, Workers: 2})

	var finished bool
	done := make(chan error, 1)
	go func() {
		done <- s.submit(context.Background(), func() {
			time.Sleep(100 * time.Millisecond)
			finished = true
		})
	}()
	waitFor(t, "job in flight", func() bool { return s.inFlight.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight job failed: %v", err)
	}
	if !finished {
		t.Fatal("Shutdown returned before the in-flight job finished")
	}
	if s.Ready() {
		t.Fatal("ready after Shutdown")
	}
	if err := s.submit(context.Background(), func() {}); err != errShuttingDown {
		t.Fatalf("submit after Shutdown: %v, want errShuttingDown", err)
	}
	// The final metrics flush still works after Shutdown.
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics after Shutdown: %v", err)
	}
}

// TestStartFailsFastOnBadAddr checks a structurally bad listen address is
// not retried: with an hour-long backoff configured, Start must still return
// immediately.
func TestStartFailsFastOnBadAddr(t *testing.T) {
	p := retry.DefaultPolicy()
	p.InitialDelay = time.Hour
	p.MaxDelay = time.Hour
	s, err := New(Config{Addr: "127.0.0.1:notaport", Retry: p})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = s.Start(context.Background())
	if err == nil {
		t.Fatal("Start bound a nonsense address")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("Start retried a permanent bind error for %v", took)
	}
}

func TestStartLoadsModelThroughRetry(t *testing.T) {
	// The model file appears only after the first load attempt fails: the
	// retry loop must ride it out.
	path := filepath.Join(t.TempDir(), "late.json")
	p := fastRetry()
	p.MaxAttempts = 10
	p.InitialDelay = 20 * time.Millisecond
	p.MaxDelay = 20 * time.Millisecond
	s, err := New(Config{Addr: "127.0.0.1:0", ModelPath: path, Retry: p})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Start(context.Background()) }()
	time.Sleep(30 * time.Millisecond)
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Start did not survive a late-appearing model: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if !s.Ready() {
		t.Fatal("not ready after late model load")
	}
}

// servedModel is the model easerd -train-demo serves: gbrt.DefaultConfig's
// 400 trees of 8 leaves on the synthetic trace, trained once per test binary
// and kept as its saved bytes.
var servedModel = sync.OnceValues(func() ([]byte, error) {
	ds, err := trace.Synthesize(trace.DefaultConfig())
	if err != nil {
		return nil, err
	}
	train, _, err := predictor.Split(ds.Visits, 0.3, 20130709)
	if err != nil {
		return nil, err
	}
	p, err := predictor.Train(train, predictor.Config{
		GBRT:                 gbrt.DefaultConfig(),
		UseInterestThreshold: true,
		Alpha:                2,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = p.Save(&buf)
	return buf.Bytes(), err
})

// coreModels are the forests the predict core is gated and timed on: the
// 40-tree golden model and the 400-tree served size.
func coreModels(tb testing.TB) map[string]string {
	tb.Helper()
	raw, err := servedModel()
	if err != nil {
		tb.Fatal(err)
	}
	served := filepath.Join(tb.TempDir(), "served.json")
	if err := os.WriteFile(served, raw, 0o644); err != nil {
		tb.Fatal(err)
	}
	return map[string]string{"golden40": goldenModelPath, "served400": served}
}

// loadedServer builds an unstarted server serving the model at path.
func loadedServer(tb testing.TB, path string) *Server {
	tb.Helper()
	s, err := New(Config{ModelPath: path})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.model.load(path); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestPredictCoreZeroAllocs pins the serving hot path behind the HTTP and
// queue layers at zero allocations per prediction, on both model sizes.
func TestPredictCoreZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool; alloc gates hold only in normal builds")
	}
	for name, path := range coreModels(t) {
		s := loadedServer(t, path)
		vec := probeVec
		got := testing.AllocsPerRun(1000, func() {
			if _, err := s.predictCoreStripe(&vec, &s.stripes[0]); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("%s: predictCoreStripe allocates %v per prediction, want 0", name, got)
		}
	}
}

// BenchmarkPredictCore measures the serving hot path behind the HTTP and
// queue layers on the 40-tree golden model and the 400-tree served size;
// TestPredictCoreZeroAllocs gates its allocations.
func BenchmarkPredictCore(b *testing.B) {
	models := coreModels(b)
	for _, name := range []string{"golden40", "served400"} {
		s := loadedServer(b, models[name])
		b.Run(name, func(b *testing.B) {
			vec := probeVec
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.predictCoreStripe(&vec, &s.stripes[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
