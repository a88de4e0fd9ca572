package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/channel"
	"eabrowse/internal/experiments"
	"eabrowse/internal/features"
	"eabrowse/internal/obs"
	"eabrowse/internal/policy"
	"eabrowse/internal/rrc"
	"eabrowse/internal/webpage"
)

// Counter and histogram names are prebuilt constants so the hot path never
// concatenates strings.
const (
	counterPredict    = "serve.predict"
	counterDecide     = "serve.decide"
	counterSimulate   = "serve.simulate"
	counterSwitch     = "serve.decide.switch"
	counterBatch      = "serve.predict_batch"
	counterBatchItems = "serve.predict_batch.items"
	latencyPredict    = "serve.latency.predict"
	latencyDecide     = "serve.latency.decide"
	latencySimulate   = "serve.latency.simulate"
	latencyBatch      = "serve.latency.predict_batch"
)

// Handler returns the service's HTTP surface: a direct path switch (the
// Go 1.22+ ServeMux allocates per request; the fast lane cannot afford
// that) inside the request-counting, panic-recovering middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		switch r.URL.Path {
		case "/v1/predict":
			s.serveFast(w, r, (*Server).predict)
		case "/v1/decide":
			s.serveFast(w, r, (*Server).decide)
		case "/v1/predict_batch":
			s.serveFast(w, r, (*Server).predictBatch)
		case "/v1/simulate":
			s.handleSimulate(w, r)
		case "/healthz":
			s.handleHealthz(w, r)
		case "/readyz":
			s.handleReadyz(w, r)
		case "/metrics":
			s.handleMetrics(w, r)
		case "/admin/reload":
			s.handleReload(w, r)
		default:
			http.NotFound(w, r)
		}
	})
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeWorkError maps request-path failures onto HTTP statuses; the
// backpressure contract (429 + Retry-After on a full queue) lives here.
func (s *Server) writeWorkError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "worker queue full, retry shortly")
	case errors.Is(err, errShuttingDown):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "shutting down")
	case errors.Is(err, errNoModel):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "no model loaded yet")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// requestCtx derives the per-request deadline: the server default, shortened
// (never extended) by an X-Request-Timeout-Ms header.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Request-Timeout-Ms"); h != "" {
		if ms, err := strconv.Atoi(h); err == nil && ms > 0 {
			if d := time.Duration(ms) * time.Millisecond; d < timeout {
				timeout = d
			}
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// parseRadio resolves an optional radio profile name to its registry
// spelling, defaulting to UMTS, without allocating for a valid name.
// Unknown names answer 400 with the valid-name list, mirroring the
// benchmark-page errors.
func (s *Server) parseRadio(w http.ResponseWriter, name []byte) (string, bool) {
	if len(name) == 0 {
		return "umts", true
	}
	for _, n := range s.radioNames {
		if string(name) == n {
			return n, true
		}
	}
	if _, err := rrc.ProfileSpec(string(name)); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return "", false
	}
	return string(name), true
}

// errNonFinite fails a request whose model predicts an infinite or NaN
// reading time (a forest whose leaves overflow): JSON cannot carry the
// number, so the answer is a 500, not a 200 without a body.
var errNonFinite = errors.New("serve: model predicted a non-finite reading time")

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// parseFeatures validates a request's feature array into a stack vector.
func parseFeatures(w http.ResponseWriter, raw []float64, vec *features.Vector) bool {
	if len(raw) != features.Num {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("need exactly %d features (Table 1 order), got %d", features.Num, len(raw)))
		return false
	}
	for i, f := range raw {
		if !finite(f) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("feature %d is not finite", i))
			return false
		}
	}
	copy(vec[:], raw)
	return true
}

// --- /v1/predict -----------------------------------------------------------

type predictRequest struct {
	// Features is the Table 1 vector, in index order.
	Features []float64 `json:"features"`
	// Radio optionally names the radio profile the caller's phone runs; it
	// does not change the prediction (Table 1 features are radio-agnostic)
	// but is validated and echoed back so mixed-RAN clients can correlate
	// responses. Empty means "umts".
	Radio string `json:"radio"`
}

type predictResponse struct {
	ReadingSeconds  float64 `json:"reading_seconds"`
	ModelGeneration uint64  `json:"model_generation"`
	Radio           string  `json:"radio"`
}

// predictResult is the internal, allocation-free form of an answer.
type predictResult struct {
	seconds float64
	gen     uint64
}

// predictCoreStripe is the steady-state hot path: one atomic model snapshot,
// one evaluation of the forest compiled at load (gbrt's bitvector layout,
// scored on a stack array), one counter bump into the caller's stripe. Zero
// allocations per op — the soak harness and TestPredictCoreZeroAllocs pin
// that on the golden and the served-size model. A non-finite prediction is
// errNonFinite.
func (s *Server) predictCoreStripe(vec *features.Vector, st *stripe) (predictResult, error) {
	lm := s.model.current()
	if lm == nil {
		return predictResult{}, errNoModel
	}
	sec, err := lm.pred.PredictVecSeconds(vec)
	if err != nil {
		return predictResult{}, err
	}
	if !finite(sec) {
		return predictResult{}, errNonFinite
	}
	st.count(cPredict)
	return predictResult{seconds: sec, gen: lm.gen}, nil
}

// --- /v1/decide ------------------------------------------------------------

type decideRequest struct {
	Features []float64 `json:"features"`
	// Mode is "delay" (default) or "power" — Algorithm 2's two operating
	// points.
	Mode string `json:"mode"`
}

type decideResponse struct {
	ReadingSeconds  float64 `json:"reading_seconds"`
	Switch          bool    `json:"switch"`
	Reason          string  `json:"reason"`
	Mode            string  `json:"mode"`
	TpSeconds       float64 `json:"tp_s"`
	TdSeconds       float64 `json:"td_s"`
	ModelGeneration uint64  `json:"model_generation"`
}

type decideResult struct {
	seconds float64
	d       policy.Decision
	tp, td  time.Duration
	gen     uint64
}

// decideCoreStripe runs Algorithm 2's decision rule on a fresh prediction,
// using the thresholds that travel with the model file. A non-finite
// prediction is errNonFinite, checked before it becomes a Duration.
func (s *Server) decideCoreStripe(vec *features.Vector, mode policy.Mode, st *stripe) (decideResult, error) {
	lm := s.model.current()
	if lm == nil {
		return decideResult{}, errNoModel
	}
	sec, err := lm.pred.PredictVecSeconds(vec)
	if err != nil {
		return decideResult{}, err
	}
	if !finite(sec) {
		return decideResult{}, errNonFinite
	}
	th := lm.pred.Thresholds()
	d := policy.Evaluate(time.Duration(sec*float64(time.Second)), policy.Params{
		Alpha: th.Alpha,
		Tp:    th.Tp,
		Td:    th.Td,
		Mode:  mode,
	})
	st.count(cDecide)
	if d.Switch {
		st.count(cSwitch)
	}
	return decideResult{seconds: sec, d: d, tp: th.Tp, td: th.Td, gen: lm.gen}, nil
}

// parsePolicyMode maps the wire names onto policy modes, without allocating
// for a valid name.
func parsePolicyMode(w http.ResponseWriter, name []byte) (policy.Mode, bool) {
	switch string(name) {
	case "", "delay", "delay-driven":
		return policy.ModeDelay, true
	case "power", "power-driven":
		return policy.ModePower, true
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown mode %q (want \"delay\" or \"power\")", name))
		return 0, false
	}
}

// --- /v1/simulate ----------------------------------------------------------

// maxSimulatedReading bounds the reading window a request may ask the
// simulator to run.
const maxSimulatedReading = time.Hour

type simulateRequest struct {
	// Page is a benchmark page name (see eabench -list / webpage package).
	Page string `json:"page"`
	// Mode is "original" or "energy-aware" (default).
	Mode string `json:"mode"`
	// Radio is the radio profile the simulated phone runs ("umts", "lte",
	// "nr"); empty means "umts".
	Radio string `json:"radio"`
	// ReadingS is the simulated reading window after the final display.
	ReadingS float64 `json:"reading_s"`
	// Channel optionally names a built-in channel scenario (see
	// channel.Scenarios) the simulated load runs under; empty means the
	// fixed ideal link.
	Channel string `json:"channel"`
}

type simulateResponse struct {
	Page              string  `json:"page"`
	Mode              string  `json:"mode"`
	Radio             string  `json:"radio"`
	Channel           string  `json:"channel,omitempty"`
	LoadSeconds       float64 `json:"load_s"`
	FirstDisplayS     float64 `json:"first_display_s"`
	TransmissionS     float64 `json:"transmission_s"`
	LoadEnergyJ       float64 `json:"load_energy_j"`
	EnergyWithReading float64 `json:"energy_with_reading_j"`
	ReadingEnergyJ    float64 `json:"reading_energy_j"`
}

// simulateCore loads the page and runs the requested reading window. Without
// a channel the session comes from the zero-alloc pool and returns to it only
// after a clean run; an errored or panicked simulation drops it instead of
// recycling unknown state. Channel-shaped requests build a fresh session —
// the pools stay homogeneous (fixed ideal link) so a scenario request can
// never leave shaped state behind for the next caller.
func (s *Server) simulateCore(page *webpage.Page, mode browser.Mode, radio string, sched *channel.Schedule, reading time.Duration) (simulateResponse, error) {
	var sess *experiments.Session
	var pool *experiments.SessionPool
	if sched == nil {
		var err error
		if pool, err = s.pool(mode, radio); err != nil {
			return simulateResponse{}, err
		}
		if sess, err = pool.Get(); err != nil {
			return simulateResponse{}, err
		}
	} else {
		spec, err := rrc.ProfileSpec(radio)
		if err != nil {
			return simulateResponse{}, err
		}
		if sess, err = experiments.New(mode,
			experiments.WithRadioModel(spec),
			experiments.WithChannel(sched)); err != nil {
			return simulateResponse{}, err
		}
	}
	visit, err := sess.Visit(page, reading)
	if err != nil {
		return simulateResponse{}, fmt.Errorf("serve: simulate %s: %w", page.Name, err)
	}
	res := visit.Result
	out := simulateResponse{
		Page:              page.Name,
		Mode:              mode.String(),
		Radio:             radio,
		LoadSeconds:       res.FinalDisplayAt.Seconds(),
		FirstDisplayS:     res.FirstDisplayAt.Seconds(),
		TransmissionS:     res.TransmissionTime.Seconds(),
		LoadEnergyJ:       obs.Round6(res.TotalEnergyJ()),
		EnergyWithReading: obs.Round6(visit.TotalWithReadingJ),
		ReadingEnergyJ:    obs.Round6(visit.ReadingJ),
	}
	if sched != nil {
		out.Channel = sched.Name()
	}
	s.stripes[0].count(cSimulate)
	if pool != nil {
		pool.Put(sess)
	}
	return out, nil
}

// parseChannel validates an optional channel scenario name. Unknown names
// answer 400 with the valid-name list, like parseRadio.
func parseChannel(w http.ResponseWriter, name string) (*channel.Schedule, bool) {
	if name == "" {
		return nil, true
	}
	sched, err := channel.ScenarioSchedule(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return sched, true
}

// parseBrowserMode maps the wire names onto browser modes.
func parseBrowserMode(w http.ResponseWriter, name string) (browser.Mode, bool) {
	switch name {
	case "", "energy-aware":
		return browser.ModeEnergyAware, true
	case "original":
		return browser.ModeOriginal, true
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown mode %q (want \"original\" or \"energy-aware\")", name))
		return 0, false
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req simulateRequest
	sc := s.getScratch()
	body, ok := s.readBody(w, r, sc)
	ok = ok && decodeBodyBytes(w, body, &req)
	s.putScratch(sc)
	if !ok {
		return
	}
	mode, ok := parseBrowserMode(w, req.Mode)
	if !ok {
		return
	}
	radio, ok := s.parseRadio(w, []byte(req.Radio))
	if !ok {
		return
	}
	sched, ok := parseChannel(w, req.Channel)
	if !ok {
		return
	}
	if math.IsNaN(req.ReadingS) || req.ReadingS < 0 || req.ReadingS > maxSimulatedReading.Seconds() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("reading_s must be in [0, %v]", maxSimulatedReading.Seconds()))
		return
	}
	page, err := experiments.PageByName(req.Page)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	reading := time.Duration(req.ReadingS * float64(time.Second))
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var res simulateResponse
	var coreErr error
	if err := s.submit(ctx, func() { res, coreErr = s.simulateCore(page, mode, radio, sched, reading) }); err != nil {
		s.writeWorkError(w, err)
		return
	}
	if coreErr != nil {
		s.writeWorkError(w, coreErr)
		return
	}
	s.stripes[0].observe(hSimulate, start)
	writeJSON(w, http.StatusOK, res)
}

// --- health, metrics, admin ------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		if s.model.current() == nil {
			_, _ = io.WriteString(w, "not ready: no model loaded\n")
		} else {
			_, _ = io.WriteString(w, "not ready: shutting down\n")
		}
		return
	}
	_, _ = io.WriteString(w, "ready\n")
}

// ModelStatus describes the serving model in the metrics snapshot.
type ModelStatus struct {
	Ready          bool   `json:"ready"`
	Path           string `json:"path,omitempty"`
	Generation     uint64 `json:"generation"`
	Trees          int    `json:"trees,omitempty"`
	LoadedAtUnixMS int64  `json:"loaded_at_unix_ms,omitempty"`
	Reloads        uint64 `json:"reloads"`
	ReloadFailures uint64 `json:"reload_failures"`
}

// RadioStatus surfaces the radio-backend registry in the metrics snapshot:
// the profile new simulations default to and every name a request may ask
// for.
type RadioStatus struct {
	DefaultProfile string   `json:"default_profile"`
	Profiles       []string `json:"profiles"`
}

// Metrics is the /metrics document: the service gauges the soak harness and
// operators watch, plus the obs counters/histograms snapshot.
type Metrics struct {
	UptimeSeconds float64     `json:"uptime_s"`
	QueueDepth    int         `json:"queue_depth"`
	QueueCapacity int         `json:"queue_capacity"`
	InFlight      int64       `json:"in_flight"`
	Requests      uint64      `json:"requests"`
	Rejects       uint64      `json:"rejects"`
	Panics        uint64      `json:"panics"`
	Model         ModelStatus `json:"model"`
	Radio         RadioStatus `json:"radio"`
	Obs           obs.Metrics `json:"obs"`
}

// MetricsSnapshot assembles the current metrics document.
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		InFlight:      s.inFlight.Load(),
		Requests:      s.requests.Load(),
		Rejects:       s.rejects.Load(),
		Panics:        s.panics.Load(),
		Radio: RadioStatus{
			DefaultProfile: experiments.DefaultRadioSpec().Profile(),
			Profiles:       rrc.Profiles(),
		},
	}
	if !s.startedAt.IsZero() {
		m.UptimeSeconds = time.Since(s.startedAt).Seconds()
	}
	m.Model.ReloadFailures = s.model.failures.Load()
	if lm := s.model.current(); lm != nil {
		m.Model.Ready = s.Ready()
		m.Model.Path = lm.path
		m.Model.Generation = lm.gen
		m.Model.Trees = lm.pred.NumTrees()
		m.Model.LoadedAtUnixMS = lm.loadedAt.UnixMilli()
		m.Model.Reloads = lm.gen - 1
	}
	m.Obs = s.obsSnapshot()
	return m
}

// WriteMetrics writes the metrics document as indented JSON — the shutdown
// flush path for cmd/easerd.
func (s *Server) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.MetricsSnapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}

type reloadResponse struct {
	Generation uint64 `json:"generation"`
	Trees      int    `json:"trees,omitempty"`
	Error      string `json:"error,omitempty"`
}

// handleReload swaps in a revalidated model. It runs on the admin plane —
// not through the worker queue — so operators can still reload a saturated
// server.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	gen, err := s.Reload()
	if err != nil {
		// The old model (generation gen) is still serving: reloads roll
		// back, they do not break the service.
		writeJSON(w, http.StatusInternalServerError, reloadResponse{
			Generation: gen,
			Error:      err.Error(),
		})
		return
	}
	resp := reloadResponse{Generation: gen}
	if lm := s.model.current(); lm != nil {
		resp.Trees = lm.pred.NumTrees()
	}
	writeJSON(w, http.StatusOK, resp)
}
