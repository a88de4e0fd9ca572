// Package serve is the resident prediction service behind cmd/easerd: it
// loads a trained GBRT reading-time model and answers the paper's core loop
// — predict reading time, decide fast dormancy per page visit — over HTTP,
// staying up for days while models are retrained and swapped underneath it.
//
// The request path has two lanes. Prediction endpoints (/v1/predict,
// /v1/decide, /v1/predict_batch) run inline in the connection goroutine —
// each prediction is microseconds of pure CPU, so a queue hop would cost
// more than the work — over a zero-allocation fast path: pooled scratch
// buffers, a hand-rolled JSON encoder/decoder for the fixed v1 schemas
// (bit-identical to encoding/json), and per-CPU striped metrics. A body the
// fast parser does not recognize is decoded by encoding/json instead; the
// fallback only decodes, and one validate → core → encode tail per endpoint
// answers both spellings.
// Simulation (/v1/simulate) is milliseconds of work per request and keeps
// the bounded worker-pool queue with its 429/504 backpressure contract.
//
// The robustness contracts, in one place:
//
//   - Bounded work. Every request body is size-capped and carries a
//     deadline. Simulations run on a fixed worker pool behind a bounded
//     queue; a full queue answers 429 with Retry-After instead of growing
//     goroutines or memory. Prediction bodies are read into pooled buffers
//     with the same size cap, and batch requests bound their row count.
//   - Fail one request, not the process. A panic anywhere in a handler is
//     recovered per request (500), counted, and the process lives on. A
//     model that predicts a non-finite reading time fails that request with
//     a 500 and a JSON error, never a 200 without a body.
//   - Hot reload by validate-then-swap. A candidate model file is parsed,
//     validated and probe-evaluated before an atomic pointer swap publishes
//     it; a bad file leaves the old model serving (rollback is the default,
//     not a recovery step). Requests snapshot the pointer once, so none ever
//     observes a partially swapped model.
//   - Graceful shutdown. Stop accepting, drain in-flight requests, then
//     stop the workers; /readyz flips to 503 first so load balancers move on.
//
// Health and introspection: /healthz (process up), /readyz (model loaded and
// accepting), /metrics (obs counters/histograms plus queue depth, in-flight
// count, reloads and rejects).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/experiments"
	"eabrowse/internal/retry"
	"eabrowse/internal/rrc"
)

// Config describes one service instance.
type Config struct {
	// Addr is the listen address (host:port; ":0" picks a free port).
	Addr string
	// ModelPath is the predictor file loaded at startup and on reload. Empty
	// means "start without a model": /readyz stays 503 until a reload
	// succeeds.
	ModelPath string
	// Workers is the prediction worker-pool size. <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the backlog between the HTTP front and the workers.
	// <= 0 means 256. A full queue rejects with 429 + Retry-After.
	QueueDepth int
	// RequestTimeout is the per-request deadline propagated via context.
	// <= 0 means 5 s. Clients may shorten (never extend) it with an
	// X-Request-Timeout-Ms header.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies. <= 0 means 1 MiB.
	MaxBodyBytes int64
	// Retry governs startup model loading and listener binding, so a file
	// mid-rewrite or an address still held by the previous instance does not
	// kill the service.
	Retry retry.Policy
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = retry.DefaultPolicy()
	}
	return c
}

// Sentinel errors of the request path, mapped to HTTP statuses by the
// handlers.
var (
	errQueueFull    = errors.New("serve: worker queue full")
	errShuttingDown = errors.New("serve: shutting down")
)

// job is one unit of work handed to the pool. The handler goroutine waits on
// done (or its context); the worker closes done exactly once.
type job struct {
	ctx  context.Context
	fn   func()
	done chan struct{}
	err  error
}

// Server is the resident service. Build with New, bring up with Start, stop
// with Shutdown.
type Server struct {
	cfg   Config
	model modelHolder

	queue    chan *job
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	ln      net.Listener
	httpSrv *http.Server

	accepting atomic.Bool
	started   atomic.Bool
	startedAt time.Time

	inFlight atomic.Int64
	requests atomic.Uint64
	rejects  atomic.Uint64
	panics   atomic.Uint64

	// Request-path counters and latency histograms live in per-CPU stripes
	// of atomics (see stripes.go); /metrics folds them into the obs.Metrics
	// shape the old mutex-guarded recorder produced. The scratch pool hands
	// each request its reusable buffers plus the stripe it counts into.
	stripes     []stripe
	stripeRotor atomic.Int64
	scratch     sync.Pool
	// radioNames caches rrc.Profiles() so parseRadio can resolve radio
	// bytes to canonical strings without allocating.
	radioNames []string

	// Per-request simulation machinery: pooled zero-alloc sessions per
	// (browser mode, radio profile). The map is copy-on-write — readers
	// follow the atomic pointer lock-free, the mutex only serializes the
	// (rare) writers. Pages come from experiments.PageByName, the process's
	// one copy of each benchmark page.
	poolsMu sync.Mutex
	pools   atomic.Pointer[map[poolKey]*experiments.SessionPool]
}

// poolKey identifies one session pool: pooled sessions are homogeneous in
// both pipeline mode and radio backend.
type poolKey struct {
	mode  browser.Mode
	radio string
}

// pool returns the session pool for (mode, radio), building non-UMTS pools
// lazily on first use. The radio name must already be validated. The read
// side is one atomic load; a miss takes the writer lock, re-checks, and
// publishes a copied map so concurrent readers never see a partial write.
func (s *Server) pool(mode browser.Mode, radio string) (*experiments.SessionPool, error) {
	key := poolKey{mode: mode, radio: radio}
	if p, ok := (*s.pools.Load())[key]; ok {
		return p, nil
	}
	s.poolsMu.Lock()
	defer s.poolsMu.Unlock()
	cur := *s.pools.Load()
	if p, ok := cur[key]; ok {
		return p, nil
	}
	spec, err := rrc.ProfileSpec(radio)
	if err != nil {
		return nil, err
	}
	p := experiments.NewSessionPool(mode, experiments.WithRadioModel(spec))
	next := make(map[poolKey]*experiments.SessionPool, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = p
	s.pools.Store(&next)
	return p, nil
}

// New builds a server; no I/O happens until Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Retry.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		queue:      make(chan *job, cfg.QueueDepth),
		stop:       make(chan struct{}),
		stripes:    make([]stripe, nextPow2(runtime.GOMAXPROCS(0))),
		radioNames: rrc.Profiles(),
	}
	s.scratch = s.newScratchPool()
	pools := map[poolKey]*experiments.SessionPool{
		{browser.ModeOriginal, "umts"}: experiments.NewSessionPool(
			browser.ModeOriginal, experiments.WithRadioModel(rrc.DefaultConfig())),
		{browser.ModeEnergyAware, "umts"}: experiments.NewSessionPool(
			browser.ModeEnergyAware, experiments.WithRadioModel(rrc.DefaultConfig())),
	}
	s.pools.Store(&pools)
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s, nil
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Start loads the configured model (retrying transient I/O), binds the
// listener (retrying a busy address), and begins serving. It returns once
// the service is accepting; serving continues in the background until
// Shutdown.
func (s *Server) Start(ctx context.Context) error {
	if s.started.Swap(true) {
		return errors.New("serve: already started")
	}
	if s.cfg.ModelPath != "" {
		err := retry.Do(ctx, s.cfg.Retry, func(context.Context) error {
			_, err := s.model.load(s.cfg.ModelPath)
			return err
		})
		if err != nil {
			return fmt.Errorf("serve: load model: %w", err)
		}
	}
	err := retry.Do(ctx, s.cfg.Retry, func(context.Context) error {
		ln, lerr := net.Listen("tcp", s.cfg.Addr)
		if lerr != nil {
			if isAddrError(lerr) {
				// A malformed address never binds, no matter how patiently
				// it is retried.
				return retry.Permanent(lerr)
			}
			return lerr
		}
		s.ln = ln
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: bind %s: %w", s.cfg.Addr, err)
	}

	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.startedAt = time.Now()
	s.accepting.Store(true)
	go func() {
		// ErrServerClosed is the normal Shutdown path; anything else would
		// surface through failing requests and /healthz probes.
		_ = s.httpSrv.Serve(s.ln)
	}()
	return nil
}

// isAddrError reports a structurally bad listen address (vs a transiently
// unavailable one).
func isAddrError(err error) bool {
	var ae *net.AddrError
	if errors.As(err, &ae) {
		return true
	}
	// "missing port", "too many colons", unknown host in tests...
	var de *net.DNSError
	return errors.As(err, &de) && de.IsNotFound
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Reload loads cfg.ModelPath again and swaps it in if — and only if — it
// validates; otherwise the old model keeps serving and the error is
// returned. Safe to call concurrently (SIGHUP racing POST /admin/reload).
func (s *Server) Reload() (uint64, error) {
	if s.cfg.ModelPath == "" {
		return s.model.generation(), errors.New("serve: no model path configured")
	}
	lm, err := s.model.load(s.cfg.ModelPath)
	if err != nil {
		return s.model.generation(), err
	}
	return lm.gen, nil
}

// Ready reports whether the service is accepting work and has a model.
func (s *Server) Ready() bool {
	return s.accepting.Load() && s.model.current() != nil
}

// Shutdown stops the service gracefully: readiness flips first (load
// balancers drain), the HTTP server stops accepting and waits for in-flight
// requests up to ctx, then the workers finish whatever is still queued and
// exit. The obs collector's final snapshot remains readable via
// MetricsSnapshot/WriteMetrics after Shutdown returns.
// Shutdown is idempotent: later calls wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.accepting.Store(false)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	// All connections are done (or ctx expired and stragglers will be cut
	// off); tell the workers to drain the queue and exit.
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	return err
}

// submit enqueues fn and waits for it to run, honoring backpressure and the
// request deadline. It never blocks on a full queue.
func (s *Server) submit(ctx context.Context, fn func()) error {
	if !s.accepting.Load() {
		s.rejects.Add(1)
		return errShuttingDown
	}
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	select {
	case s.queue <- j:
	default:
		s.rejects.Add(1)
		return errQueueFull
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		// The worker will see the dead context and skip the job; the
		// response goes out now either way.
		return ctx.Err()
	}
}

// worker executes queued jobs until told to stop, then drains what is left
// (skipping jobs whose requesters have given up) and exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
		default:
			select {
			case j := <-s.queue:
				s.runJob(j)
			case <-s.stop:
				return
			}
		}
	}
}

// runJob runs one job with per-request panic recovery: a panicking request
// fails alone; the worker — and the process — live on.
func (s *Server) runJob(j *job) {
	defer close(j.done)
	if j.ctx != nil && j.ctx.Err() != nil {
		j.err = j.ctx.Err()
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			j.err = fmt.Errorf("serve: request panicked: %v", r)
		}
	}()
	j.fn()
}
