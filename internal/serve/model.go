package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/predictor"
	"eabrowse/internal/retry"
	"eabrowse/internal/trace"
)

// errNoModel is returned on the request path before a model has been loaded.
var errNoModel = errors.New("serve: no model loaded")

// loadedModel is one immutable generation of the served model. Requests read
// the holder's atomic pointer once and keep the snapshot for their whole
// lifetime, so a reload mid-request can never mix two models' answers.
type loadedModel struct {
	pred *predictor.Predictor
	path string
	// gen counts successful loads from 1; it is echoed in responses and
	// metrics so clients and the soak harness can tell which model answered.
	gen      uint64
	loadedAt time.Time
}

// modelHolder owns the served model pointer. Loads are validate-then-swap:
// the candidate file is parsed, structurally validated and probe-evaluated
// off to the side, and only a fully usable model is atomically published.
// A bad file therefore rolls back for free — the old pointer was never
// touched, and requests in flight never observe a partial model.
type modelHolder struct {
	// mu serializes loaders (SIGHUP racing an admin reload); readers never
	// take it.
	mu  sync.Mutex
	cur atomic.Pointer[loadedModel]
	// failures counts rejected load attempts (the old model kept serving).
	failures atomic.Uint64
}

// current returns the serving model, or nil before the first load.
func (h *modelHolder) current() *loadedModel {
	return h.cur.Load()
}

// generation returns the serving model's generation (0 before the first
// load). Successful reloads = generation - 1.
func (h *modelHolder) generation() uint64 {
	if lm := h.cur.Load(); lm != nil {
		return lm.gen
	}
	return 0
}

// modelReadHook, when non-nil (tests only), runs after a candidate model has
// been read and validated but before it is published — a seam for holding a
// reload mid-flight to prove the read path never blocks behind it.
var modelReadHook func()

// load reads, validates and publishes the model at path. On any error the
// previously served model stays published untouched.
//
// The expensive part — file I/O, parse, probe evaluation — happens before
// the lock: a slow disk never serializes concurrent loaders, and readers
// (who never take mu at all, just one atomic pointer load) keep predicting
// on the old snapshot for the whole duration of a reload.
func (h *modelHolder) load(path string) (*loadedModel, error) {
	pred, err := readModel(path)
	if err != nil {
		h.failures.Add(1)
		return nil, err
	}
	if modelReadHook != nil {
		modelReadHook()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.cur.Load()
	lm := &loadedModel{
		pred:     pred,
		path:     path,
		gen:      1,
		loadedAt: time.Now(),
	}
	if old != nil {
		lm.gen = old.gen + 1
	}
	h.cur.Store(lm)
	return lm, nil
}

// readModel parses and probe-evaluates a candidate model file without
// touching the served pointer. I/O errors come back plain (a retry loop may
// ride out a file mid-rewrite); validation errors are marked permanent —
// rereading a corrupt file cannot fix it.
func readModel(path string) (*predictor.Predictor, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: read model: %w", err)
	}
	pred, err := predictor.LoadPredictor(bytes.NewReader(raw))
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("serve: invalid model file %s: %w", path, err))
	}
	// Belt and braces: the envelope validated, now prove the forest answers
	// a real feature vector with a finite number before anyone serves it.
	var probe features.Vector
	sec, err := pred.PredictVecSeconds(&probe)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("serve: candidate model failed probe prediction: %w", err))
	}
	if !finite(sec) {
		return nil, retry.Permanent(fmt.Errorf("serve: candidate model predicts %v on the probe vector", sec))
	}
	return pred, nil
}

// TrainDemoModel trains the paper's predictor configuration (default GBRT,
// interest threshold, α = 2) on 70% of the synthetic dataset and saves it to
// path — the model easerd -train-demo writes and eaload serves in process.
// It returns the predictor with its train and held-out visits.
func TrainDemoModel(path string) (p *predictor.Predictor, train, test []trace.Visit, err error) {
	ds, err := trace.Synthesize(trace.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	if train, test, err = predictor.Split(ds.Visits, 0.3, 20130709); err != nil {
		return nil, nil, nil, err
	}
	p, err = predictor.Train(train, predictor.Config{
		GBRT:                 gbrt.DefaultConfig(),
		UseInterestThreshold: true,
		Alpha:                2,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := p.SaveFile(path); err != nil {
		return nil, nil, nil, err
	}
	return p, train, test, nil
}
