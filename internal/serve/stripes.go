package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/obs"
)

// The request path counts and times itself into GOMAXPROCS-striped atomic
// state instead of a mutex-guarded obs recorder: concurrent requests touch
// different stripes (each pooled scratch carries a stripe reference, and
// sync.Pool keeps scratches per-P), so the hot path never contends on a
// shared line, and /metrics folds the stripes into the same obs.Metrics
// document the recorder used to produce.

// Counter indices into a stripe. The names are the wire/metrics names the
// obs recorder used, so dashboards and the soak harness keep working.
const (
	cPredict = iota
	cDecide
	cSimulate
	cSwitch
	cBatch
	cBatchItems
	nCounters
)

// Histogram indices into a stripe.
const (
	hPredict = iota
	hDecide
	hSimulate
	hBatch
	nHists
)

var counterNames = [nCounters]string{
	cPredict:    counterPredict,
	cDecide:     counterDecide,
	cSimulate:   counterSimulate,
	cSwitch:     counterSwitch,
	cBatch:      counterBatch,
	cBatchItems: counterBatchItems,
}

var histNames = [nHists]string{
	hPredict:  latencyPredict,
	hDecide:   latencyDecide,
	hSimulate: latencySimulate,
	hBatch:    latencyBatch,
}

// stripe is one shard of the service's counters and latency histograms.
// The trailing pad keeps adjacent stripes off one cache line.
type stripe struct {
	counters [nCounters]atomic.Int64
	hists    [nHists]obs.AtomicHist
	_        [64]byte
}

func (st *stripe) count(i int) {
	st.counters[i].Add(1)
}

func (st *stripe) add(i int, n int64) {
	st.counters[i].Add(n)
}

func (st *stripe) observe(i int, start time.Time) {
	st.hists[i].Observe(time.Since(start))
}

// scratch is the per-request reusable state of the zero-alloc fast lane:
// input/output buffers, parsed-feature storage, and the metrics stripe this
// scratch feeds. Scratches live in a sync.Pool, which shards per P — so the
// stripe a goroutine counts into is usually one its CPU already owns.
type scratch struct {
	st      *stripe
	in      []byte            // raw request body
	out     []byte            // encoded response
	feats   []float64         // feature values of the vector being parsed
	vecs    []features.Vector // batch rows (capped at maxBatchRows)
	rowLens []int             // batch row arities, including rows beyond the cap
	preds   []float64         // batch predictions
	xs      [][]float64       // batch row-pointer scratch for the predictor
}

// addRow records one batch row: its arity always, its values only under
// the row cap.
func (sc *scratch) addRow(row []float64) {
	if i := len(sc.rowLens); i < maxBatchRows {
		for i >= len(sc.vecs) {
			sc.vecs = append(sc.vecs, features.Vector{})
		}
		copy(sc.vecs[i][:], row)
	}
	sc.rowLens = append(sc.rowLens, len(row))
}

// newScratchPool builds the pool; stripes are dealt round-robin at scratch
// creation, which spreads them evenly across however many scratches
// concurrency ends up demanding.
func (s *Server) newScratchPool() sync.Pool {
	return sync.Pool{New: func() any {
		st := &s.stripes[int(s.stripeRotor.Add(1)-1)%len(s.stripes)]
		return &scratch{
			st:    st,
			in:    make([]byte, 0, 4096),
			out:   make([]byte, 0, 1024),
			feats: make([]float64, 0, features.Num),
		}
	}}
}

func (s *Server) getScratch() *scratch {
	return s.scratch.Get().(*scratch)
}

func (s *Server) putScratch(sc *scratch) {
	s.scratch.Put(sc)
}

// obsSnapshot folds the stripes into the obs.Metrics shape the /metrics
// document has always carried (aggregate counters/histograms plus the
// "easerd" per-session view).
func (s *Server) obsSnapshot() obs.Metrics {
	m := obs.Metrics{
		Sessions:   1,
		Counters:   make(map[string]int64),
		Histograms: make(map[string]obs.HistogramSnapshot),
	}
	for i, name := range counterNames {
		var total int64
		for j := range s.stripes {
			total += s.stripes[j].counters[i].Load()
		}
		if total != 0 {
			m.Counters[name] = total
		}
	}
	for i, name := range histNames {
		var snap obs.HistogramSnapshot
		for j := range s.stripes {
			snap.Merge(s.stripes[j].hists[i].Snapshot())
		}
		if snap.Count != 0 {
			m.Histograms[name] = snap
		}
	}
	sess := obs.SessionMetrics{}
	if len(m.Counters) > 0 {
		sess.Counters = make(map[string]int64, len(m.Counters))
		for k, v := range m.Counters {
			sess.Counters[k] = v
		}
	}
	if len(m.Histograms) > 0 {
		sess.Histograms = make(map[string]obs.HistogramSnapshot, len(m.Histograms))
		for k, v := range m.Histograms {
			sess.Histograms[k] = v
		}
	}
	m.PerSession = map[string]obs.SessionMetrics{"easerd": sess}
	return m
}
