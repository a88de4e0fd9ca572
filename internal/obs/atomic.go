package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// AtomicHist is the one duration histogram: fixed millisecond buckets
// (histogramBucketsMS plus an overflow bucket), integer counts and an integer
// nanosecond sum, so snapshots are deterministic and merge bucket-wise. Every
// field is an atomic, making Observe safe — and lock-free — from any number
// of goroutines. The resident service stripes these per CPU on its request
// path; a Recorder keeps one per name for its single simulated phone.
type AtomicHist struct {
	buckets [len14]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one duration.
func (h *AtomicHist) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	idx := sort.SearchFloat64s(histogramBucketsMS, ms)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the number of observations so far.
func (h *AtomicHist) Count() int64 {
	return h.count.Load()
}

// Snapshot returns the histogram in the shared snapshot form. Concurrent
// Observe calls may land between field loads; each bucket is internally
// consistent and the snapshot is exact once writers quiesce.
func (h *AtomicHist) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		SumMS:   Round6(float64(h.sumNS.Load()) / float64(time.Millisecond)),
		Buckets: make([]HistogramBucket, 0, len14),
	}
	for i := range h.buckets {
		le := float64(-1) // overflow
		if i < len(histogramBucketsMS) {
			le = histogramBucketsMS[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LeMS: le, N: h.buckets[i].Load()})
	}
	return s
}

// Merge adds o's counts into s bucket-wise; both sides must use the fixed
// bucket layout. Callers striping AtomicHists fold the per-stripe snapshots
// into one with it, and the Collector aggregates sessions with it.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.SumMS = Round6(s.SumMS + o.SumMS)
	if s.Buckets == nil {
		s.Buckets = append([]HistogramBucket(nil), o.Buckets...)
		return
	}
	for i := range s.Buckets {
		s.Buckets[i].N += o.Buckets[i].N
	}
}
