package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Collector merges the recorders of many concurrently simulated phones into
// one deterministic trace and one deterministic metrics snapshot.
//
// Registration is the only synchronized step: NewRecorder takes a lock and
// files the recorder under its caller-chosen key. After that each recorder
// is written single-threaded by its own session. Serialization walks the
// keys in sorted order, so the output bytes depend only on the set of
// sessions and what each did — never on which worker finished first.
type Collector struct {
	mu       sync.Mutex
	sessions map[string]*Recorder
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{sessions: make(map[string]*Recorder)}
}

// NewRecorder registers and returns a recorder for the given session key.
// Keys must be unique — a duplicate means two sessions would interleave
// nondeterministically, so it is rejected. A nil collector returns a nil
// recorder (the disabled path) with no error.
func (c *Collector) NewRecorder(key string) (*Recorder, error) {
	if c == nil {
		return nil, nil
	}
	if key == "" {
		return nil, fmt.Errorf("obs: empty session key")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.sessions[key]; dup {
		return nil, fmt.Errorf("obs: duplicate session key %q", key)
	}
	r := NewRecorder(key)
	c.sessions[key] = r
	return r, nil
}

// Sessions returns the registered session keys in sorted order.
func (c *Collector) Sessions() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.sessions))
	for k := range c.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteTrace writes the merged event stream as JSON Lines: sessions in
// sorted key order, each session's events in emission (simulated-time)
// order. Call only after the simulations feeding the recorders are done.
func (c *Collector) WriteTrace(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, key := range c.Sessions() {
		c.mu.Lock()
		r := c.sessions[key]
		c.mu.Unlock()
		for _, ev := range r.events {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SessionMetrics is one session's slice of the metrics snapshot.
type SessionMetrics struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Metrics is the snapshot of everything the collector's sessions counted.
type Metrics struct {
	// Sessions counts registered recorders.
	Sessions int `json:"sessions"`
	// Events counts events across all sessions.
	Events int `json:"events"`
	// Counters aggregates all sessions' counters by name.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Histograms aggregates all sessions' histograms by name.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// PerSession holds each session's own counters/histograms, keyed by
	// session key.
	PerSession map[string]SessionMetrics `json:"per_session,omitempty"`
}

// Snapshot aggregates counters and histograms across sessions. Aggregation
// walks sessions in sorted key order; since the merged quantities are
// integer counts (plus pre-rounded sums), the result is order-independent
// anyway, but the fixed order keeps the invariant obvious.
func (c *Collector) Snapshot() Metrics {
	m := Metrics{
		Counters:   make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		PerSession: make(map[string]SessionMetrics),
	}
	if c == nil {
		return m
	}
	for _, key := range c.Sessions() {
		c.mu.Lock()
		r := c.sessions[key]
		c.mu.Unlock()
		m.Sessions++
		m.Events += len(r.events)
		sm := SessionMetrics{}
		if len(r.counters) > 0 {
			sm.Counters = r.Counters()
			for name, v := range r.counters {
				m.Counters[name] += v
			}
		}
		if len(r.hists) > 0 {
			sm.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
			for name, h := range r.hists {
				snap := h.Snapshot()
				sm.Histograms[name] = snap
				agg := m.Histograms[name]
				agg.Merge(snap)
				m.Histograms[name] = agg
			}
		}
		m.PerSession[key] = sm
	}
	return m
}

// WriteMetrics writes the snapshot as indented JSON. encoding/json sorts
// map keys, so the bytes are deterministic.
func (c *Collector) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

// defaultCollector is the process-wide collector behind Enable/Default.
// Sites that can't thread a *Collector (deep inside experiment fan-out)
// consult Default(); it is nil unless tracing was switched on, so the
// disabled path stays a single atomic load.
var defaultCollector atomic.Pointer[Collector]

// Enable installs a fresh process-wide collector and returns it.
func Enable() *Collector {
	c := NewCollector()
	defaultCollector.Store(c)
	return c
}

// Disable removes the process-wide collector; subsequent Default() calls
// return nil and all recording downstream becomes a no-op.
func Disable() {
	defaultCollector.Store(nil)
}

// Default returns the process-wide collector, or nil when disabled.
func Default() *Collector {
	return defaultCollector.Load()
}
