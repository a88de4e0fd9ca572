package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Key() != "" {
		t.Fatalf("nil recorder key = %q", r.Key())
	}
	// None of these may panic or allocate state.
	r.Record(time.Second, Event{Kind: KindTransition})
	r.Count("x", 3)
	r.ObserveDur("h", time.Millisecond)
	if r.Events() != nil || r.Counters() != nil {
		t.Fatal("nil recorder returned non-nil data")
	}
}

func TestRecorderStampsAndCounts(t *testing.T) {
	r := NewRecorder("sess")
	r.Record(1500*time.Millisecond, Event{Kind: KindXferStart, URL: "a.css", Attempt: 1})
	r.Record(2*time.Second, Event{Kind: KindXferEnd, URL: "a.css", Joules: 1.23456789})
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Session != "sess" || evs[0].AtNS != int64(1500*time.Millisecond) {
		t.Fatalf("bad stamping: %+v", evs[0])
	}
	if evs[1].Joules != 1.234568 {
		t.Fatalf("Joules not rounded: %v", evs[1].Joules)
	}
	c := r.Counters()
	if c["events."+KindXferStart] != 1 || c["events."+KindXferEnd] != 1 {
		t.Fatalf("event counters wrong: %v", c)
	}
	// Events() must be a copy.
	evs[0].URL = "mutated"
	if r.Events()[0].URL != "a.css" {
		t.Fatal("Events() aliases internal slice")
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRecorder("h")
	r.ObserveDur("xfer_ns", 500*time.Microsecond) // bucket le=1ms
	r.ObserveDur("xfer_ns", time.Millisecond)     // le=1ms (inclusive)
	r.ObserveDur("xfer_ns", 3*time.Millisecond)   // le=5ms
	r.ObserveDur("xfer_ns", time.Minute)          // overflow
	h := r.hists["xfer_ns"]
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d", snap.Count)
	}
	wantSum := Round6(float64(500*time.Microsecond+time.Millisecond+3*time.Millisecond+time.Minute) / float64(time.Millisecond))
	if snap.SumMS != wantSum {
		t.Fatalf("sum = %v want %v", snap.SumMS, wantSum)
	}
	if len(snap.Buckets) != len(histogramBucketsMS)+1 {
		t.Fatalf("bucket layout %d", len(snap.Buckets))
	}
	if snap.Buckets[0].N != 2 { // <=1ms
		t.Fatalf("le1ms bucket = %d", snap.Buckets[0].N)
	}
	if snap.Buckets[2].N != 1 { // <=5ms
		t.Fatalf("le5ms bucket = %d", snap.Buckets[2].N)
	}
	last := snap.Buckets[len(snap.Buckets)-1]
	if last.LeMS != -1 || last.N != 1 {
		t.Fatalf("overflow bucket = %+v", last)
	}

	// Merge doubles every count.
	agg := h.Snapshot()
	agg.Merge(snap)
	if agg.Count != 8 || agg.Buckets[0].N != 4 {
		t.Fatalf("merge wrong: %+v", agg)
	}
	var empty HistogramSnapshot
	empty.Merge(snap)
	if empty.Count != 4 || len(empty.Buckets) != len(snap.Buckets) {
		t.Fatalf("merge into empty wrong: %+v", empty)
	}
}

// fakeProbe is a scriptable EnergyProbe; radio is keyed by state name and
// converted to the vector form through fakeNames.
var fakeNames = StateNames{1: "IDLE", 2: "FACH", 3: "DCH"}

type fakeProbe struct {
	radio map[string]float64
	cpu   float64
}

func (p *fakeProbe) probe() (EnergyVec, float64) {
	var out EnergyVec
	for k, v := range p.radio {
		for i, name := range fakeNames {
			if name == k {
				out[i] = v
			}
		}
	}
	return out, p.cpu
}

func TestLedgerPhasesTelescopeToTotal(t *testing.T) {
	p := &fakeProbe{radio: map[string]float64{"DCH": 0, "FACH": 0}, cpu: 0}
	l := NewLedger(p.probe, &fakeNames)
	l.Mark("transmission", 0)

	p.radio["DCH"] = 2.5
	p.cpu = 0.25
	l.Mark("layout", 4*time.Second)

	p.radio["DCH"] = 3.0
	p.radio["FACH"] = 0.4
	p.radio["IDLE"] = 0.01 // state appearing mid-load
	p.cpu = 0.75
	l.Close(9 * time.Second)

	phases := l.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	tx := phases[0]
	if tx.Phase != "transmission" || tx.StartNS != 0 || tx.EndNS != int64(4*time.Second) {
		t.Fatalf("transmission phase bounds: %+v", tx)
	}
	if tx.RadioByStateJ["DCH"] != 2.5 || tx.CPUJ != 0.25 || tx.TotalJ != 2.75 {
		t.Fatalf("transmission attribution: %+v", tx)
	}
	lay := phases[1]
	if lay.Phase != "layout" || lay.RadioByStateJ["FACH"] != 0.4 || lay.RadioByStateJ["IDLE"] != 0.01 {
		t.Fatalf("layout attribution: %+v", lay)
	}

	var sum float64
	for _, ph := range phases {
		sum += ph.TotalJ
	}
	if got := Round6(l.TotalJ()); got != Round6(sum) {
		t.Fatalf("phases sum %v != total %v", sum, got)
	}
	if l.TotalJ() != 3.0+0.4+0.01+0.75 {
		t.Fatalf("TotalJ = %v", l.TotalJ())
	}
	if l.StartNS() != 0 || l.EndNS() != int64(9*time.Second) {
		t.Fatalf("ledger bounds %d..%d", l.StartNS(), l.EndNS())
	}
	if l.PhaseTotalJ("transmission") != 2.75 || l.PhaseTotalJ("absent") != 0 {
		t.Fatal("PhaseTotalJ lookup wrong")
	}
	if !l.Closed() {
		t.Fatal("ledger not closed")
	}
	// Marks after Close are ignored.
	l.Mark("late", 20*time.Second)
	l.Close(21 * time.Second)
	if len(l.Phases()) != 2 || l.EndNS() != int64(9*time.Second) {
		t.Fatal("ledger mutated after Close")
	}
}

func TestLedgerNilAndEmpty(t *testing.T) {
	var l *Ledger
	l.Mark("x", 0)
	l.Close(0)
	if l.Phases() != nil || l.TotalJ() != 0 || l.Closed() || l.StartNS() != 0 || l.EndNS() != 0 {
		t.Fatal("nil ledger not inert")
	}
	l.EmitPhases(NewRecorder("x"))

	p := &fakeProbe{radio: map[string]float64{}, cpu: 0}
	l2 := NewLedger(p.probe, &fakeNames)
	if l2.Phases() != nil || l2.TotalJ() != 0 {
		t.Fatal("empty ledger not zero")
	}
}

func TestLedgerEmitPhases(t *testing.T) {
	p := &fakeProbe{radio: map[string]float64{"DCH": 0}, cpu: 0}
	l := NewLedger(p.probe, &fakeNames)
	l.Mark("transmission", time.Second)
	p.radio["DCH"] = 1.5
	l.Close(3 * time.Second)

	r := NewRecorder("s")
	l.EmitPhases(r)
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	ev := evs[0]
	if ev.Kind != KindPhaseEnergy || ev.Detail != "transmission" ||
		ev.AtNS != int64(3*time.Second) || ev.DurNS != int64(2*time.Second) || ev.Joules != 1.5 {
		t.Fatalf("phase event wrong: %+v", ev)
	}
}

func TestCollectorKeysAndDuplicates(t *testing.T) {
	c := NewCollector()
	if _, err := c.NewRecorder(""); err == nil {
		t.Fatal("empty key accepted")
	}
	r1, err := c.NewRecorder("b")
	if err != nil || r1 == nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if _, err := c.NewRecorder("b"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := c.NewRecorder("a"); err != nil {
		t.Fatalf("second key: %v", err)
	}
	if got := c.Sessions(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("sessions = %v", got)
	}

	var nilC *Collector
	r, err := nilC.NewRecorder("x")
	if r != nil || err != nil {
		t.Fatal("nil collector must hand out nil recorders silently")
	}
	if nilC.Sessions() != nil {
		t.Fatal("nil collector sessions")
	}
	if err := nilC.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorTraceOrderIndependent(t *testing.T) {
	// Two collectors, registration and recording in opposite orders, same
	// per-session content — traces must be byte-identical.
	build := func(order []string) string {
		c := NewCollector()
		recs := make(map[string]*Recorder)
		for _, k := range order {
			r, err := c.NewRecorder(k)
			if err != nil {
				t.Fatal(err)
			}
			recs[k] = r
		}
		for _, k := range order {
			recs[k].Record(time.Second, Event{Kind: KindTransition, From: "IDLE", To: "DCH"})
			recs[k].Record(2*time.Second, Event{Kind: KindXferEnd, URL: k + ".html", Bytes: 10})
		}
		var buf bytes.Buffer
		if err := c.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]string{"p1", "p2", "p3"})
	b := build([]string{"p3", "p1", "p2"})
	if a != b {
		t.Fatalf("trace depends on registration order:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d lines", len(lines))
	}
	var first Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Session != "p1" || first.Kind != KindTransition {
		t.Fatalf("first line %+v", first)
	}
}

func TestCollectorMetrics(t *testing.T) {
	c := NewCollector()
	r1, _ := c.NewRecorder("s1")
	r2, _ := c.NewRecorder("s2")
	r1.Record(time.Second, Event{Kind: KindXferStart})
	r1.ObserveDur("xfer_ns", 2*time.Millisecond)
	r2.Record(time.Second, Event{Kind: KindXferStart})
	r2.Record(2*time.Second, Event{Kind: KindXferEnd})
	r2.ObserveDur("xfer_ns", 3*time.Millisecond)

	m := c.Snapshot()
	if m.Sessions != 2 || m.Events != 3 {
		t.Fatalf("sessions=%d events=%d", m.Sessions, m.Events)
	}
	if m.Counters["events."+KindXferStart] != 2 || m.Counters["events."+KindXferEnd] != 1 {
		t.Fatalf("aggregate counters: %v", m.Counters)
	}
	if m.Histograms["xfer_ns"].Count != 2 {
		t.Fatalf("aggregate histogram: %+v", m.Histograms["xfer_ns"])
	}
	if m.PerSession["s1"].Counters["events."+KindXferStart] != 1 {
		t.Fatalf("per-session counters: %+v", m.PerSession["s1"])
	}

	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Metrics
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if decoded.Events != 3 {
		t.Fatalf("round-trip events = %d", decoded.Events)
	}

	var buf2 bytes.Buffer
	if err := c.WriteMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("metrics serialization not stable")
	}
}

func TestDefaultCollectorLifecycle(t *testing.T) {
	Disable()
	if Default() != nil {
		t.Fatal("Default after Disable")
	}
	c := Enable()
	defer Disable()
	if Default() != c {
		t.Fatal("Default != Enable result")
	}
	r, err := Default().NewRecorder("k")
	if err != nil || r == nil {
		t.Fatalf("recorder via default: %v", err)
	}
	Disable()
	if Default() != nil {
		t.Fatal("Disable did not clear")
	}
}

func TestRound6(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{1.23456789, 1.234568},
		{-1.23456749, -1.234567},
		{0, 0},
		{2.0000004, 2.0},
	}
	for _, tc := range cases {
		if got := Round6(tc.in); got != tc.want {
			t.Fatalf("Round6(%v) = %v want %v", tc.in, got, tc.want)
		}
	}
}
