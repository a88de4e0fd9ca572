package obs

import (
	"sort"
	"time"
)

// NumEnergyStates is the fixed width of an EnergyVec. It must be at least as
// large as the radio model's state count (the browser layer asserts this at
// compile time); unused slots carry an empty name and stay zero.
const NumEnergyStates = 8

// EnergyVec is a cumulative radio-energy snapshot, one slot per RRC state.
// Fixed-size so ledger marks hold it by value: taking a snapshot allocates
// nothing, which keeps Mark off the per-visit allocation budget.
type EnergyVec [NumEnergyStates]float64

// StateNames labels the slots of an EnergyVec. Slots with an empty name are
// unused and must stay zero in every snapshot.
type StateNames [NumEnergyStates]string

// sortedIdx returns the used slot indices ordered by state name. Phase totals
// are accumulated in this order so the floating-point sums match the older
// map-based ledger, which iterated its keys sorted.
func (n *StateNames) sortedIdx() []int {
	idx := make([]int, 0, NumEnergyStates)
	for i, name := range n {
		if name != "" {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return n[idx[a]] < n[idx[b]] })
	return idx
}

// EnergyProbe samples the instrumented device's cumulative energy: radio
// joules split by RRC state, plus total CPU joules. The browser engine
// supplies one backed by its radio's rrc.RadioModel.EnergyVec (any backend)
// and the CPU model.
type EnergyProbe func() (radioByStateJ EnergyVec, cpuJ float64)

// PhaseEnergy is one closed phase of a load: the energy spent between two
// ledger marks, attributed to RRC states and the CPU.
type PhaseEnergy struct {
	// Phase names the interval (transmission, layout, tail, reading...).
	Phase string `json:"phase"`
	// StartNS and EndNS bound the phase in simulated time.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// RadioByStateJ is the radio energy spent per RRC state during the phase.
	RadioByStateJ map[string]float64 `json:"radio_by_state_j"`
	// CPUJ is the compute energy spent during the phase.
	CPUJ float64 `json:"cpu_j"`
	// TotalJ is the phase's radio+CPU energy.
	TotalJ float64 `json:"total_j"`
}

// ledgerMark is one raw probe snapshot; deltas between consecutive marks
// become PhaseEnergy entries, so per-phase joules telescope exactly to the
// device totals. The snapshot is held by value: appending a mark to a ledger
// whose marks slice has capacity allocates nothing.
type ledgerMark struct {
	phase  string
	at     time.Duration
	radioJ EnergyVec
	cpuJ   float64
}

// Ledger attributes a load's energy to named phases. The engine marks phase
// boundaries (transmission start, layout start, tail start) and Close seals
// the last phase; Phases() then reports the per-phase, per-state breakdown.
// A nil Ledger is inert, like a nil Recorder.
type Ledger struct {
	probe  EnergyProbe
	names  *StateNames
	marks  []ledgerMark
	closed bool
}

// NewLedger builds a ledger over the given probe; names labels the probe's
// vector slots and must outlive the ledger.
func NewLedger(probe EnergyProbe, names *StateNames) *Ledger {
	// A load marks transmission, layout, tail and the closing seal; capacity
	// for eight keeps every normal load free of mark-slice growth.
	return &Ledger{probe: probe, names: names, marks: make([]ledgerMark, 0, 8)}
}

// Reopen resets a sealed ledger for a new load, keeping the probe, the name
// table and the marks slice's backing array. The previous load's phases are
// discarded, so callers must have consumed (or emitted) them first.
func (l *Ledger) Reopen() {
	if l == nil {
		return
	}
	l.marks = l.marks[:0]
	l.closed = false
}

// Mark opens a phase named phase at simulated time at, snapshotting the
// device's cumulative energy. The previous phase (if any) ends here.
func (l *Ledger) Mark(phase string, at time.Duration) {
	if l == nil || l.closed {
		return
	}
	radio, cpu := l.probe()
	l.marks = append(l.marks, ledgerMark{phase: phase, at: at, radioJ: radio, cpuJ: cpu})
}

// Close seals the ledger at simulated time at, ending the open phase. Further
// marks are ignored.
func (l *Ledger) Close(at time.Duration) {
	if l == nil || l.closed {
		return
	}
	l.Mark("", at)
	l.closed = true
}

// Closed reports whether Close has been called.
func (l *Ledger) Closed() bool {
	return l != nil && l.closed
}

// Phases returns the closed phases in chronological order. Values are
// rounded to a microjoule for stable serialization; TotalJ() remains exact.
func (l *Ledger) Phases() []PhaseEnergy {
	if l == nil || len(l.marks) < 2 {
		return nil
	}
	order := l.names.sortedIdx()
	out := make([]PhaseEnergy, 0, len(l.marks)-1)
	for i := 0; i+1 < len(l.marks); i++ {
		a, b := l.marks[i], l.marks[i+1]
		pe := PhaseEnergy{
			Phase:         a.phase,
			StartNS:       int64(a.at),
			EndNS:         int64(b.at),
			RadioByStateJ: make(map[string]float64),
			CPUJ:          Round6(b.cpuJ - a.cpuJ),
			TotalJ:        Round6(deltaJ(a, b, order)),
		}
		for _, st := range order {
			if d := b.radioJ[st] - a.radioJ[st]; d != 0 {
				pe.RadioByStateJ[l.names[st]] = Round6(d)
			}
		}
		out = append(out, pe)
	}
	return out
}

// TotalJ is the exact (unrounded) energy covered by the ledger: last
// snapshot minus first. Because phases are deltas between the same
// snapshots, the per-phase totals telescope to this value.
func (l *Ledger) TotalJ() float64 {
	if l == nil || len(l.marks) < 2 {
		return 0
	}
	return deltaJ(l.marks[0], l.marks[len(l.marks)-1], l.names.sortedIdx())
}

// deltaJ is the exact radio+CPU energy spent between marks a and b: the CPU
// delta first, then each state's radio delta in order.
func deltaJ(a, b ledgerMark, order []int) float64 {
	total := b.cpuJ - a.cpuJ
	for _, st := range order {
		total += b.radioJ[st] - a.radioJ[st]
	}
	return total
}

// StartNS and EndNS bound the ledger in simulated time (0,0 when empty).
func (l *Ledger) StartNS() int64 {
	if l == nil || len(l.marks) == 0 {
		return 0
	}
	return int64(l.marks[0].at)
}

// EndNS is the simulated time of the last mark.
func (l *Ledger) EndNS() int64 {
	if l == nil || len(l.marks) == 0 {
		return 0
	}
	return int64(l.marks[len(l.marks)-1].at)
}

// PhaseTotalJ returns the exact (unrounded) total of the first phase named
// phase, summed in the order Phases() sums it (0 if absent or still open).
func (l *Ledger) PhaseTotalJ(phase string) float64 {
	if l == nil {
		return 0
	}
	for i := 0; i+1 < len(l.marks); i++ {
		if l.marks[i].phase == phase {
			return deltaJ(l.marks[i], l.marks[i+1], l.names.sortedIdx())
		}
	}
	return 0
}

// EmitPhases records one phase-energy event per closed phase onto r. The
// events are retrospective summaries, so all of them are stamped at the
// ledger's close time — keeping the session's event stream monotone in
// simulated time — with each phase's own extent carried in DurNS.
func (l *Ledger) EmitPhases(r *Recorder) {
	if l == nil || r == nil {
		return
	}
	at := time.Duration(l.EndNS())
	for _, p := range l.Phases() {
		r.Record(at, Event{
			Kind:   KindPhaseEnergy,
			Detail: p.Phase,
			DurNS:  p.EndNS - p.StartNS,
			Joules: p.TotalJ,
		})
	}
}
