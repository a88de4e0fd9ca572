package rrc

import (
	"math"
	"testing"
	"time"

	"eabrowse/internal/simtime"
)

// maxContractOps bounds one fuzz input's op sequence.
const maxContractOps = 200

// FuzzRadioContract decodes its input into a bounded op sequence and drives
// every registered profile through it, checking the RadioModel contract
// after each op: EnergyJ never decreases between resets, EnergyVec sums to
// it, per-state residency sums to the time since the last reset, the state
// stays in range, BeginTransfer fails exactly outside the active state, and
// every ready callback runs exactly once unless a reset dropped it.
//
// It does not check that an armed NextDemotion deadline is never in the
// past: lte and nr violate that today, because simtime.Timer keeps a stale,
// later heap entry when a timer is re-armed to an earlier deadline. That
// check belongs with the fix to the timer.
func FuzzRadioContract(f *testing.F) {
	f.Add([]byte{0, 5, 40, 1, 5, 10, 2, 5, 60, 5, 200})
	f.Add([]byte{0, 0, 5, 30, 1, 1, 5, 9, 2, 2, 5, 70, 3, 5, 20, 4, 0, 5, 3, 5, 250, 6, 0, 5, 50})
	f.Add([]byte{0, 5, 45, 1, 4, 2, 5, 64, 3, 4, 0, 0, 5, 255, 6, 4, 0, 5, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, name := range Profiles() {
			spec, err := ProfileSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			clock := simtime.NewClock()
			m, err := spec.New(clock)
			if err != nil {
				t.Fatal(err)
			}
			runContract(t, name, clock, m, ops)
		}
	})
}

func runContract(t *testing.T, name string, clock *simtime.Clock, m RadioModel, ops []byte) {
	active := m.Tail().Active.State
	// runs[i] counts the calls of the i-th ready callback; dropped[i] marks
	// one a reset discarded before it ran.
	var runs []int
	var dropped []bool
	last := 0.0
	check := func(i int, op byte) {
		s := m.State()
		if s < 1 || int(s) >= m.NumStates() {
			t.Fatalf("%s op %d (%d): state %d out of range", name, i, op, s)
		}
		e := m.EnergyJ()
		if e < last {
			t.Fatalf("%s op %d (%d): EnergyJ fell %v -> %v", name, i, op, last, e)
		}
		last = e
		sum := 0.0
		for _, v := range m.EnergyVec() {
			sum += v
		}
		if math.Abs(sum-e) > 1e-9*e {
			t.Fatalf("%s op %d (%d): EnergyVec sums to %v, EnergyJ %v", name, i, op, sum, e)
		}
		var in time.Duration
		for s := State(1); int(s) < m.NumStates(); s++ {
			in += m.TimeIn(s)
		}
		if in != clock.Now() {
			t.Fatalf("%s op %d (%d): residency sums to %v, %v since reset", name, i, op, in, clock.Now())
		}
	}
	for i := 0; i < len(ops) && i < maxContractOps; i++ {
		op := ops[i] % 7
		switch op {
		case 0:
			id := len(runs)
			runs = append(runs, 0)
			dropped = append(dropped, false)
			m.RequestActive(func() {
				if runs[id]++; runs[id] > 1 {
					t.Fatalf("%s: ready callback %d ran twice", name, id)
				}
			})
		case 1:
			wasActive := m.State() == active
			if err := m.BeginTransfer(); (err == nil) != wasActive {
				t.Fatalf("%s op %d: BeginTransfer in %s returned %v", name, i, m.StateName(m.State()), err)
			}
		case 2:
			ok := m.State() == active && m.Transferring()
			if err := m.EndTransfer(); (err == nil) != ok {
				t.Fatalf("%s op %d: EndTransfer in %s returned %v", name, i, m.StateName(m.State()), err)
			}
		case 3:
			m.TouchShared()
		case 4:
			_ = m.ForceIdle()
		case 5:
			var b byte
			if i+1 < len(ops) {
				i++
				b = ops[i]
			}
			clock.RunFor(time.Duration(b) * time.Duration(b) * time.Millisecond)
		case 6:
			clock.Reset()
			m.Reset()
			for id, n := range runs {
				if n == 0 {
					dropped[id] = true
				}
			}
			last = 0
		}
		check(i, op)
	}
	clock.Run()
	check(len(ops), 0)
	for id, n := range runs {
		if n != 1 && !dropped[id] {
			t.Fatalf("%s: ready callback %d ran %d times", name, id, n)
		}
	}
}
