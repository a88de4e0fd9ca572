// Package capacity implements the network-capacity model of Section 5.4: an
// M/G/N/N (Erlang-loss) discrete-event simulation of the backbone's
// dedicated-channel pool. Each browsing user generates data sessions with
// exponentially distributed intervals; a session needs a dedicated channel
// pair for exactly its data-transmission time; when all N pairs are busy the
// session is dropped. Shorter transmissions (the energy-aware pipeline's
// grouped transfers) hold channels for less time, so the same pool supports
// more users at equal dropping probability (Fig. 11).
package capacity

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"time"
)

// Config parameterizes the queueing model (Section 5.4's values).
type Config struct {
	// Channels is N, the number of dedicated channel pairs (paper: 200).
	Channels int
	// MeanSessionInterval is the per-user Poisson inter-session time
	// (paper: λ = 25 s).
	MeanSessionInterval time.Duration
	// Duration is the simulated busy period (paper: 4 hours).
	Duration time.Duration
	// Seed drives the arrival and service sampling.
	Seed int64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Channels:            200,
		MeanSessionInterval: 25 * time.Second,
		Duration:            4 * time.Hour,
		Seed:                42,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return errors.New("capacity: need at least one channel")
	case c.MeanSessionInterval <= 0:
		return errors.New("capacity: session interval must be positive")
	case c.Duration <= 0:
		return errors.New("capacity: duration must be positive")
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	Users       int
	Offered     int
	Dropped     int
	MaxBusy     int
	DropPercent float64
}

// Simulate runs the Erlang-loss system with the given number of users, each
// generating sessions whose service times are drawn from the empirical
// serviceTimes distribution (seconds) — in the paper, the measured per-page
// data-transmission times of the pipeline under test.
func Simulate(users int, serviceTimes []float64, cfg Config) (Result, error) {
	if err := checkRun(users, cfg); err != nil {
		return Result{}, err
	}
	smp, err := newUniformSampler(serviceTimes)
	if err != nil {
		return Result{}, err
	}
	return simulate(users, smp, cfg), nil
}

// Sweep runs Simulate for each user count and returns the results in order.
func Sweep(userCounts []int, serviceTimes []float64, cfg Config) ([]Result, error) {
	out := make([]Result, 0, len(userCounts))
	for _, u := range userCounts {
		r, err := Simulate(u, serviceTimes, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// SupportedUsers returns the capacity boundary at maxDropPercent: a user
// population whose session-dropping probability stays at or below the target
// while one more user's exceeds it (or 1 when one user already exceeds it),
// found by supportedUsers' doubling and bisection. One seeded run's drop% is
// not monotone in users, so this is the boundary that search path meets, not
// necessarily the largest passing population.
func SupportedUsers(serviceTimes []float64, maxDropPercent float64, cfg Config) (int, error) {
	if err := checkTarget(maxDropPercent, cfg); err != nil {
		return 0, err
	}
	smp, err := newUniformSampler(serviceTimes)
	if err != nil {
		return 0, err
	}
	return supportedUsers(smp, maxDropPercent, cfg)
}

// checkRun validates the inputs every simulation shares.
func checkRun(users int, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if users <= 0 {
		return errors.New("capacity: need at least one user")
	}
	return nil
}

// checkTarget validates the inputs every capacity search shares.
func checkTarget(maxDropPercent float64, cfg Config) error {
	if maxDropPercent <= 0 || maxDropPercent >= 100 {
		return fmt.Errorf("capacity: drop target %v%% out of (0,100)", maxDropPercent)
	}
	return cfg.Validate()
}

// serviceSampler draws one service time (seconds) per accepted session.
type serviceSampler interface {
	draw(rng *rand.Rand) float64
}

// uniformSampler draws each observed service time with equal probability, by
// index. Fig. 11's golden output pins this exact draw (one Intn per accepted
// session), so it is not folded into the weighted distSampler, whose Int63n
// consumes the rng differently.
type uniformSampler []float64

func newUniformSampler(serviceTimes []float64) (uniformSampler, error) {
	if len(serviceTimes) == 0 {
		return nil, errors.New("capacity: empty service-time distribution")
	}
	for _, s := range serviceTimes {
		if s <= 0 {
			return nil, fmt.Errorf("capacity: non-positive service time %v", s)
		}
	}
	return uniformSampler(serviceTimes), nil
}

func (s uniformSampler) draw(rng *rand.Rand) float64 { return s[rng.Intn(len(s))] }

// event is one entry of simulate's event queue: an arrival or departure at
// simulated time at, ordered by (at, seq) exactly as simtime.Clock orders its
// queue, so the loop replays the event sequence of the closure-per-arrival
// formulation kept as the test oracle.
type event struct {
	at  time.Duration
	seq uint64
	dep bool
}

// eventHeap is a min-heap of events by (at, seq): the calendar's overflow
// store for events beyond its ring. It is hand-rolled (as simtime's is) so
// push/pop touch only the preallocated backing slice and a run allocates
// nothing per event.
type eventHeap []event

func (h eventHeap) less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].seq < h[b].seq
}

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < len(q) && q.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < len(q) && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// calNode is one event held in the calendar's ring, linked into its bucket.
type calNode struct {
	at   time.Duration
	seq  uint64
	next int32 // next node in the bucket or on the free list; 0 ends the list
	dep  bool
}

// calendar is simulate's event queue: a monotone calendar queue (R. Brown,
// "Calendar queues", CACM 1988). Time is cut into buckets of 2^shift ns, and
// a ring of mask+1 buckets holds every event of the window that starts at the
// current bucket cur; events at or beyond the window's end wait in overflow
// and move into the ring as cur advances. Every event is scheduled at or
// after the last one popped, so the current bucket's minimum (at, seq) is the
// queue's minimum, and pop returns exactly the sequence a heap would.
type calendar struct {
	nodes    []calNode // nodes[0] is the nil sentinel
	free     int32     // head of the free-node list
	heads    []int32   // first node of each bucket, 0 when empty
	shift    uint
	mask     int64
	cur      int64 // absolute index (at >> shift) of the current bucket
	inRing   int
	overflow eventHeap
}

// newCalendar sizes the queue for a run of users on cfg. Each user always has
// exactly one pending arrival and at most Channels departures are in flight,
// so users+Channels nodes (and as much overflow) never run out, and a run
// allocates nothing after this. A bucket is the power of two in ns at or
// below 4·λ/users, two to four mean arrival gaps wide, and the ring is the
// power-of-two bucket count spanning at least 8λ, so only the e^-8 (0.03%)
// of arrivals drawn that far ahead and departures longer than 8λ overflow.
func newCalendar(users int, cfg Config) calendar {
	n := users + cfg.Channels
	q := calendar{
		nodes:    make([]calNode, n+1),
		free:     1,
		shift:    uint(bits.Len64(uint64(cfg.MeanSessionInterval)/uint64(users))) + 1,
		overflow: make(eventHeap, 0, n),
	}
	for i := 1; i < n; i++ {
		q.nodes[i].next = int32(i + 1)
	}
	span := math.Ldexp(8*float64(cfg.MeanSessionInterval), -int(q.shift))
	buckets := 1
	for float64(buckets) < span {
		buckets <<= 1
	}
	q.heads = make([]int32, buckets)
	q.mask = int64(buckets - 1)
	return q
}

// push schedules e; e.at must not precede the last event popped.
func (q *calendar) push(e event) {
	b := int64(e.at) >> q.shift
	if b-q.cur > q.mask {
		q.overflow.push(e)
		return
	}
	i := q.free
	n := &q.nodes[i]
	q.free = n.next
	head := &q.heads[b&q.mask]
	*n = calNode{at: e.at, seq: e.seq, next: *head, dep: e.dep}
	*head = i
	q.inRing++
}

// pop removes and returns the earliest event by (at, seq). The queue must not
// be empty; simulate's never is, since every user always has an arrival
// pending.
func (q *calendar) pop() event {
	for q.heads[q.cur&q.mask] == 0 {
		if q.inRing == 0 {
			q.cur = int64(q.overflow[0].at) >> q.shift
		} else {
			q.cur++
		}
		for len(q.overflow) > 0 && int64(q.overflow[0].at)>>q.shift-q.cur <= q.mask {
			q.push(q.overflow.pop())
		}
	}
	best := &q.heads[q.cur&q.mask]
	for link := &q.nodes[*best].next; *link != 0; link = &q.nodes[*link].next {
		n, b := &q.nodes[*link], &q.nodes[*best]
		if n.at < b.at || n.at == b.at && n.seq < b.seq {
			best = link
		}
	}
	i := *best
	n := &q.nodes[i]
	*best = n.next
	n.next = q.free
	q.free = i
	q.inRing--
	return event{at: n.at, seq: n.seq, dep: n.dep}
}

// simulate is the one Erlang-loss event loop behind Simulate and
// SimulateDist; inputs are already validated. Its rng draw order is a
// contract: a service draw then a next-arrival draw on accepted arrivals, a
// next-arrival draw alone on drops, with simtime's (at, seq) tie order and
// deadline-inclusive cutoff.
func simulate[S serviceSampler](users int, smp S, cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{Users: users}
	busy := 0

	q := newCalendar(users, cfg)
	var seq uint64
	schedule := func(now, d time.Duration, dep bool) {
		if d < 0 {
			d = 0 // simtime.After clamps the same way
		}
		q.push(event{at: now + d, seq: seq, dep: dep})
		seq++
	}
	interval := float64(cfg.MeanSessionInterval)
	for u := 0; u < users; u++ {
		schedule(0, time.Duration(rng.ExpFloat64()*interval), false)
	}
	for {
		ev := q.pop()
		if ev.at > cfg.Duration {
			break
		}
		if ev.dep {
			busy--
			continue
		}
		res.Offered++
		if busy >= cfg.Channels {
			res.Dropped++
		} else {
			busy++
			if busy > res.MaxBusy {
				res.MaxBusy = busy
			}
			schedule(ev.at, time.Duration(smp.draw(rng)*float64(time.Second)), true)
		}
		schedule(ev.at, time.Duration(rng.ExpFloat64()*interval), false)
	}

	if res.Offered > 0 {
		res.DropPercent = float64(res.Dropped) / float64(res.Offered) * 100
	}
	return res
}

// supportedUsers is the one capacity search behind SupportedUsers and
// SupportedUsersDist: double the population until the drop target is
// exceeded, then bisect between the last passing and first failing sizes.
// It returns a population that passes next to one that fails (1 if even one
// user fails). Drop% is not monotone in users (a run's arrival draws shift
// with the population), so a larger population may also pass, beyond a
// failing one the search skipped; the answer is the boundary on this search's
// path. Inputs are already validated.
func supportedUsers[S serviceSampler](smp S, maxDropPercent float64, cfg Config) (int, error) {
	lo, hi := 1, 1
	for simulate(hi, smp, cfg).DropPercent <= maxDropPercent {
		lo = hi
		hi *= 2
		if hi > 1<<20 {
			return 0, errors.New("capacity: target never exceeded (degenerate service times)")
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if simulate(mid, smp, cfg).DropPercent > maxDropPercent {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, nil
}
