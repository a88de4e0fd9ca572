package experiments

import (
	"fmt"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/policy"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

// Counted-multiplicity replay.
//
// In the templated engine every visit still walks the radio cursor through
// its reading window per visit. But for the static policy the whole visit —
// load energy, reading-window walk, prediction count, switch decision, and
// the session-break drain — is a piecewise-linear function of the reading
// time r alone, given the visit's template: the cursor starts the window in
// the template's end state, decays stage by stage at fixed boundaries, and
// every stage charges a constant power. So instead of walking each visit,
// the folded engine classifies it into a (template, reading-bucket,
// break-bit) cell, counts n and Σr per cell, and settles each touched cell
// once per shard: energy = n·constJ + slopeW·Σr.
//
// The only visits that escape the fold are delayed-release loads: when a
// forced release is still in flight at the next load, the load is shifted by
// the remaining release time δ, which stretches the observed transmission
// time (a predictor feature) and so makes the visit's outcome depend on the
// previous visit's reading time. Those visits replay individually through
// the same arithmetic as the per-visit engine. Everything stays exact up to
// floating-point association — the equivalence is pinned by tests against
// the per-visit engine.

// foldCell is one settled path through a visit: energy constJ + slopeW·r
// (reading seconds), the cursor stage the visit leaves behind, and what it
// counts. Cells with brk folded in include the session-break drain.
type foldCell struct {
	constJ   float64
	slopeW   float64
	endStage int
	// endRel marks the engaged-switch short-window cell without a break: the
	// cursor ends mid-release and the NEXT load is a delayed (exceptional)
	// one with δ = (alpha + ReleaseDelay) − r.
	endRel bool
	pred   bool
	swc    bool
}

// foldPlan is a template's precomputed fold: walk boundaries for bucket
// classification plus the cell table. Cell layout (b = 0 no-break, 1 break):
//
//	walk cells   [2k+b]            k = 0..K   — original visits; aware r ≤ α
//	hold cells   [holdOff+2k+b]    k = 0..K   — aware r > α, no forced release
//	switch cells [swOff+2j+b]      j = 0, 1   — aware r > α, engaged release
//
// where K+1 is the number of walk buckets (bucket k covers r ∈ [c_{k-1},
// c_k), the last bucket is the terminal stage) and the two switch buckets
// split at w = ReleaseDelay. Aware templates whose decision is Switch but
// whose cursor is already terminal after the α wait ("not engaged") release
// as a no-op, so they use the hold cells with the switch counted.
type foldPlan struct {
	aware   bool
	bounds  []time.Duration // c_0..c_{K-1}, cumulative stage boundaries
	cells   []foldCell
	holdOff int
	swOff   int           // -1 when the template never releases while engaged
	swBound time.Duration // alpha + ReleaseDelay, the switch-bucket split
}

// bucket classifies a reading window against the walk boundaries, mirroring
// phoneCursor.advance exactly: a window reaching a boundary crosses it
// (d ≥ rem advances the stage), and a zero window leaves the cursor alone.
func (p *foldPlan) bucket(r time.Duration) int {
	if r == 0 {
		return 0
	}
	k := 0
	for k < len(p.bounds) && p.bounds[k] <= r {
		k++
	}
	return k
}

// classify maps one visit (reading time, break-follows bit) to its cell.
// For the engaged-switch short-window cell without a break it also returns
// the release remainder the next load starts under.
func (p *foldPlan) classify(r time.Duration, brk bool, alpha time.Duration) (int, time.Duration) {
	b := 0
	if brk {
		b = 1
	}
	if !p.aware || r <= alpha {
		return 2*p.bucket(r) + b, 0
	}
	if p.swOff >= 0 {
		if r < p.swBound {
			idx := p.swOff + b
			if !brk {
				return idx, p.swBound - r
			}
			return idx, 0
		}
		return p.swOff + 2 + b, 0
	}
	return p.holdOff + 2*p.bucket(r) + b, 0
}

// buildFoldPlan derives a template's fold table from the tail profile, the
// session-break drain, and the interest threshold α. Pure function of its
// arguments, so racing builders in the template cache agree.
func buildFoldPlan(t *visitTemplate, mode browser.Mode, fr *fleetRadio, alpha time.Duration) *foldPlan {
	tp := &fr.tail
	term := tp.TerminalIndex()
	loadJ := t.radioJ + t.cpuJ
	drainS := fr.drain.Seconds()
	termW := tp.Terminal().PowerW

	// Walk geometry from the template's end state: bucket k sits in stage
	// s0+k; c_k is the cumulative time to leave it.
	s0 := t.endStage
	K := term - s0
	bounds := make([]time.Duration, K)
	powers := make([]float64, K+1)
	var cum time.Duration
	for k := 0; k < K; k++ {
		if k == 0 {
			cum = t.endRem
		} else {
			cum += tp.Stage(s0 + k).Dwell
		}
		bounds[k] = cum
		powers[k] = tp.Stage(s0 + k).PowerW
	}
	powers[K] = termW

	// Pure walk linear forms: walking r from the end state costs
	// wConst[k] + wSlope[k]·r for r in bucket k; draining afterwards costs
	// dConst[k] + dSlope[k]·r more and always ends terminal.
	wConst := make([]float64, K+1)
	wSlope := make([]float64, K+1)
	dConst := make([]float64, K+1)
	dSlope := make([]float64, K+1)
	spent := 0.0 // Σ P_j·Δ_j for stages fully traversed before bucket k
	for k := 0; k <= K; k++ {
		var prev time.Duration
		if k > 0 {
			prev = bounds[k-1]
			var width time.Duration
			if k == 1 {
				width = bounds[0]
			} else {
				width = bounds[k-1] - bounds[k-2]
			}
			spent += powers[k-1] * width.Seconds()
		}
		wConst[k] = spent - powers[k]*prev.Seconds()
		wSlope[k] = powers[k]
		if k == K {
			dConst[k] = termW * drainS
			dSlope[k] = 0
			continue
		}
		// Post-walk state: stage s0+k with c_k − r remaining. The drain
		// finishes the stage, the rest of the tail, then idles terminal.
		restJ := 0.0
		for j := k + 1; j < K; j++ {
			restJ += powers[j] * (bounds[j] - bounds[j-1]).Seconds()
		}
		ck := bounds[k].Seconds()
		restT := (bounds[K-1] - bounds[k]).Seconds()
		dConst[k] = powers[k]*ck + restJ + termW*(drainS-ck-restT)
		dSlope[k] = termW - powers[k]
	}

	p := &foldPlan{
		aware:  mode == browser.ModeEnergyAware,
		bounds: bounds,
		swOff:  -1,
	}
	walkEnd := func(k int) int { return s0 + k } // stage after bucket k's walk
	addWalkPair := func(pred, swc bool) {
		for k := 0; k <= K; k++ {
			p.cells = append(p.cells,
				foldCell{constJ: loadJ + wConst[k], slopeW: wSlope[k],
					endStage: walkEnd(k), pred: pred, swc: swc},
				foldCell{constJ: loadJ + wConst[k] + dConst[k], slopeW: wSlope[k] + dSlope[k],
					endStage: term, pred: pred, swc: swc})
		}
	}
	addWalkPair(false, false)
	if !p.aware {
		return p
	}

	p.holdOff = len(p.cells)
	if !t.switchOn {
		addWalkPair(true, false)
		return p
	}
	// Switch templates: after the α wait the cursor is in bucket(α); if that
	// is already terminal the forced release is a free no-op and the visit
	// walks like a hold (switch still counted). Otherwise the release lump
	// is charged and the window walks the releasing stage.
	ka := p.bucket(alpha)
	if walkEnd(ka) == term {
		addWalkPair(true, true)
		return p
	}
	preJ := wConst[ka] + wSlope[ka]*alpha.Seconds() + tp.ReleaseLumpJ
	relW := tp.ReleasePowerW
	alphaS := alpha.Seconds()
	p.swBound = alpha + tp.ReleaseDelay
	swBoundS := p.swBound.Seconds()
	p.swOff = len(p.cells)
	// Short window (w < ReleaseDelay): the window ends mid-release.
	p.cells = append(p.cells,
		foldCell{constJ: loadJ + preJ - relW*alphaS, slopeW: relW,
			endStage: term, endRel: true, pred: true, swc: true},
		// With a break the drain finishes the release then idles: the
		// remainder (swBound − r) burns at release power, the rest terminal.
		foldCell{constJ: loadJ + preJ - relW*alphaS + relW*swBoundS + termW*(drainS-swBoundS),
			slopeW:   relW + (termW - relW),
			endStage: term, pred: true, swc: true})
	// Long window (w ≥ ReleaseDelay): release completes, terminal after.
	longConst := loadJ + preJ + relW*tp.ReleaseDelay.Seconds() - termW*swBoundS
	p.cells = append(p.cells,
		foldCell{constJ: longConst, slopeW: termW, endStage: term, pred: true, swc: true},
		foldCell{constJ: longConst + termW*drainS, slopeW: termW, endStage: term, pred: true, swc: true})
	return p
}

// tmplAgg is one shard's per-template fold accumulator: visit count and
// reading-time sum per cell, in the template's cell layout.
type tmplAgg struct {
	t    *visitTemplate
	n    []int64
	sumR []float64
}

// foldState is a shard's fold accumulators, in template first-use order.
// Shards replay their users sequentially, so the order — and therefore the
// settle order and its floating-point association — is a pure function of
// the shard, independent of worker or process count. slot maps a template
// id to 1 + its accumulator's index (0: not touched yet by this shard); it
// spans the runtime's whole template table.
type foldState struct {
	slot []int32
	aggs []tmplAgg
}

func (fs *foldState) agg(t *visitTemplate) *tmplAgg {
	if i := fs.slot[t.id]; i > 0 {
		return &fs.aggs[i-1]
	}
	fs.aggs = append(fs.aggs, tmplAgg{
		t:    t,
		n:    make([]int64, len(t.fold.cells)),
		sumR: make([]float64, len(t.fold.cells)),
	})
	fs.slot[t.id] = int32(len(fs.aggs))
	return &fs.aggs[len(fs.aggs)-1]
}

// replayUserFolded is replayUserTemplated with the per-visit cursor walks
// replaced by cell counting. Only delayed-release loads (awareRel > 0) fall
// back to per-visit arithmetic.
func (rt *fleetRuntime) replayUserFolded(u int, visits []trace.Visit, fs *foldState, shard *FleetShardResult) error {
	if len(visits) == 0 {
		return nil
	}
	fr := rt.radioFor(u)
	term := fr.tail.TerminalIndex()
	alpha := rt.params.Alpha
	origStage := term
	awareStage := term
	var awareRel time.Duration
	var chT time.Duration
	session := visits[0].Session
	for i := range visits {
		v := &visits[i]
		if v.Session != session {
			// The previous visit's break cell already drained both cursors.
			session = v.Session
			chT += fr.drain
		}
		reading := time.Duration(v.ReadingSeconds * float64(time.Second))
		rs := reading.Seconds()
		brk := i+1 < len(visits) && visits[i+1].Session != v.Session
		seg := -1
		if rt.sched != nil {
			seg = rt.sched.SegmentIndexAt(chT)
		}

		// Original pipeline: never releases, so every visit folds.
		ot, err := rt.template(tmplKey{page: int(v.Pool), mode: browser.ModeOriginal,
			radio: fr.idx, start: origStage, seg: seg})
		if err != nil {
			return err
		}
		ci, _ := ot.fold.classify(reading, brk, alpha)
		oa := fs.agg(ot)
		oa.n[ci]++
		oa.sumR[ci] += rs
		origStage = ot.fold.cells[ci].endStage
		observeVisitJ(shard.OrigVisitJ, ot, ci, rs, 0)

		// Energy-aware pipeline.
		if awareRel > 0 {
			awareStage, awareRel, err = rt.replayExceptional(fr, int(v.Pool), awareRel, reading, brk, seg, shard)
			if err != nil {
				return err
			}
		} else {
			at, err := rt.template(tmplKey{page: int(v.Pool), mode: browser.ModeEnergyAware,
				radio: fr.idx, start: awareStage, seg: seg})
			if err != nil {
				return err
			}
			ci, rel := at.fold.classify(reading, brk, alpha)
			aa := fs.agg(at)
			aa.n[ci]++
			aa.sumR[ci] += rs
			awareStage = at.fold.cells[ci].endStage
			awareRel = rel
			observeVisitJ(shard.AwareVisitJ, at, ci, rs, rt.predVisitJ)
		}

		chT += time.Duration(ot.loadS*float64(time.Second)) + reading
		shard.Visits++
	}
	return nil
}

// observeVisitJ files one folded visit's energy into the per-visit sketch.
// The drain-exclusive definition means the break bit never participates:
// cells come in (no-break, break) pairs, so ci&^1 is always the visit's own
// load + reading-window linear form without the appended session drain. The
// prediction cost joins here per visit (it is not in any cell's constJ).
func observeVisitJ(sk *stats.Sketch, t *visitTemplate, ci int, rs, predVisitJ float64) {
	c := &t.fold.cells[ci&^1]
	e := c.constJ + c.slopeW*rs
	if c.pred {
		e += predVisitJ
	}
	sk.Observe(e, 1)
}

// replayExceptional replays one delayed-release energy-aware visit of pool
// page page per-visit: the pending release (remainder delta) stretches the
// load, the stretched transmission time re-enters the predictor (through the
// template's delayed-load step table), and the cursor walks the window for
// real. Mirrors replayUserTemplated's aware branch exactly. Returns the
// stage (or release remainder) the next load starts from.
func (rt *fleetRuntime) replayExceptional(fr *fleetRadio, page int, delta, reading time.Duration,
	brk bool, seg int, shard *FleetShardResult) (int, time.Duration, error) {

	tp := &fr.tail
	t, err := rt.template(tmplKey{page: page, mode: browser.ModeEnergyAware,
		radio: fr.idx, start: tp.TerminalIndex(), seg: seg})
	if err != nil {
		return 0, 0, err
	}
	e := t.radioJ + t.cpuJ + tp.ReleasePowerW*delta.Seconds()
	shard.AwareTrans.Observe(t.transS+delta.Seconds(), 1)
	pc := phoneCursor{stage: t.endStage, rem: t.endRem}
	alpha := rt.params.Alpha
	if reading <= alpha {
		e += pc.advance(reading, tp)
	} else {
		e += pc.advance(alpha, tp)
		predS, err := t.delayedPredS(delta)
		if err != nil {
			return 0, 0, err
		}
		shard.Predictions++
		shard.PredJ += rt.predVisitJ
		e += rt.predVisitJ // the per-visit engine folds predJ into awareJ per user
		window := reading - alpha
		if policy.Evaluate(time.Duration(predS*float64(time.Second)), rt.params).Switch {
			e += pc.forceIdle(tp)
			shard.Switches++
		}
		e += pc.advance(window, tp)
	}
	// The visit's own energy excludes the session-break drain appended below,
	// matching the per-visit engine's drain-exclusive observation.
	shard.AwareVisitJ.Observe(e, 1)
	if brk {
		e += pc.advance(fr.drain, tp)
	}
	shard.AwareJ += e
	if pc.stage == cursorReleasing {
		return 0, pc.rem, nil
	}
	return pc.stage, 0, nil
}

// flush settles every touched cell into the shard accumulator, in template
// first-use order, cells in layout order: energy, prediction and switch
// counts, and one bulk sketch observation per template. The prediction
// energy joins AwareJ at the end, as the per-visit engine adds it per user.
func (fs *foldState) flush(rt *fleetRuntime, shard *FleetShardResult) {
	for ai := range fs.aggs {
		agg := &fs.aggs[ai]
		t := agg.t
		var visits int64
		var energy float64
		for ci := range agg.n {
			n := agg.n[ci]
			if n == 0 {
				continue
			}
			c := &t.fold.cells[ci]
			visits += n
			energy += float64(n)*c.constJ + c.slopeW*agg.sumR[ci]
			if c.pred {
				shard.Predictions += n
				shard.PredJ += float64(n) * rt.predVisitJ
			}
			if c.swc {
				shard.Switches += n
			}
		}
		if visits == 0 {
			continue
		}
		if t.fold.aware {
			shard.AwareJ += energy
			shard.AwareTrans.Observe(t.transS, visits)
		} else {
			shard.OrigJ += energy
			shard.OrigTrans.Observe(t.transS, visits)
		}
	}
	shard.AwareJ += sumFoldPredJ(fs, rt)
}

// sumFoldPredJ recomputes the shard's folded prediction energy so it can be
// added into AwareJ exactly once (the exceptional path already added its own
// share to PredJ and AwareJ separately).
func sumFoldPredJ(fs *foldState, rt *fleetRuntime) float64 {
	var n int64
	for ai := range fs.aggs {
		agg := &fs.aggs[ai]
		for ci := range agg.n {
			if agg.n[ci] > 0 && agg.t.fold.cells[ci].pred {
				n += agg.n[ci]
			}
		}
	}
	return float64(n) * rt.predVisitJ
}

// check asserts the plan's cell-layout invariants (tests run it over every
// template a fleet builds).
func (p *foldPlan) check() error {
	for i := 1; i < len(p.bounds); i++ {
		if p.bounds[i] < p.bounds[i-1] {
			return fmt.Errorf("fold: boundaries out of order at %d", i)
		}
	}
	want := 2 * (len(p.bounds) + 1)
	if p.aware {
		if p.swOff >= 0 {
			want = p.swOff + 4
		} else {
			want = 2 * p.holdOff
		}
	}
	if len(p.cells) != want {
		return fmt.Errorf("fold: %d cells, want %d", len(p.cells), want)
	}
	return nil
}
