// Package gbrt implements Gradient Boosted Regression Trees from scratch
// (Friedman's gradient boosting machine, the paper's Section 4.3 /
// Algorithm 1): least-squares CART regression trees with a bounded number of
// terminal nodes, grown best-first, boosted with shrinkage from a median
// base model.
//
// The paper runs prediction on the phone, so the package also provides a
// device cost model (Table 7): traversal time per tree calibrated to the
// measured 0.295 s / 0.177 J for 10,000 eight-node trees.
//
// Training uses the classic presorted-CART layout: every feature column is
// sorted once per Train call, ties broken by sample index, and the sorted
// orders are partitioned down each tree instead of re-sorted inside every
// split search. The presorted master is never written: a split partitions
// its node's range from the buffer holding it straight into the same range
// of one of two work halves, the halves alternating down the tree, so no
// tree copies the master and no partition goes through scratch. The index
// tie-break makes every downstream floating-point fold a pure function of
// the data — independent of sort internals, worker count, or iteration
// order — which is what keeps serialized models and experiment output
// byte-identical run over run.
//
// Each sorted column entry is one rank-packed word: the dense rank of the
// sample's feature value (±0 share a rank) above its sample index, so the
// words ascend in exactly the (value, index) order and the split search
// tests "equal value" by comparing neighbouring words, never reading the
// feature rows. The split search folds several columns in one pass over a
// leaf's range: each column's prefix sums are the same fold in the same
// order as a one-column scan, but the independent chains overlap.
//
// Boosting iteration m reads only the trees before it, so a model boosted
// for M trees is the first M trees of any longer run on the same data and
// config; Model.Prefix cuts a trained or loaded forest down to one, and a
// sweep over M trains once.
package gbrt

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// treeNode is one node of a regression tree, stored in a flat slice. The
// index fields are int32 (Load rejects wider values) so a node is 40 bytes:
// every model keeps its trees beside the compiled forest for Save and
// FeatureImportance.
type treeNode struct {
	threshold float64
	value     float64
	// gain is the SSE reduction this split achieved at fit time (zero for
	// leaves); it drives feature-importance accounting.
	gain    float64
	feature int32
	left    int32
	right   int32
	leaf    bool
}

// Tree is a binary regression tree.
type Tree struct {
	nodes []treeNode
}

// Leaves returns the number of terminal nodes.
func (t *Tree) Leaves() int {
	n := 0
	for _, nd := range t.nodes {
		if nd.leaf {
			n++
		}
	}
	return n
}

// Nodes returns the total node count (internal + terminal).
func (t *Tree) Nodes() int {
	return len(t.nodes)
}

// Depth returns the maximum depth of the tree (a root-only tree has depth 1).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		nd := t.nodes[i]
		if nd.leaf {
			return 1
		}
		l := walk(nd.left)
		r := walk(nd.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// trainer owns the presorted feature orders and every work buffer shared
// by the boosting iterations of one Train call. Constructing it costs one
// O(F·n log n) presort; afterwards each of the M trees is grown by
// partitioning the sorted orders down the tree, so the per-split work is the
// prefix-sum scan alone.
type trainer struct {
	xs      [][]float64
	n       int
	minLeaf int
	// feats lists the features worth scanning, ascending. A feature whose
	// value is constant across the whole training set can never split, so it
	// is detected here at presort time and never sorted, scanned, or
	// partitioned.
	feats []int
	// bufs holds three buffers of one n-length column per feats entry.
	// bufs[0] is the master: the rank-packed words (see pack) of every
	// sample, ascending — sorted by (feature value, sample index). It is
	// never written after the presort. bufs[1] and bufs[2] are the work
	// halves: an applied split partitions each column of its node's range
	// stably from the node's buffer into the same range of the other half
	// (childBuf), which keeps every column sorted by (value, index) within
	// every node's range all the way down the tree.
	bufs [3][]uint64
	// mark is 1 for the left-child samples while one split is being
	// applied, 0 otherwise.
	mark []uint8
	// leaves records, after each buildTree, the sample range and fitted
	// value of every terminal node, so Train can update the boosted
	// predictions in O(n) without walking the tree per sample.
	leaves []leafRange
	// ranges is buildTree's sample range of every node of the tree being
	// grown, indexed like its node slice.
	ranges []leafRange

	// ys is the residual target vector of the tree currently being grown.
	ys []float64
}

type leafRange struct {
	lo, hi int
	buf    uint8 // the buffer holding the range's columns
	value  float64
}

// childBuf returns the buffer a split node's children hold their columns in:
// the first half below the master, then the two halves in turn. A node's
// range of a buffer is written only by its parent's split and read only by
// the node and its descendants, so the halves never overwrite a range that
// is still to be read.
func childBuf(b uint8) uint8 {
	if b == 1 {
		return 2
	}
	return 1
}

// pack makes a column word: the dense rank of the sample's value within its
// column in the high half, the sample index in the low half. Ordering words
// is ordering (value, index); two words hold equal values exactly when their
// high halves match.
func pack(rank, sample int) uint64 { return uint64(rank)<<32 | uint64(sample) }

// sampleOf returns the sample index of a column word.
func sampleOf(w uint64) uint32 { return uint32(w) }

// sameValue reports whether two column words hold equal feature values.
func sameValue(a, b uint64) bool { return a>>32 == b>>32 }

// newTrainer presorts the feature columns of xs. minLeaf is the smallest
// admissible child size.
func newTrainer(xs [][]float64, minLeaf int) (*trainer, error) {
	n := len(xs)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("gbrt: %d samples exceed the trainer's index space", n)
	}
	tr := &trainer{
		xs:      xs,
		n:       n,
		minLeaf: minLeaf,
		mark:    make([]uint8, n),
	}
	numFeatures := len(xs[0])
	for f := 0; f < numFeatures; f++ {
		constant := true
		for i := 1; i < n; i++ {
			if xs[i][f] != xs[0][f] {
				constant = false
				break
			}
		}
		if !constant {
			tr.feats = append(tr.feats, f)
		}
	}
	for b := range tr.bufs {
		tr.bufs[b] = make([]uint64, len(tr.feats)*n)
	}
	for k, f := range tr.feats {
		col := tr.col(0, k)
		for i := range col {
			col[i] = uint64(i)
		}
		// -0 and +0 compare equal here, as in the equal-value test of the
		// split search, so they share a rank and keep index order.
		slices.SortFunc(col, func(a, b uint64) int {
			if c := cmp.Compare(xs[a][f], xs[b][f]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		rank, prev := 0, xs[col[0]][f]
		for i, idx := range col {
			if v := xs[idx][f]; v != prev {
				rank, prev = rank+1, v
			}
			col[i] = pack(rank, int(idx))
		}
	}
	return tr, nil
}

// col returns column k (the sorted sample order of feats[k]) of buffer b.
func (tr *trainer) col(b uint8, k int) []uint64 {
	return tr.bufs[b][k*tr.n : (k+1)*tr.n]
}

// splitCandidate is one open leaf's best split. It is computed exactly once,
// when the leaf is opened, and kept in a max-heap until the leaf is either
// split or the terminal-node budget runs out — the pre-refactor builder
// re-scanned every open leaf on every iteration instead.
type splitCandidate struct {
	node   int   // index into the tree's node slice
	seq    int   // leaf-opening order; breaks gain ties deterministically
	lo, hi int   // the leaf's sample range in every column
	buf    uint8 // the buffer holding the leaf's columns
	// sum and sq fold the leaf's ys (and ys²) in the order the leaf's
	// samples appear in its parent's split column (sample-index order at the
	// root) — the same fold the recursive reference performs.
	sum, sq float64

	feature   int // chosen split feature
	slot      int // column slot of feature in feats
	splitPos  int // left-child size nl
	threshold float64
	gain      float64
	// leftSum and leftSq are the prefix fold at splitPos; they become the
	// left child's sum/sq (and its fitted mean) without another pass.
	leftSum, leftSq float64
}

// candidateHeap is a max-heap by gain; equal gains pop in leaf-opening
// order, matching the first-strictly-greater scan of the open-leaf list the
// pre-refactor builder used.
type candidateHeap []*splitCandidate

func (h candidateHeap) Len() int { return len(h) }

func (h candidateHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].seq < h[j].seq
}

func (h candidateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *candidateHeap) Push(x any) {
	c, ok := x.(*splitCandidate)
	if !ok {
		return
	}
	*h = append(*h, c)
}

func (h *candidateHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}

// buildTree grows one best-first tree on the residual targets ys: at every
// step the open leaf with the largest cached SSE reduction is split, until
// the terminal-node budget maxLeaves is exhausted (Section 4.3.1: "each base
// learner is a J-terminal node decision tree").
func (tr *trainer) buildTree(ys []float64, maxLeaves int) *Tree {
	tr.ys = ys
	tr.leaves = tr.leaves[:0]
	n := tr.n

	// Root stats fold ys in sample-index order.
	var sum, sq float64
	for i := 0; i < n; i++ {
		y := ys[i]
		sum += y
		sq += y * y
	}
	nodes := make([]treeNode, 1, 2*maxLeaves-1)
	nodes[0] = treeNode{leaf: true, value: sum / float64(n)}
	ranges := append(tr.ranges[:0], leafRange{lo: 0, hi: n})

	var open candidateHeap
	root := &splitCandidate{node: 0, lo: 0, hi: n, sum: sum, sq: sq}
	if tr.findBest(root) {
		heap.Push(&open, root)
	}
	seq := 0
	leaves := 1
	for leaves < maxLeaves && open.Len() > 0 {
		c, ok := heap.Pop(&open).(*splitCandidate)
		if !ok {
			break
		}
		nl := c.splitPos
		mid := c.lo + nl
		ccol := tr.col(c.buf, c.slot)[c.lo:c.hi]

		// The right child's stats fold in the split column's sorted order —
		// the order its samples will keep in every descendant scan.
		var rightSum, rightSq float64
		for _, w := range ccol[nl:] {
			y := ys[sampleOf(w)]
			rightSum += y
			rightSq += y * y
		}

		// The split that spends the last leaf opens no candidate, so its
		// children are never scanned: only column 0, from which addTo reads
		// the leaf ranges, has to be partitioned.
		final := leaves+1 == maxLeaves
		cols := len(tr.feats)
		if final {
			cols = 1
		}
		child := childBuf(c.buf)
		tr.partition(c, child, cols)

		li := len(nodes)
		nodes = append(nodes, treeNode{leaf: true, value: c.leftSum / float64(nl)})
		ranges = append(ranges, leafRange{lo: c.lo, hi: mid, buf: child})
		ri := len(nodes)
		nodes = append(nodes, treeNode{leaf: true, value: rightSum / float64(c.hi-mid)})
		ranges = append(ranges, leafRange{lo: mid, hi: c.hi, buf: child})
		nd := &nodes[c.node]
		nd.leaf = false
		nd.feature = int32(c.feature)
		nd.threshold = c.threshold
		nd.left = int32(li)
		nd.right = int32(ri)
		nd.gain = c.gain

		left := &splitCandidate{node: li, seq: seq + 1, lo: c.lo, hi: mid, buf: child,
			sum: c.leftSum, sq: c.leftSq}
		right := &splitCandidate{node: ri, seq: seq + 2, lo: mid, hi: c.hi, buf: child,
			sum: rightSum, sq: rightSq}
		seq += 2
		leaves++
		if final {
			break
		}
		if tr.findBest(left) {
			heap.Push(&open, left)
		}
		if tr.findBest(right) {
			heap.Push(&open, right)
		}
	}

	for i := range nodes {
		if nodes[i].leaf {
			lr := ranges[i]
			lr.value = nodes[i].value
			tr.leaves = append(tr.leaves, lr)
		}
	}
	tr.ranges = ranges
	return &Tree{nodes: nodes}
}

// addTo adds shrinkage-scaled predictions of the just-built tree to current,
// using the recorded leaf ranges: every sample already sits in exactly one
// terminal range, so no per-sample tree traversal is needed. Must be called
// before the next buildTree reuses the work halves.
func (tr *trainer) addTo(current []float64, shrink float64) {
	if len(tr.feats) == 0 {
		// No splittable feature: the tree is root-only and Train stops
		// before applying it.
		return
	}
	for _, lr := range tr.leaves {
		d := shrink * lr.value
		for _, w := range tr.col(lr.buf, 0)[lr.lo:lr.hi] {
			current[sampleOf(w)] += d
		}
	}
}

// findBest computes the SSE-optimal (feature, threshold) split of the leaf
// candidate c, scanning each presorted column with prefix sums, and reports
// whether any split clears the minimum-gain floor.
//
// The columns are scanned four at a time (scan4), the rest one by one
// (scan1). Each column keeps its own first maximum; comparing those in
// ascending feature order with a strict ">" picks the split a single running
// maximum over all features in order would pick.
func (tr *trainer) findBest(c *splitCandidate) bool {
	n := c.hi - c.lo
	if n < 2*tr.minLeaf {
		return false
	}
	p := scanParent{
		ys:      tr.ys,
		n:       n,
		minLeaf: tr.minLeaf,
		sum:     c.sum,
		sq:      c.sq,
		sse:     c.sq - c.sum*c.sum/float64(n),
	}
	best := colBest{gain: minSplitGain}
	bestSlot := -1
	take := func(k int, b colBest) {
		if b.gain > best.gain {
			best, bestSlot = b, k
		}
	}
	col := func(k int) []uint64 { return tr.col(c.buf, k)[c.lo:c.hi] }
	k := 0
	for ; k+4 <= len(tr.feats); k += 4 {
		b0, b1, b2, b3 := p.scan4(col(k), col(k+1), col(k+2), col(k+3))
		take(k, b0)
		take(k+1, b1)
		take(k+2, b2)
		take(k+3, b3)
	}
	for ; k < len(tr.feats); k++ {
		take(k, p.scan1(col(k)))
	}
	if bestSlot < 0 {
		return false
	}
	f := tr.feats[bestSlot]
	split := col(bestSlot)
	lo, hi := tr.xs[sampleOf(split[best.pos])][f], tr.xs[sampleOf(split[best.pos+1])][f]
	c.threshold = (lo + hi) / 2
	if math.IsInf(c.threshold, 0) {
		// lo+hi overflowed; halving first keeps the midpoint finite without
		// moving any threshold that fits.
		c.threshold = lo/2 + hi/2
	}
	c.feature = f
	c.slot = bestSlot
	c.splitPos = best.pos + 1
	c.gain = best.gain
	c.leftSum = best.leftSum
	c.leftSq = best.leftSq
	return true
}

// minSplitGain is the SSE reduction a split must exceed to be applied.
const minSplitGain = 1e-12

// scanParent is what every column scan of one leaf shares: the residuals,
// the leaf's size, its ys fold and its SSE.
type scanParent struct {
	ys           []float64
	n, minLeaf   int
	sum, sq, sse float64
}

// colBest is one column's best boundary: the first position whose gain is
// the column's maximum, and the prefix fold through it.
type colBest struct {
	gain            float64
	pos             int // the boundary lies between pos and pos+1
	leftSum, leftSq float64
}

// consider scores the boundary between pos and pos+1, whose prefix fold
// through pos is leftSum/leftSq, and keeps it if it beats b.
func (p *scanParent) consider(b *colBest, pos int, leftSum, leftSq float64) {
	nl := pos + 1
	nr := p.n - nl
	rightSum := p.sum - leftSum
	rightSq := p.sq - leftSq
	childSSE := (leftSq - leftSum*leftSum/float64(nl)) +
		(rightSq - rightSum*rightSum/float64(nr))
	gain := p.sse - childSSE
	if gain > b.gain {
		*b = colBest{gain: gain, pos: pos, leftSum: leftSum, leftSq: leftSq}
	}
}

// scan1 finds the best boundary of one sorted column. Positions before
// minLeaf-1 are only folded, since the left child would be too small; the
// scan stops at the last boundary that leaves minLeaf samples on the right.
func (p *scanParent) scan1(col []uint64) colBest {
	b := colBest{gain: minSplitGain, pos: -1}
	ys := p.ys
	first, last := p.minLeaf-1, p.n-p.minLeaf-1
	col = col[:last+2]
	var s, q float64
	for pos := 0; pos <= last; pos++ {
		y := ys[sampleOf(col[pos])]
		s += y
		q += y * y
		if pos >= first && !sameValue(col[pos], col[pos+1]) {
			p.consider(&b, pos, s, q)
		}
	}
	return b
}

// scan4 is scan1 on four columns in one pass: their folds are independent,
// so the four floating-point chains run side by side.
func (p *scanParent) scan4(c0, c1, c2, c3 []uint64) (b0, b1, b2, b3 colBest) {
	b0 = colBest{gain: minSplitGain, pos: -1}
	b1, b2, b3 = b0, b0, b0
	ys := p.ys
	first, last := p.minLeaf-1, p.n-p.minLeaf-1
	m := last + 2
	c0, c1, c2, c3 = c0[:m], c1[:m], c2[:m], c3[:m]
	var s0, q0, s1, q1, s2, q2, s3, q3 float64
	for pos := 0; pos <= last; pos++ {
		y0, y1 := ys[sampleOf(c0[pos])], ys[sampleOf(c1[pos])]
		y2, y3 := ys[sampleOf(c2[pos])], ys[sampleOf(c3[pos])]
		s0 += y0
		q0 += y0 * y0
		s1 += y1
		q1 += y1 * y1
		s2 += y2
		q2 += y2 * y2
		s3 += y3
		q3 += y3 * y3
		if pos < first {
			continue
		}
		if !sameValue(c0[pos], c0[pos+1]) {
			p.consider(&b0, pos, s0, q0)
		}
		if !sameValue(c1[pos], c1[pos+1]) {
			p.consider(&b1, pos, s1, q1)
		}
		if !sameValue(c2[pos], c2[pos+1]) {
			p.consider(&b2, pos, s2, q2)
		}
		if !sameValue(c3[pos], c3[pos+1]) {
			p.consider(&b3, pos, s3, q3)
		}
	}
	return b0, b1, b2, b3
}

// partition applies c's split to columns 0..cols-1: each column of c's range
// is written stably partitioned around the split into the same range of
// buffer dst. The split column is already partitioned by construction and is
// copied.
func (tr *trainer) partition(c *splitCandidate, dst uint8, cols int) {
	left := tr.col(c.buf, c.slot)[c.lo : c.lo+c.splitPos]
	for _, w := range left {
		tr.mark[sampleOf(w)] = 1
	}
	for k := 0; k < cols; k++ {
		src, out := tr.col(c.buf, k)[c.lo:c.hi], tr.col(dst, k)[c.lo:c.hi]
		if k == c.slot {
			copy(out, src)
		} else {
			stablePartition(out, src, c.splitPos, tr.mark)
		}
	}
	for _, w := range left {
		tr.mark[sampleOf(w)] = 0
	}
}

// stablePartition writes src into dst (the same length) with its nl marked
// (left-child) samples first, preserving relative order on both sides — the
// invariant that keeps every column sorted by (feature value, sample index)
// down the tree. Each word is stored once, at its final place, chosen by its
// mark without a branch.
func stablePartition(dst, src []uint64, nl int, mark []uint8) {
	dst = dst[:len(src)]
	l, r := 0, nl
	for _, x := range src {
		m := int(mark[sampleOf(x)])
		d := r
		if m != 0 {
			d = l
		}
		dst[d] = x
		l += m
		r += 1 - m
	}
}

// buildTree grows a single tree on a fresh trainer — the one-shot entry
// point used by tests; Train constructs the trainer once and reuses it for
// every boosting iteration.
func buildTree(xs [][]float64, ys []float64, maxLeaves, minLeaf int) *Tree {
	tr, err := newTrainer(xs, minLeaf)
	if err != nil {
		panic(err)
	}
	return tr.buildTree(ys, maxLeaves)
}

func median(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	sorted := make([]float64, len(ys))
	copy(sorted, ys)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// validateData checks a training set for shape errors.
func validateData(xs [][]float64, ys []float64) error {
	if len(xs) == 0 {
		return errors.New("gbrt: empty training set")
	}
	if len(xs) != len(ys) {
		return fmt.Errorf("gbrt: %d feature rows vs %d targets", len(xs), len(ys))
	}
	width := len(xs[0])
	if width == 0 {
		return errors.New("gbrt: zero-width feature vectors")
	}
	for i, row := range xs {
		if len(row) != width {
			return fmt.Errorf("gbrt: row %d has %d features, want %d", i, len(row), width)
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("gbrt: row %d contains NaN/Inf", i)
			}
		}
		if math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			return fmt.Errorf("gbrt: target %d is NaN/Inf", i)
		}
	}
	return nil
}
