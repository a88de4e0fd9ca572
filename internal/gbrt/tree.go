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
// split search. The index tie-break makes every downstream floating-point
// fold a pure function of the data — independent of sort internals, worker
// count, or iteration order — which is what keeps serialized models and
// experiment output byte-identical run over run.
package gbrt

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
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

// trainer owns the presorted feature orders and every scratch buffer shared
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
	// master holds one n-length column per feats entry: the sample indices
	// sorted by (feature value, sample index).
	master []int32
	// work is the per-tree copy of master; applied splits partition each of
	// its columns stably in place, which keeps every column sorted by
	// (value, index) within every node's range all the way down the tree.
	work []int32
	// mark flags the left-child samples while one split is being applied.
	mark []bool
	// scratch backs the right-hand side of each stable partition.
	scratch []int32
	// leaves records, after each buildTree, the sample range and fitted
	// value of every terminal node, so Train can update the boosted
	// predictions in O(n) without walking the tree per sample.
	leaves []leafRange

	// ys is the residual target vector of the tree currently being grown.
	ys []float64
}

type leafRange struct {
	lo, hi int
	value  float64
}

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
		mark:    make([]bool, n),
		scratch: make([]int32, n),
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
	tr.master = make([]int32, len(tr.feats)*n)
	tr.work = make([]int32, len(tr.feats)*n)
	for k, f := range tr.feats {
		col := tr.master[k*n : (k+1)*n]
		for i := range col {
			col[i] = int32(i)
		}
		f := f
		sort.Slice(col, func(a, b int) bool {
			va, vb := xs[col[a]][f], xs[col[b]][f]
			if va != vb {
				return va < vb
			}
			return col[a] < col[b]
		})
	}
	return tr, nil
}

// col returns working column k (the sorted sample order of feats[k]).
func (tr *trainer) col(k int) []int32 {
	return tr.work[k*tr.n : (k+1)*tr.n]
}

// splitCandidate is one open leaf's best split. It is computed exactly once,
// when the leaf is opened, and kept in a max-heap until the leaf is either
// split or the terminal-node budget runs out — the pre-refactor builder
// re-scanned every open leaf on every iteration instead.
type splitCandidate struct {
	node   int // index into the tree's node slice
	seq    int // leaf-opening order; breaks gain ties deterministically
	lo, hi int // the leaf's sample range in every work column
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
	copy(tr.work, tr.master)
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
	ranges := make([]leafRange, 1, 2*maxLeaves-1)
	ranges[0] = leafRange{lo: 0, hi: n}

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
		ccol := tr.col(c.slot)[c.lo:c.hi]

		// The right child's stats fold in the split column's sorted order —
		// the order its samples will keep in every descendant scan.
		var rightSum, rightSq float64
		for _, idx := range ccol[nl:] {
			y := ys[idx]
			rightSum += y
			rightSq += y * y
		}

		// Partition every other column stably around the split; the split
		// column is already partitioned by construction.
		for _, idx := range ccol[:nl] {
			tr.mark[idx] = true
		}
		for k := range tr.feats {
			if k != c.slot {
				stablePartition(tr.col(k)[c.lo:c.hi], tr.mark, tr.scratch)
			}
		}
		for _, idx := range ccol[:nl] {
			tr.mark[idx] = false
		}

		li := len(nodes)
		nodes = append(nodes, treeNode{leaf: true, value: c.leftSum / float64(nl)})
		ranges = append(ranges, leafRange{lo: c.lo, hi: mid})
		ri := len(nodes)
		nodes = append(nodes, treeNode{leaf: true, value: rightSum / float64(c.hi-mid)})
		ranges = append(ranges, leafRange{lo: mid, hi: c.hi})
		nd := &nodes[c.node]
		nd.leaf = false
		nd.feature = int32(c.feature)
		nd.threshold = c.threshold
		nd.left = int32(li)
		nd.right = int32(ri)
		nd.gain = c.gain

		left := &splitCandidate{node: li, seq: seq + 1, lo: c.lo, hi: mid,
			sum: c.leftSum, sq: c.leftSq}
		right := &splitCandidate{node: ri, seq: seq + 2, lo: mid, hi: c.hi,
			sum: rightSum, sq: rightSq}
		seq += 2
		if tr.findBest(left) {
			heap.Push(&open, left)
		}
		if tr.findBest(right) {
			heap.Push(&open, right)
		}
		leaves++
	}

	for i := range nodes {
		if nodes[i].leaf {
			tr.leaves = append(tr.leaves, leafRange{
				lo: ranges[i].lo, hi: ranges[i].hi, value: nodes[i].value,
			})
		}
	}
	return &Tree{nodes: nodes}
}

// addTo adds shrinkage-scaled predictions of the just-built tree to current,
// using the recorded leaf ranges: every sample already sits in exactly one
// terminal range, so no per-sample tree traversal is needed. Must be called
// before the next buildTree reuses the work columns.
func (tr *trainer) addTo(current []float64, shrink float64) {
	if len(tr.feats) == 0 {
		// No splittable feature: the tree is root-only and Train stops
		// before applying it.
		return
	}
	base := tr.col(0)
	for _, lr := range tr.leaves {
		d := shrink * lr.value
		for _, idx := range base[lr.lo:lr.hi] {
			current[idx] += d
		}
	}
}

// findBest computes the SSE-optimal (feature, threshold) split of the leaf
// candidate c, scanning each presorted column with prefix sums, and reports
// whether any split clears the minimum-gain floor.
func (tr *trainer) findBest(c *splitCandidate) bool {
	n := c.hi - c.lo
	if n < 2*tr.minLeaf {
		return false
	}
	totalSum, totalSq := c.sum, c.sq
	parentSSE := totalSq - totalSum*totalSum/float64(n)
	bestGain := 1e-12
	found := false
	for k, f := range tr.feats {
		col := tr.col(k)[c.lo:c.hi]
		var leftSum, leftSq float64
		for pos := 0; pos < n-1; pos++ {
			y := tr.ys[col[pos]]
			leftSum += y
			leftSq += y * y
			// Cannot split between equal feature values.
			if tr.xs[col[pos]][f] == tr.xs[col[pos+1]][f] {
				continue
			}
			nl := pos + 1
			nr := n - nl
			if nl < tr.minLeaf || nr < tr.minLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			childSSE := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(nr))
			gain := parentSSE - childSSE
			if gain > bestGain {
				bestGain = gain
				c.feature = f
				c.slot = k
				c.splitPos = nl
				c.threshold = (tr.xs[col[pos]][f] + tr.xs[col[pos+1]][f]) / 2
				c.gain = gain
				c.leftSum = leftSum
				c.leftSq = leftSq
				found = true
			}
		}
	}
	return found
}

// stablePartition reorders col so the marked (left-child) samples come
// first, preserving relative order on both sides — the invariant that keeps
// every column sorted by (feature value, sample index) down the tree.
func stablePartition(col []int32, mark []bool, scratch []int32) {
	w, s := 0, 0
	for _, idx := range col {
		if mark[idx] {
			col[w] = idx
			w++
		} else {
			scratch[s] = idx
			s++
		}
	}
	copy(col[w:], scratch[:s])
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
