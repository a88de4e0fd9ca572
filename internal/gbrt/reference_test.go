package gbrt

import (
	"sort"
)

// This file preserves the pre-refactor training engine verbatim (modulo
// renames) as the reference the presorted engine is checked against. The
// original grew each tree best-first by re-running a full split search over
// every open leaf on every iteration, re-sorting each feature column with
// sort.Slice inside every search, and copying the index sets of every
// improving candidate.
//
// The only semantic difference between the two engines is tie handling:
// sort.Slice leaves the relative order of equal feature values unspecified,
// while the presorted engine pins it to ascending sample index. Split
// *partitions* never depend on tie order (equal values cannot be split
// apart), but floating-point folds over a tie run do. The indexTies toggle
// therefore selects between the two comparators:
//
//   - indexTies=false is the byte-for-byte historical behaviour. Against it
//     the new engine is verified on datasets whose target sums are exact in
//     float64 (order-independent folds) and on tie-free datasets (unique
//     sort order), where the tie rule provably cannot matter.
//   - indexTies=true is the historical algorithm under the new canonical
//     tie rule. Against it the new engine must agree bit-for-bit on ANY
//     dataset — ties, duplicates, constant columns and all.
type refTreeBuilder struct {
	xs        [][]float64
	ys        []float64
	maxLeaves int
	minLeaf   int
	nodes     []treeNode
	indexTies bool
}

type refSplitCandidate struct {
	node      int
	feature   int
	threshold float64
	gain      float64
	leftIdx   []int
	rightIdx  []int
}

func refBuildTree(xs [][]float64, ys []float64, maxLeaves, minLeaf int, indexTies bool) *Tree {
	b := &refTreeBuilder{xs: xs, ys: ys, maxLeaves: maxLeaves, minLeaf: minLeaf, indexTies: indexTies}
	all := make([]int, len(ys))
	for i := range all {
		all[i] = i
	}
	b.nodes = append(b.nodes, treeNode{leaf: true, value: refMean(ys, all)})

	type openLeaf struct {
		node int
		idxs []int
	}
	open := []openLeaf{{node: 0, idxs: all}}
	leaves := 1
	for leaves < b.maxLeaves {
		best := refSplitCandidate{node: -1}
		bestAt := -1
		for oi, leaf := range open {
			cand, ok := b.bestSplit(leaf.node, leaf.idxs)
			if ok && (best.node == -1 || cand.gain > best.gain) {
				best = cand
				bestAt = oi
			}
		}
		if best.node == -1 {
			break
		}
		// Apply the split.
		li := len(b.nodes)
		b.nodes = append(b.nodes, treeNode{leaf: true, value: refMean(b.ys, best.leftIdx)})
		ri := len(b.nodes)
		b.nodes = append(b.nodes, treeNode{leaf: true, value: refMean(b.ys, best.rightIdx)})
		nd := &b.nodes[best.node]
		nd.leaf = false
		nd.feature = int32(best.feature)
		nd.threshold = best.threshold
		nd.left = int32(li)
		nd.right = int32(ri)
		nd.gain = best.gain
		open = append(open[:bestAt], open[bestAt+1:]...)
		open = append(open,
			openLeaf{node: li, idxs: best.leftIdx},
			openLeaf{node: ri, idxs: best.rightIdx},
		)
		leaves++
	}
	return &Tree{nodes: b.nodes}
}

// bestSplit finds the SSE-optimal (feature, threshold) split of the samples
// at a node, scanning each feature in sorted order with prefix sums.
func (b *refTreeBuilder) bestSplit(node int, idxs []int) (refSplitCandidate, bool) {
	n := len(idxs)
	if n < 2*b.minLeaf {
		return refSplitCandidate{}, false
	}
	var totalSum, totalSq float64
	for _, i := range idxs {
		totalSum += b.ys[i]
		totalSq += b.ys[i] * b.ys[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	best := refSplitCandidate{node: node, gain: 1e-12}
	found := false
	sorted := make([]int, n)
	numFeatures := len(b.xs[idxs[0]])
	for f := 0; f < numFeatures; f++ {
		copy(sorted, idxs)
		if b.indexTies {
			sort.Slice(sorted, func(a, c int) bool {
				if b.xs[sorted[a]][f] != b.xs[sorted[c]][f] {
					return b.xs[sorted[a]][f] < b.xs[sorted[c]][f]
				}
				return sorted[a] < sorted[c]
			})
		} else {
			sort.Slice(sorted, func(a, c int) bool {
				return b.xs[sorted[a]][f] < b.xs[sorted[c]][f]
			})
		}
		var leftSum, leftSq float64
		for pos := 0; pos < n-1; pos++ {
			y := b.ys[sorted[pos]]
			leftSum += y
			leftSq += y * y
			// Cannot split between equal feature values.
			if b.xs[sorted[pos]][f] == b.xs[sorted[pos+1]][f] {
				continue
			}
			nl := pos + 1
			nr := n - nl
			if nl < b.minLeaf || nr < b.minLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			childSSE := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(nr))
			gain := parentSSE - childSSE
			if gain > best.gain {
				best.gain = gain
				best.feature = f
				best.threshold = (b.xs[sorted[pos]][f] + b.xs[sorted[pos+1]][f]) / 2
				best.leftIdx = append([]int(nil), sorted[:nl]...)
				best.rightIdx = append([]int(nil), sorted[nl:]...)
				found = true
			}
		}
	}
	return best, found
}

func refMean(ys []float64, idxs []int) float64 {
	if len(idxs) == 0 {
		return 0
	}
	sum := 0.0
	for _, i := range idxs {
		sum += ys[i]
	}
	return sum / float64(len(idxs))
}

// refTrain is the pre-refactor Train loop on top of refBuildTree.
func refTrain(xs [][]float64, ys []float64, cfg Config, indexTies bool) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateData(xs, ys); err != nil {
		return nil, err
	}
	m := &Model{
		base:        median(ys),
		shrink:      cfg.Shrinkage,
		numFeatures: len(xs[0]),
	}
	current := make([]float64, len(ys))
	for i := range current {
		current[i] = m.base
	}
	residual := make([]float64, len(ys))
	for iter := 0; iter < cfg.Trees; iter++ {
		for i := range ys {
			residual[i] = ys[i] - current[i]
		}
		tree := refBuildTree(xs, residual, cfg.MaxLeaves, cfg.MinSamplesLeaf, indexTies)
		if tree.Leaves() <= 1 {
			break
		}
		m.trees = append(m.trees, tree)
		for i := range ys {
			current[i] += m.shrink * tree.Predict(xs[i])
		}
	}
	return m, m.compile()
}
