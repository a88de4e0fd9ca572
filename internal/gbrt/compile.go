package gbrt

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Prediction runs on QuickScorer's bitvector layout (Lucchese et al., SIGIR
// 2015), compiled once at the end of Train and Load. Each tree's leaves are
// numbered left to right and one uint64 per tree holds the leaves still
// reachable. An internal node whose test fails (x[f] > threshold, so the
// walk goes right) clears the leaves of its left subtree, and the exit leaf
// of the pointer walk is then the lowest bit left set: every ancestor that
// has it on the left passed its test, and no other node's left subtree
// contains it. Which nodes fail is decided per feature, not per tree: with
// a feature's thresholds ascending, the failing nodes are a prefix of them.
// So Predict scans each feature's thresholds while they fail and ANDs their
// masks in, with no data-dependent branching down any tree.

// maxTreeLeaves is the most leaves a tree may reach: one bit per leaf in a
// uint64.
const maxTreeLeaves = 64

// blockTrees is how many trees Predict scores per pass: one bitvector each,
// in a fixed-size stack array, so forests of any size predict without
// allocating.
const blockTrees = 64

// forest is the compiled form of a Model's trees.
type forest struct {
	// blockRuns[b]..blockRuns[b+1] are block b's runs in runs, ascending by
	// feature. Block b holds trees [b·blockTrees, (b+1)·blockTrees).
	blockRuns []int32
	runs      []featureRun
	// thr, mask and tree are parallel, one entry per internal node on a
	// path from a root: its threshold, the mask that clears its left
	// subtree's leaves, and its tree's index within the block. Each run's
	// slice is ascending by threshold, NaN first.
	thr  []float64
	mask []uint64
	tree []uint8
	// leafOff[t]..leafOff[t+1] are tree t's leaf values in leaves, left to
	// right.
	leafOff []int32
	leaves  []float64
}

// featureRun is one block's internal nodes on one feature: thr[lo:hi].
type featureRun struct {
	feature int32
	lo, hi  int32
}

// compiledNode is an internal node while the forest is being laid out.
type compiledNode struct {
	thr     float64
	mask    uint64
	feature int32
	tree    int32
}

// compile lays m.trees out as m.qs. It walks each tree from its root, so an
// unreachable node compiles to nothing and a child shared by two parents
// compiles once per path, exactly as the pointer walk reaches it. A tree that
// reaches more than maxTreeLeaves leaves is an error.
func (m *Model) compile() error {
	// Size the buffers for trees, the shape Train and Save produce, so
	// compiling leaves no regrown copies behind.
	var internal, leaves int
	for _, t := range m.trees {
		for i := range t.nodes {
			if t.nodes[i].leaf {
				leaves++
			} else {
				internal++
			}
		}
	}
	c := compiler{
		internal: make([]compiledNode, 0, internal),
		leaves:   make([]float64, 0, leaves),
		leafOff:  make([]int32, 1, len(m.trees)+1),
	}
	for ti, t := range m.trees {
		c.nodes, c.treeIdx, c.first = t.nodes, int32(ti), len(c.leaves)
		if _, err := c.walk(0, 0); err != nil {
			return fmt.Errorf("gbrt: tree %d: %w", ti, err)
		}
		c.leafOff = append(c.leafOff, int32(len(c.leaves)))
	}
	slices.SortFunc(c.internal, func(a, b compiledNode) int {
		return cmp.Or(
			cmp.Compare(a.tree/blockTrees, b.tree/blockTrees),
			cmp.Compare(a.feature, b.feature),
			cmp.Compare(a.thr, b.thr), // NaN first
			cmp.Compare(a.tree, b.tree),
			cmp.Compare(a.mask, b.mask),
		)
	})
	n := len(c.internal)
	fs := forest{
		blockRuns: make([]int32, 1, (len(m.trees)+blockTrees-1)/blockTrees+1),
		thr:       make([]float64, n),
		mask:      make([]uint64, n),
		tree:      make([]uint8, n),
		leafOff:   c.leafOff,
		leaves:    c.leaves,
	}
	block := int32(0)
	for i, nd := range c.internal {
		for nd.tree/blockTrees > block {
			fs.blockRuns = append(fs.blockRuns, int32(len(fs.runs)))
			block++
		}
		last := len(fs.runs) - 1
		if last < int(fs.blockRuns[block]) || fs.runs[last].feature != nd.feature {
			fs.runs = append(fs.runs, featureRun{feature: nd.feature, lo: int32(i)})
			last++
		}
		fs.runs[last].hi = int32(i + 1)
		fs.thr[i], fs.mask[i], fs.tree[i] = nd.thr, nd.mask, uint8(nd.tree%blockTrees)
	}
	for int(block)*blockTrees < len(m.trees) {
		fs.blockRuns = append(fs.blockRuns, int32(len(fs.runs)))
		block++
	}
	m.qs = fs
	return nil
}

// compiler carries the layout under construction across the tree walks.
type compiler struct {
	nodes    []treeNode
	treeIdx  int32
	first    int // index in leaves of the current tree's first leaf
	internal []compiledNode
	leaves   []float64
	leafOff  []int32
}

// walk lays out the subtree at node i, depth edges below the root, and
// returns how many leaves it reached. A path of depth d reaches at least
// d+1 leaves, so the depth check bounds the walk of any node graph.
func (c *compiler) walk(i int32, depth int) (int, error) {
	if depth >= maxTreeLeaves {
		return 0, fmt.Errorf("reaches more than %d leaves", maxTreeLeaves)
	}
	nd := &c.nodes[i]
	if nd.leaf {
		if len(c.leaves)-c.first >= maxTreeLeaves {
			return 0, fmt.Errorf("reaches more than %d leaves", maxTreeLeaves)
		}
		c.leaves = append(c.leaves, nd.value)
		return 1, nil
	}
	lo := len(c.leaves) - c.first
	nl, err := c.walk(nd.left, depth+1)
	if err != nil {
		return 0, err
	}
	nr, err := c.walk(nd.right, depth+1)
	if err != nil {
		return 0, err
	}
	c.internal = append(c.internal, compiledNode{
		thr:     nd.threshold,
		mask:    ^((uint64(1)<<nl - 1) << lo),
		feature: nd.feature,
		tree:    c.treeIdx,
	})
	return nl + nr, nil
}

// predict evaluates the compiled forest on x, whose width the caller has
// checked. The sum runs in tree order with the pointer walk's expression,
// base + Σ shrink·leaf, so every result is bit-identical to it.
func (m *Model) predict(x []float64) float64 {
	fs := &m.qs
	sum := m.base
	var v [blockTrees]uint64
	for b := 0; b+1 < len(fs.blockRuns); b++ {
		for i := range v {
			v[i] = ^uint64(0)
		}
		for _, r := range fs.runs[fs.blockRuns[b]:fs.blockRuns[b+1]] {
			xf := x[r.feature]
			thr := fs.thr[r.lo:r.hi]
			mask := fs.mask[r.lo:r.hi][:len(thr)]
			tree := fs.tree[r.lo:r.hi][:len(thr)]
			// x <= thr is the walk's go-left test. Its negation holds for
			// a NaN on either side, which fails every node as the walk
			// does; NaN thresholds sort first, so the scan passes them.
			for j, t := range thr {
				if xf <= t {
					break
				}
				v[tree[j]%blockTrees] &= mask[j]
			}
		}
		first := b * blockTrees
		off := fs.leafOff[first:min(first+blockTrees+1, len(fs.leafOff))]
		for t := 0; t+1 < len(off); t++ {
			sum += m.shrink * fs.leaves[off[t]+int32(bits.TrailingZeros64(v[t]))]
		}
	}
	return sum
}

// thresholds merges feature f's per-block threshold runs into one ascending
// list without duplicates or NaNs.
func (fs *forest) thresholds(f int) []float64 {
	var lists [][]float64
	for b := 0; b+1 < len(fs.blockRuns); b++ {
		for _, r := range fs.runs[fs.blockRuns[b]:fs.blockRuns[b+1]] {
			if int(r.feature) == f {
				lists = append(lists, fs.thr[r.lo:r.hi])
			}
		}
	}
	var out []float64
	for {
		next, found := 0.0, false
		for i, l := range lists {
			for len(l) > 0 && (math.IsNaN(l[0]) || len(out) > 0 && l[0] <= out[len(out)-1]) {
				l = l[1:]
			}
			lists[i] = l
			if len(l) > 0 && (!found || l[0] < next) {
				next, found = l[0], true
			}
		}
		if !found {
			return out
		}
		out = append(out, next)
	}
}
