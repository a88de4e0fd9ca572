package gbrt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Predict is the pointer walk from the root: the oracle the compiled forest
// must match bit for bit.
func (t *Tree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	i := int32(0)
	for !t.nodes[i].leaf {
		nd := t.nodes[i]
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
	return t.nodes[i].value
}

// walkPredict is Model.Predict by the pointer walk, in the same order.
func walkPredict(m *Model, x []float64) float64 {
	sum := m.base
	for _, t := range m.trees {
		sum += m.shrink * t.Predict(x)
	}
	return sum
}

// walkThresholds is Thresholds collected from every node the pointer walk
// can reach, then sorted and deduplicated.
func walkThresholds(m *Model, f int) []float64 {
	var out []float64
	var visit func(t *Tree, i int32)
	visit = func(t *Tree, i int32) {
		nd := &t.nodes[i]
		if nd.leaf {
			return
		}
		if int(nd.feature) == f && !math.IsNaN(nd.threshold) {
			out = append(out, nd.threshold)
		}
		visit(t, nd.left)
		visit(t, nd.right)
	}
	for _, t := range m.trees {
		visit(t, 0)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// assertMatchesWalk checks Predict, PredictBatch and Thresholds against the
// pointer walk on every probe.
func assertMatchesWalk(t *testing.T, m *Model, probes [][]float64) {
	t.Helper()
	batch := make([]float64, len(probes))
	if err := m.PredictBatch(probes, batch); err != nil {
		t.Fatal(err)
	}
	for i, x := range probes {
		want := walkPredict(m, x)
		got, err := m.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(batch[i]) != math.Float64bits(want) {
			t.Fatalf("x=%v: Predict %v, PredictBatch %v, walk %v", x, got, batch[i], want)
		}
	}
	for f := 0; f < m.NumFeatures(); f++ {
		if got, want := m.Thresholds(f), walkThresholds(m, f); !slices.Equal(got, want) {
			t.Fatalf("feature %d: Thresholds %v, walk %v", f, got, want)
		}
	}
}

// edgeProbes returns rows of xs with one feature replaced by every special
// value and every threshold of that feature with its float neighbours.
func edgeProbes(m *Model, xs [][]float64) [][]float64 {
	var probes [][]float64
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, row := range xs {
		probes = append(probes, row)
		for f := 0; f < m.NumFeatures(); f++ {
			vals := append([]float64(nil), specials...)
			for _, th := range m.Thresholds(f) {
				vals = append(vals, th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1)))
			}
			for _, v := range vals {
				p := append([]float64(nil), row...)
				p[f] = v
				probes = append(probes, p)
			}
		}
	}
	return probes
}

// TestCompiledMatchesTreeTrained pins the compiled forest to the pointer
// walk on trained forests of one, two and seven blocks.
func TestCompiledMatchesTreeTrained(t *testing.T) {
	xs, ys := fleetShapeData()
	for _, trees := range []int{3, 64, 65, 400} {
		m, err := Train(xs, ys, Config{Trees: trees, MaxLeaves: 8, Shrinkage: 0.1, MinSamplesLeaf: 5})
		if err != nil {
			t.Fatal(err)
		}
		if m.NumTrees() != trees {
			t.Fatalf("trained %d trees, want %d", m.NumTrees(), trees)
		}
		t.Run(fmt.Sprint(trees), func(t *testing.T) {
			assertMatchesWalk(t, m, edgeProbes(m, [][]float64{xs[0], xs[123]}))
			assertMatchesWalk(t, m, xs)
		})
	}
	// The widest trees Config allows.
	m, err := Train(xs, ys, Config{Trees: 70, MaxLeaves: 64, Shrinkage: 0.3, MinSamplesLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesWalk(t, m, xs)
}

// modelJSONWith wraps one tree's node list in a two-feature model file.
func modelJSONWith(nodes string) string {
	return `{"version":1,"base":1,"shrinkage":0.5,"numFeatures":2,"trees":[{"nodes":[` + nodes + `]}]}`
}

// gridProbes covers both features on a grid through every threshold used
// by the hand-built trees below.
func gridProbes() [][]float64 {
	var probes [][]float64
	for _, a := range []float64{-1, 0, 1, 2, 3, 4, math.NaN()} {
		for _, b := range []float64{-1, 0, 1, 2, 3, 4, math.Inf(1)} {
			probes = append(probes, []float64{a, b})
		}
	}
	return probes
}

// TestLoadUnreachableNode: a node no path reaches must not touch any mask.
// Compiled as if reachable, node 3's split would clear leaves of the tree
// Predict actually walks.
func TestLoadUnreachableNode(t *testing.T) {
	m, err := Load(strings.NewReader(modelJSONWith(`
		{"feature":0,"threshold":2,"left":1,"right":2},
		{"leaf":true,"value":-1},
		{"feature":1,"threshold":1,"left":4,"right":5},
		{"feature":0,"threshold":-5,"left":4,"right":5},
		{"leaf":true,"value":10},
		{"leaf":true,"value":20}`)))
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesWalk(t, m, gridProbes())
	if got := m.Thresholds(0); !slices.Equal(got, []float64{2}) {
		t.Fatalf("Thresholds(0) = %v, want the reachable split only", got)
	}
}

// TestLoadSharedChild: two parents sharing one subtree compile it once per
// path, so each path keeps its own leaf bits.
func TestLoadSharedChild(t *testing.T) {
	m, err := Load(strings.NewReader(modelJSONWith(`
		{"feature":0,"threshold":2,"left":1,"right":1},
		{"feature":1,"threshold":1,"left":2,"right":3},
		{"feature":0,"threshold":0,"left":4,"right":4},
		{"leaf":true,"value":7},
		{"leaf":true,"value":-3}`)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.qs.leaves); got != 6 {
		t.Fatalf("compiled %d leaves, want 6 (3 per path)", got)
	}
	assertMatchesWalk(t, m, gridProbes())
}

// chainNodes is a left-leaning chain of n internal nodes: n+1 leaves.
func chainNodes(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"feature":0,"threshold":%d,"left":%d,"right":%d},{"leaf":true,"value":%d},`,
			n-i, 2*i+2, 2*i+1, i)
	}
	b.WriteString(`{"leaf":true,"value":-1}`)
	return b.String()
}

// sharedChain is n internal nodes, each sending both branches to the next,
// then one leaf: 2^n paths reach that leaf.
func sharedChain(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"feature":1,"threshold":%d,"left":%d,"right":%d},`, i, i+1, i+1)
	}
	b.WriteString(`{"leaf":true,"value":1}`)
	return b.String()
}

// TestLoadLeafBound: Load accepts a tree that reaches 64 leaves, the
// most one uint64 holds (TestLoadRejectsGarbage has 65).
func TestLoadLeafBound(t *testing.T) {
	m, err := Load(strings.NewReader(modelJSONWith(chainNodes(63))))
	if err != nil {
		t.Fatalf("64-leaf tree rejected: %v", err)
	}
	var probes [][]float64
	for x := -1.0; x <= 65; x += 0.5 {
		probes = append(probes, []float64{x, 0})
	}
	assertMatchesWalk(t, m, probes)
}

// fuzzReader hands out the fuzz input a byte or a float64 at a time, zeros
// once it runs out.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) float() float64 {
	var buf [8]byte
	n := copy(buf[:], r.data)
	r.data = r.data[n:]
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// fuzzValues are the thresholds, leaf values and inputs worth colliding.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -2.5, 1e300, -1e300,
	math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// value draws one of fuzzValues, or a raw float64 from the input.
func (r *fuzzReader) value() float64 {
	b := r.byte()
	if int(b) < len(fuzzValues) {
		return fuzzValues[b]
	}
	if b < 128 {
		return float64(int(b) - 64)
	}
	return r.float()
}

// tree decodes one tree in preorder. A node is a leaf, a split, or a split
// whose right child is a node of its own left subtree (a shared child); a
// leaf or a split may be followed by a small subtree nothing points to.
func (r *fuzzReader) tree(numFeatures int) *Tree {
	t := &Tree{}
	split := func() int32 {
		t.nodes = append(t.nodes, treeNode{feature: int32(r.byte()) % int32(numFeatures), threshold: r.value()})
		return int32(len(t.nodes) - 1)
	}
	leaf := func() int32 {
		t.nodes = append(t.nodes, treeNode{leaf: true, value: r.value()})
		return int32(len(t.nodes) - 1)
	}
	var node func(depth int) int32
	node = func(depth int) int32 {
		kind := r.byte() % 6
		var i int32
		if kind == 0 || kind == 5 || depth >= 8 {
			i = leaf()
		} else {
			i = split()
			left := node(depth + 1)
			right := left + int32(r.byte())%(int32(len(t.nodes))-left)
			if kind != 3 {
				right = node(depth + 1)
			}
			t.nodes[i].left, t.nodes[i].right = left, right
		}
		if kind >= 4 {
			j := split()
			t.nodes[j].left, t.nodes[j].right = leaf(), leaf()
		}
		return i
	}
	node(0)
	return t
}

// checkCompiledMatchesTree decodes a forest and an input vector from data
// and requires the compiled forest to match the pointer walk on it, or
// compile to reject exactly the forests with a tree past the leaf bound.
func checkCompiledMatchesTree(t *testing.T, data []byte) {
	r := &fuzzReader{data: data}
	numFeatures := 1 + int(r.byte()%4)
	numTrees := 1 + int(r.byte())
	m := &Model{base: r.value(), shrink: r.value(), numFeatures: numFeatures}
	for range numTrees {
		m.trees = append(m.trees, r.tree(numFeatures))
	}
	var thr []float64
	for f := range numFeatures {
		thr = append(thr, walkThresholds(m, f)...)
	}
	// Each feature is a threshold, one of its float neighbours, or a value
	// from fuzzValues (NaN, ±Inf, ±0 among them) or the input.
	x := make([]float64, numFeatures)
	for f := range x {
		if b := r.byte(); b < 128 && len(thr) > 0 {
			th := thr[int(b)%len(thr)]
			x[f] = [3]float64{th, math.Nextafter(th, math.Inf(-1)), math.Nextafter(th, math.Inf(1))}[int(b)%3]
		} else {
			x[f] = r.value()
		}
	}
	err := m.compile()
	over := slices.ContainsFunc(m.trees, func(t *Tree) bool { return reachableLeaves(t, 0, 0) > maxTreeLeaves })
	if over != (err != nil) {
		t.Fatalf("compile error %v, tree past the leaf bound %v", err, over)
	}
	if err == nil {
		assertMatchesWalk(t, m, [][]float64{x})
	}
}

// FuzzCompiledMatchesTree is checkCompiledMatchesTree over arbitrary bytes.
//
//	go test ./internal/gbrt -run=FuzzCompiledMatchesTree -fuzz=FuzzCompiledMatchesTree -fuzztime=60s
func FuzzCompiledMatchesTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 1, 0, 3, 0, 2, 0, 1, 0, 5, 2, 0, 11, 6, 4, 1, 7, 0, 9, 3})
	f.Add([]byte{2, 70, 3, 1, 2, 1, 1, 2, 0, 4, 0, 1, 3, 7, 8, 0, 6, 2, 1, 10, 0, 2, 0, 0, 3, 1})
	f.Add([]byte{3, 200, 4, 2, 0, 1, 11, 4, 1, 2, 0, 3, 5, 2, 1, 9, 1, 0, 2, 0, 1, 1, 8, 0, 4, 4, 4})
	f.Fuzz(checkCompiledMatchesTree)
}

// TestCompiledMatchesTreeRandom runs the fuzz check on random inputs, so
// plain go test covers forests of many shapes and sizes.
func TestCompiledMatchesTreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+rng.Intn(2000))
		rng.Read(data)
		checkCompiledMatchesTree(t, data)
	}
}

// reachableLeaves counts the paths from node i to a leaf, stopping once
// past the bound.
func reachableLeaves(t *Tree, i int32, n int) int {
	if n > maxTreeLeaves {
		return n
	}
	nd := &t.nodes[i]
	if nd.leaf {
		return n + 1
	}
	return reachableLeaves(t, nd.right, reachableLeaves(t, nd.left, n))
}

var predictBenchModel = sync.OnceValues(func() (*Model, [][]float64) {
	xs, ys := fleetShapeData()
	m, err := Train(xs, ys, fleetShapeCfg)
	if err != nil {
		panic(err)
	}
	return m, xs
})

// BenchmarkPredictFleetShape times the compiled Predict on a 400-tree
// forest of 8-leaf trees, the served model's shape.
func BenchmarkPredictFleetShape(b *testing.B) {
	m, xs := predictBenchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(xs[i%len(xs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileFleetShape times compile on the 400-tree fleet shape:
// the cost Train and Load add for the compiled layout.
func BenchmarkCompileFleetShape(b *testing.B) {
	m, _ := predictBenchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// walkSink keeps the benchmarked walk from being optimized away.
var walkSink float64

// BenchmarkWalkPredictFleetShape times the pointer walk on the same forest
// and inputs, so the compiled layout's speedup is measured on one machine.
func BenchmarkWalkPredictFleetShape(b *testing.B) {
	m, xs := predictBenchModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walkSink += walkPredict(m, xs[i%len(xs)])
	}
}
