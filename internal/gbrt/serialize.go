package gbrt

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// The paper's deployment splits training from prediction: "the model is
// trained either offline on a PC or on the smartphone when it is connected
// to a power source. Then, we deploy the tree model to the prediction
// program which is embedded in the web browser." Serialization is that
// deployment step: a trained forest round-trips through a stable JSON form.

// modelJSON is the wire format of a Model.
type modelJSON struct {
	Version     int        `json:"version"`
	Base        float64    `json:"base"`
	Shrinkage   float64    `json:"shrinkage"`
	NumFeatures int        `json:"numFeatures"`
	Trees       []treeJSON `json:"trees"`
}

type treeJSON struct {
	Nodes []nodeJSON `json:"nodes"`
}

type nodeJSON struct {
	Feature   int     `json:"feature"`
	Threshold float64 `json:"threshold"`
	Left      int     `json:"left"`
	Right     int     `json:"right"`
	Value     float64 `json:"value"`
	Leaf      bool    `json:"leaf"`
	Gain      float64 `json:"gain"`
}

// serializationVersion guards the wire format.
const serializationVersion = 1

// Save writes the model's JSON form to w.
func (m *Model) Save(w io.Writer) error {
	out := modelJSON{
		Version:     serializationVersion,
		Base:        m.base,
		Shrinkage:   m.shrink,
		NumFeatures: m.numFeatures,
		Trees:       make([]treeJSON, 0, len(m.trees)),
	}
	for _, t := range m.trees {
		tj := treeJSON{Nodes: make([]nodeJSON, 0, len(t.nodes))}
		for _, nd := range t.nodes {
			tj.Nodes = append(tj.Nodes, nodeJSON{
				Feature:   int(nd.feature),
				Threshold: nd.threshold,
				Left:      int(nd.left),
				Right:     int(nd.right),
				Value:     nd.value,
				Leaf:      nd.leaf,
				Gain:      nd.gain,
			})
		}
		out.Trees = append(out.Trees, tj)
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(out); err != nil {
		return fmt.Errorf("gbrt: save model: %w", err)
	}
	return bw.Flush()
}

// Load reads a model previously written with Save, validating its structure
// (node links in range, no cycles on the path down, finite values, at most
// 64 leaves reachable per tree) and compiling it for Predict.
func Load(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("gbrt: load model: %w", err)
	}
	if in.Version != serializationVersion {
		return nil, fmt.Errorf("gbrt: unsupported model version %d", in.Version)
	}
	if in.NumFeatures <= 0 {
		return nil, errors.New("gbrt: model has no features")
	}
	if in.Shrinkage <= 0 || in.Shrinkage > 1 {
		return nil, fmt.Errorf("gbrt: model shrinkage %v out of (0,1]", in.Shrinkage)
	}
	if math.IsNaN(in.Base) || math.IsInf(in.Base, 0) {
		return nil, errors.New("gbrt: model base is not finite")
	}
	m := &Model{
		base:        in.Base,
		shrink:      in.Shrinkage,
		numFeatures: in.NumFeatures,
		trees:       make([]*Tree, 0, len(in.Trees)),
	}
	for ti, tj := range in.Trees {
		t := &Tree{nodes: make([]treeNode, 0, len(tj.Nodes))}
		for ni, nj := range tj.Nodes {
			if err := validateNode(nj, ni, len(tj.Nodes), in.NumFeatures); err != nil {
				return nil, fmt.Errorf("gbrt: tree %d: %w", ti, err)
			}
			t.nodes = append(t.nodes, treeNode{
				feature:   int32(nj.Feature),
				threshold: nj.Threshold,
				left:      int32(nj.Left),
				right:     int32(nj.Right),
				value:     nj.Value,
				leaf:      nj.Leaf,
				gain:      nj.Gain,
			})
		}
		if len(t.nodes) == 0 {
			return nil, fmt.Errorf("gbrt: tree %d is empty", ti)
		}
		m.trees = append(m.trees, t)
	}
	if err := m.compile(); err != nil {
		return nil, err
	}
	return m, nil
}

func validateNode(nj nodeJSON, idx, total, numFeatures int) error {
	if math.IsNaN(nj.Value) || math.IsInf(nj.Value, 0) ||
		math.IsNaN(nj.Threshold) || math.IsInf(nj.Threshold, 0) {
		return fmt.Errorf("node %d has non-finite values", idx)
	}
	if nj.Feature != int(int32(nj.Feature)) || nj.Left != int(int32(nj.Left)) ||
		nj.Right != int(int32(nj.Right)) {
		return fmt.Errorf("node %d has fields outside int32", idx)
	}
	if nj.Leaf {
		return nil
	}
	if nj.Feature < 0 || nj.Feature >= numFeatures {
		return fmt.Errorf("node %d splits on feature %d of %d", idx, nj.Feature, numFeatures)
	}
	// Children must point strictly forward, which rules out cycles in the
	// flat array layout the builder produces.
	if nj.Left <= idx || nj.Left >= total || nj.Right <= idx || nj.Right >= total {
		return fmt.Errorf("node %d has out-of-range children %d/%d", idx, nj.Left, nj.Right)
	}
	return nil
}
