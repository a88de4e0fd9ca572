// Package predictor wraps the GBRT model into the paper's reading-time
// predictor (Section 4.3): train on collected visits, optionally applying
// the interest threshold α (Section 4.3.4) — visits abandoned within α carry
// no feature signal, so excluding them from training, and only predicting
// once a page has survived α seconds, buys the ≥10-point accuracy
// improvement of Fig. 15.
package predictor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"eabrowse/internal/features"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/trace"
)

// Thresholds bundles the Table 2 parameters.
type Thresholds struct {
	// Alpha is the interest threshold (paper: 2 s for this dataset).
	Alpha time.Duration
	// Tp is the power-driven threshold (Fig. 3 crossover: 9 s).
	Tp time.Duration
	// Td is the delay-driven threshold (T1 + T2 ≈ 20 s).
	Td time.Duration
}

// DefaultThresholds returns the paper's values.
func DefaultThresholds() Thresholds {
	return Thresholds{
		Alpha: 2 * time.Second,
		Tp:    9 * time.Second,
		Td:    20 * time.Second,
	}
}

// Predictor predicts per-page reading time from Table 1 features.
type Predictor struct {
	model *gbrt.Model
	// interestTrained records whether training excluded sub-α visits.
	interestTrained bool
	alpha           float64
	// thresholds are the Algorithm 2 parameters this model was trained to
	// drive; they travel with the model file so a serving process needs no
	// separate policy configuration.
	thresholds Thresholds
}

// Config controls training.
type Config struct {
	// GBRT is the boosting setup.
	GBRT gbrt.Config
	// UseInterestThreshold excludes visits read for less than Alpha from
	// the training set (Section 4.3.4).
	UseInterestThreshold bool
	// Alpha is the interest threshold in seconds.
	Alpha float64
	// Tp and Td are the Algorithm 2 thresholds stamped into the trained
	// predictor (and its saved form). Zero means the paper's defaults.
	Tp, Td time.Duration
}

// DefaultConfig trains the paper's configuration: interest threshold on.
func DefaultConfig() Config {
	return Config{
		GBRT:                 gbrt.DefaultConfig(),
		UseInterestThreshold: true,
		Alpha:                DefaultThresholds().Alpha.Seconds(),
	}
}

// Train fits a predictor on the given visits.
func Train(visits []trace.Visit, cfg Config) (*Predictor, error) {
	if len(visits) == 0 {
		return nil, errors.New("predictor: no training visits")
	}
	var xs [][]float64
	var ys []float64
	for _, v := range visits {
		if cfg.UseInterestThreshold && v.ReadingSeconds < cfg.Alpha {
			continue
		}
		xs = append(xs, v.Features.Slice())
		ys = append(ys, v.ReadingSeconds)
	}
	if len(xs) == 0 {
		return nil, errors.New("predictor: interest threshold removed every training visit")
	}
	model, err := gbrt.Train(xs, ys, cfg.GBRT)
	if err != nil {
		return nil, fmt.Errorf("train gbrt: %w", err)
	}
	th := Thresholds{
		Alpha: time.Duration(cfg.Alpha * float64(time.Second)),
		Tp:    cfg.Tp,
		Td:    cfg.Td,
	}
	if th.Tp == 0 {
		th.Tp = DefaultThresholds().Tp
	}
	if th.Td == 0 {
		th.Td = DefaultThresholds().Td
	}
	return &Predictor{
		model:           model,
		interestTrained: cfg.UseInterestThreshold,
		alpha:           cfg.Alpha,
		thresholds:      th,
	}, nil
}

// Thresholds returns the Algorithm 2 parameters the predictor carries.
func (p *Predictor) Thresholds() Thresholds {
	return p.thresholds
}

// PredictSeconds predicts the reading time for a page's feature vector.
func (p *Predictor) PredictSeconds(v features.Vector) (float64, error) {
	return p.model.Predict(v.Slice())
}

// PredictVecSeconds is PredictSeconds without the defensive copy: the vector
// is read in place, so the steady-state path allocates nothing. This is the
// per-request hot path of the resident service; results are bit-identical to
// PredictSeconds.
func (p *Predictor) PredictVecSeconds(v *features.Vector) (float64, error) {
	return p.model.Predict(v[:])
}

// PredictBatchVecSeconds predicts reading times for many feature vectors at
// once, writing into out (same length as vs). Rows are read in place from vs
// and the row-pointer table is built in scratch, which the caller reuses
// across calls (grow it once, then every batch is allocation-free; nil
// allocates one). It returns the possibly regrown scratch. Each row is one
// compiled forest evaluation (gbrt.Model.PredictBatch), so per-vector results
// are bit-identical to PredictSeconds; a batch saves the per-call checks and
// call overhead, not forest work.
func (p *Predictor) PredictBatchVecSeconds(vs []features.Vector, out []float64, scratch [][]float64) ([][]float64, error) {
	scratch = scratch[:0]
	for i := range vs {
		scratch = append(scratch, vs[i][:])
	}
	return scratch, p.model.PredictBatch(scratch, out)
}

// Prefix returns the predictor whose forest is the first k trees of p's
// (gbrt.Model.Prefix): the predictor Train would return with GBRT.Trees = k
// on the same visits and config. Everything else it carries is p's.
func (p *Predictor) Prefix(k int) (*Predictor, error) {
	m, err := p.model.Prefix(k)
	if err != nil {
		return nil, err
	}
	q := *p
	q.model = m
	return &q, nil
}

// NumTrees exposes the fitted forest size (Table 7 cost accounting).
func (p *Predictor) NumTrees() int {
	return p.model.NumTrees()
}

// SplitThresholds returns the distinct thresholds the forest splits Table 1
// feature f on, ascending (see gbrt.Model.Thresholds): with the other
// features fixed, PredictSeconds is constant between consecutive ones.
func (p *Predictor) SplitThresholds(f int) []float64 {
	return p.model.Thresholds(f)
}

// FeatureImportance returns the forest's normalized split-gain importance
// per Table 1 feature.
func (p *Predictor) FeatureImportance() []float64 {
	return p.model.FeatureImportance()
}

// InterestTrained reports whether the interest threshold was applied during
// training.
func (p *Predictor) InterestTrained() bool {
	return p.interestTrained
}

// Accuracy is the Fig. 15 metric: a prediction is correct when the predicted
// and the real reading time fall on the same side of the given threshold.
type Accuracy struct {
	Threshold float64
	Correct   int
	Total     int
}

// Pct returns the accuracy percentage.
func (a Accuracy) Pct() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.Total) * 100
}

// Score tallies the Fig. 15 metric at each threshold: a prediction is
// correct when it and its visit's real reading time fall on the same side of
// the threshold. preds[i] is the prediction for visits[i].
func Score(visits []trace.Visit, preds []float64, thresholds ...float64) []Accuracy {
	accs := make([]Accuracy, len(thresholds))
	for j, threshold := range thresholds {
		accs[j] = Accuracy{Threshold: threshold, Total: len(visits)}
		for i, v := range visits {
			if (preds[i] > threshold) == (v.ReadingSeconds > threshold) {
				accs[j].Correct++
			}
		}
	}
	return accs
}

// Evaluate measures classification accuracy on test visits at each threshold
// (seconds), from one prediction of the test set. When applyInterest is true
// only visits the user kept open for at least α seconds are scored — the
// deployment behaviour: the phone waits α before predicting, so sub-α visits
// never reach the predictor.
func (p *Predictor) Evaluate(test []trace.Visit, applyInterest bool, thresholds ...float64) ([]Accuracy, error) {
	scored, err := survivors(test, p.alpha, applyInterest)
	if err != nil {
		return nil, err
	}
	preds := make([]float64, len(scored))
	if err := p.predictVisits(scored, preds); err != nil {
		return nil, err
	}
	return Score(scored, preds, thresholds...), nil
}

// survivors filters test down to the visits that get scored: all of them, or
// only those kept open for at least alpha seconds.
func survivors(test []trace.Visit, alpha float64, applyInterest bool) ([]trace.Visit, error) {
	scored := test
	if applyInterest {
		scored = make([]trace.Visit, 0, len(test))
		for _, v := range test {
			if v.ReadingSeconds < alpha {
				continue
			}
			scored = append(scored, v)
		}
	}
	if len(scored) == 0 {
		return nil, errors.New("predictor: no test visits survive the interest threshold")
	}
	return scored, nil
}

// predictVisits predicts the visits' reading times into out (same length) in
// one batch.
func (p *Predictor) predictVisits(visits []trace.Visit, out []float64) error {
	vs := make([]features.Vector, len(visits))
	for i := range visits {
		vs[i] = visits[i].Features
	}
	_, err := p.PredictBatchVecSeconds(vs, out, nil)
	return err
}

// Split partitions visits into train/test deterministically. testFrac is the
// fraction held out.
func Split(visits []trace.Visit, testFrac float64, seed int64) (train, test []trace.Visit, err error) {
	if len(visits) < 2 {
		return nil, nil, errors.New("predictor: not enough visits to split")
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, fmt.Errorf("predictor: test fraction %v out of (0,1)", testFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(visits))
	nTest := int(float64(len(visits)) * testFrac)
	if nTest == 0 {
		nTest = 1
	}
	test = make([]trace.Visit, 0, nTest)
	train = make([]trace.Visit, 0, len(visits)-nTest)
	for i, idx := range perm {
		if i < nTest {
			test = append(test, visits[idx])
		} else {
			train = append(train, visits[idx])
		}
	}
	return train, test, nil
}

// fileVersion guards the predictor envelope's wire format. Version 2 added
// the explicit version stamp, the feature schema, and the Tp/Td thresholds;
// the unversioned pre-2 form is rejected with a re-save hint.
const fileVersion = 2

// predictorJSON is the deployment envelope: the GBRT forest plus everything
// a serving process needs to answer predict/decide requests — thresholds and
// the feature schema the model was trained against.
type predictorJSON struct {
	Version int `json:"version"`
	// FeatureSchema and NumFeatures pin the input contract; a loader running
	// a different Table 1 layout must refuse the model rather than feed it
	// misaligned columns.
	FeatureSchema   int             `json:"featureSchema"`
	NumFeatures     int             `json:"numFeatures"`
	Alpha           float64         `json:"alpha"`
	TpS             float64         `json:"tp_s"`
	TdS             float64         `json:"td_s"`
	InterestTrained bool            `json:"interestTrained"`
	Model           json.RawMessage `json:"model"`
}

// Save writes the predictor (model + thresholds + schema metadata) as JSON —
// the artifact the paper deploys from the training PC to the phone's
// browser, and the file easerd serves and hot-reloads.
func (p *Predictor) Save(w io.Writer) error {
	var modelBuf bytes.Buffer
	if err := p.model.Save(&modelBuf); err != nil {
		return err
	}
	out := predictorJSON{
		Version:         fileVersion,
		FeatureSchema:   features.SchemaVersion,
		NumFeatures:     p.model.NumFeatures(),
		Alpha:           p.alpha,
		TpS:             p.thresholds.Tp.Seconds(),
		TdS:             p.thresholds.Td.Seconds(),
		InterestTrained: p.interestTrained,
		Model:           json.RawMessage(bytes.TrimSpace(modelBuf.Bytes())),
	}
	if err := json.NewEncoder(w).Encode(out); err != nil {
		return fmt.Errorf("predictor: save: %w", err)
	}
	return nil
}

// LoadPredictor reads a predictor previously written with Save, validating
// the envelope (version, feature schema, thresholds) and the embedded forest
// (gbrt.Load's structural checks).
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var in predictorJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("predictor: load: %w", err)
	}
	if in.Version != fileVersion {
		return nil, fmt.Errorf("predictor: unsupported model file version %d, want %d (re-save with this build)",
			in.Version, fileVersion)
	}
	if in.FeatureSchema != features.SchemaVersion {
		return nil, fmt.Errorf("predictor: model trained against feature schema %d, this build speaks %d",
			in.FeatureSchema, features.SchemaVersion)
	}
	if in.NumFeatures != features.Num {
		return nil, fmt.Errorf("predictor: saved model declares %d features, want %d",
			in.NumFeatures, features.Num)
	}
	if in.Alpha < 0 {
		return nil, errors.New("predictor: negative alpha in saved model")
	}
	if in.TpS <= 0 || in.TdS <= 0 || math.IsNaN(in.TpS) || math.IsNaN(in.TdS) {
		return nil, fmt.Errorf("predictor: thresholds Tp=%v Td=%v must be positive", in.TpS, in.TdS)
	}
	if in.TdS < in.TpS {
		return nil, fmt.Errorf("predictor: Td %vs below Tp %vs (Algorithm 2 needs Td >= Tp)", in.TdS, in.TpS)
	}
	// The thresholds become time.Durations: they must fit one, and Tp must
	// stay positive at nanosecond resolution.
	const maxDurationS = float64(1<<63) / float64(time.Second)
	if in.Alpha >= maxDurationS || in.TdS >= maxDurationS {
		return nil, fmt.Errorf("predictor: alpha %vs or Td %vs exceeds the %.0fs duration range",
			in.Alpha, in.TdS, maxDurationS)
	}
	th := Thresholds{
		Alpha: time.Duration(in.Alpha * float64(time.Second)),
		Tp:    time.Duration(in.TpS * float64(time.Second)),
		Td:    time.Duration(in.TdS * float64(time.Second)),
	}
	if th.Tp <= 0 {
		return nil, fmt.Errorf("predictor: Tp %vs rounds to zero", in.TpS)
	}
	model, err := gbrt.Load(bytes.NewReader(in.Model))
	if err != nil {
		return nil, err
	}
	if model.NumFeatures() != in.NumFeatures {
		return nil, fmt.Errorf("predictor: envelope declares %d features but forest wants %d",
			in.NumFeatures, model.NumFeatures())
	}
	return &Predictor{
		model:           model,
		interestTrained: in.InterestTrained,
		alpha:           in.Alpha,
		thresholds:      th,
	}, nil
}

// SaveFile writes the predictor to path atomically: the bytes land in a
// temporary sibling first and are renamed into place, so a reader (easerd's
// hot reload) never observes a half-written model.
func (p *Predictor) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("predictor: save %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("predictor: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a predictor previously written with SaveFile (or Save).
func LoadFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("predictor: load %s: %w", path, err)
	}
	defer f.Close()
	p, err := LoadPredictor(f)
	if err != nil {
		return nil, fmt.Errorf("predictor: load %s: %w", path, err)
	}
	return p, nil
}
