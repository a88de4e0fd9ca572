package predictor

import (
	"errors"
	"fmt"
	"sort"

	"eabrowse/internal/features"
	"eabrowse/internal/runner"
	"eabrowse/internal/trace"
)

// PerUser holds one model per user plus a global fallback — the paper's
// deployment: "the model is trained either offline on a PC or on the
// smartphone when it is connected to a power source", i.e. each phone
// carries its own user's model. Per-user models can absorb the latent
// per-user pace that a global model must treat as noise.
type PerUser struct {
	models map[int]*Predictor
	global *Predictor
	// minVisits is the training-set size below which a user falls back to
	// the global model.
	minVisits int
}

// DefaultMinVisitsPerUser is the fewest visits worth fitting a personal
// model on.
const DefaultMinVisitsPerUser = 40

// TrainPerUser fits a personal model for every user with enough history and
// a shared global fallback for the rest.
func TrainPerUser(visits []trace.Visit, cfg Config) (*PerUser, error) {
	if len(visits) == 0 {
		return nil, errors.New("predictor: no training visits")
	}
	global, err := Train(visits, cfg)
	if err != nil {
		return nil, fmt.Errorf("train global model: %w", err)
	}
	byUser := make(map[int][]trace.Visit)
	for _, v := range visits {
		byUser[v.User] = append(byUser[v.User], v)
	}
	pu := &PerUser{
		models:    make(map[int]*Predictor, len(byUser)),
		global:    global,
		minVisits: DefaultMinVisitsPerUser,
	}
	// Personal models are independent fits, so train them on the worker
	// pool; users are sorted first so the work list is deterministic.
	eligible := make([]int, 0, len(byUser))
	for user, own := range byUser {
		if len(own) >= pu.minVisits {
			eligible = append(eligible, user)
		}
	}
	sort.Ints(eligible)
	models, err := runner.Collect(len(eligible), func(i int) (*Predictor, error) {
		m, err := Train(byUser[eligible[i]], cfg)
		if err != nil {
			// A user whose surviving visits all fall under the interest
			// threshold keeps the global model.
			return nil, nil
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	for i, m := range models {
		if m != nil {
			pu.models[eligible[i]] = m
		}
	}
	return pu, nil
}

// PersonalModels returns how many users got their own model.
func (p *PerUser) PersonalModels() int {
	return len(p.models)
}

// PredictSeconds predicts with the user's model, falling back to the global
// one for unknown or under-trained users.
func (p *PerUser) PredictSeconds(user int, v features.Vector) (float64, error) {
	return p.model(user).PredictSeconds(v)
}

// model is the predictor that serves user.
func (p *PerUser) model(user int) *Predictor {
	if m, ok := p.models[user]; ok {
		return m
	}
	return p.global
}

// Evaluate scores threshold classification like Predictor.Evaluate, routing
// each visit to its user's model. Visits are grouped by the model that
// serves them and predicted in one batch per model; the counts are identical
// to per-visit routing.
func (p *PerUser) Evaluate(test []trace.Visit, applyInterest bool, thresholds ...float64) ([]Accuracy, error) {
	scored, err := survivors(test, p.global.alpha, applyInterest)
	if err != nil {
		return nil, err
	}
	groups := make(map[*Predictor][]trace.Visit)
	for _, v := range scored {
		m := p.model(v.User)
		groups[m] = append(groups[m], v)
	}
	visits := make([]trace.Visit, 0, len(scored))
	preds := make([]float64, len(scored))
	for m, group := range groups {
		lo := len(visits)
		visits = append(visits, group...)
		if err := m.predictVisits(group, preds[lo:len(visits)]); err != nil {
			return nil, err
		}
	}
	return Score(visits, preds, thresholds...), nil
}
