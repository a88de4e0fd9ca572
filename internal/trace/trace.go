// Package trace synthesizes the browsing traces of Section 5.1.3. The paper
// distributed phones to 40 students, logged ≥2 hours of browsing each, and
// derived per-page reading times (discarding reads over 10 minutes).
//
// Those traces are unavailable, so this synthesizer reproduces their
// published marginal statistics while keeping a latent structure a GBRT can
// learn:
//
//   - the reading-time CDF matches Fig. 7 (≈30% under 2 s, ≈53% under 9 s,
//     ≈68% under 20 s);
//   - reading time has near-zero Pearson correlation with every individual
//     Table 1 feature (Table 4) — the dependence is through *interactions*
//     of features (step functions of text density, page height, figure
//     ratio), which is exactly why the paper needs trees instead of a
//     linear model;
//   - a latent per-user interest term makes ≈30% of visits quick abandons
//     whose reading time is independent of the page — the component the
//     interest threshold α removes (Section 4.3.4).
//
// Feature vectors are not invented: each pool page is actually loaded once
// through the energy-aware pipeline and its Table 1 features extracted from
// the real load.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"eabrowse/internal/browser"
	"eabrowse/internal/features"
	"eabrowse/internal/netsim"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
	"eabrowse/internal/webpage"
)

// Visit is one page view in a user's trace.
type Visit struct {
	User    int
	Session int
	Page    string
	// Features is the Table 1 vector collected when the page was opened.
	Features features.Vector
	// ReadingSeconds is the time from the page being fully opened to the
	// next click (the prediction target).
	ReadingSeconds float64
	// Interested reports the latent engagement state (not observable by the
	// predictor; used by oracle experiments).
	Interested bool
	// Pool is the index of Page in the pool the visit was drawn from
	// (Dataset.Pool, Stream.Pool), so per-page tables can be indexed densely
	// instead of by name. An int32 beside Interested fills that field's
	// padding, which keeps a Visit at 128 bytes on 64-bit platforms.
	Pool int32
}

// Dataset is a full synthesized trace.
type Dataset struct {
	Visits []Visit
	// Pool is the distinct pages the visits draw from.
	Pool []PoolPage
}

// PoolPage is one distinct page users visit, with its measured features.
type PoolPage struct {
	Name     string
	Category int
	Mobile   bool
	Features features.Vector
	// Page is the generated page itself, so downstream experiments (the
	// Fig. 16 policy comparison) can load it through either pipeline.
	Page *webpage.Page
	// engagedMedian is the latent median reading time of engaged visits.
	engagedMedian float64
}

// Config parameterizes the synthesizer.
type Config struct {
	// Users is the number of participants (paper: 40).
	Users int
	// HoursPerUser is the browsing time logged per user (paper: ≥2h).
	HoursPerUser float64
	// PoolSize is the number of distinct pages in circulation.
	PoolSize int
	// Categories is the number of content categories (game, finance, ...).
	Categories int
	// LikedCategories is how many categories each user cares about.
	LikedCategories int
	// CapSeconds discards reads longer than this (paper: 10 minutes).
	CapSeconds float64
	// Seed makes the synthesis reproducible.
	Seed int64
}

// DefaultConfig mirrors the paper's collection setup.
func DefaultConfig() Config {
	return Config{
		Users:           40,
		HoursPerUser:    2,
		PoolSize:        60,
		Categories:      8,
		LikedCategories: 3,
		CapSeconds:      600,
		Seed:            20130708,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Users <= 0:
		return errors.New("trace: need at least one user")
	case c.HoursPerUser <= 0:
		return errors.New("trace: hours per user must be positive")
	case c.PoolSize <= 0:
		return errors.New("trace: pool must not be empty")
	case c.Categories <= 0 || c.LikedCategories <= 0 || c.LikedCategories > c.Categories:
		return errors.New("trace: bad category setup")
	case c.CapSeconds <= 0:
		return errors.New("trace: cap must be positive")
	}
	return nil
}

// Synthesize builds a dataset: a page pool with real measured features, then
// per-user sessions with latent-interest reading times.
func Synthesize(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool, err := buildPool(cfg, rng)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Pool: pool}
	st := &Stream{cfg: cfg, pool: pool}
	for u := 0; u < cfg.Users; u++ {
		ds.Visits = st.appendVisits(rng, u, ds.Visits)
	}
	if len(ds.Visits) == 0 {
		return nil, errors.New("trace: synthesis produced no visits")
	}
	return ds, nil
}

// buildPool generates PoolSize distinct pages (a mobile/full mix around the
// benchmark baselines) and loads each once through the energy-aware pipeline
// to measure its Table 1 features.
//
// The specs are drawn from rng sequentially first — the synthesizer's rng
// call order is part of the reproducibility contract — and only then are the
// pages generated and measured on the worker pool (each page load runs on its
// own simulated phone, so the measurements are independent).
func buildPool(cfg Config, rng *rand.Rand) ([]PoolPage, error) {
	specs := make([]webpage.Spec, cfg.PoolSize)
	for i := 0; i < cfg.PoolSize; i++ {
		specs[i] = poolSpec(i, i%2 == 0, rng)
	}
	return runner.Collect(cfg.PoolSize, func(i int) (PoolPage, error) {
		page, err := webpage.Generate(specs[i])
		if err != nil {
			return PoolPage{}, fmt.Errorf("pool page %d: %w", i, err)
		}
		vec, err := measureFeatures(page)
		if err != nil {
			return PoolPage{}, fmt.Errorf("measure pool page %d: %w", i, err)
		}
		pp := PoolPage{
			Name:     specs[i].Name,
			Category: i % cfg.Categories,
			Mobile:   specs[i].Mobile,
			Features: vec,
			Page:     page,
		}
		pp.engagedMedian = engagedMedian(vec)
		return pp, nil
	})
}

func poolSpec(i int, mobile bool, rng *rand.Rand) webpage.Spec {
	name := fmt.Sprintf("pool%02d.example.com", i)
	if mobile {
		return webpage.Spec{
			Name: name, Mobile: true, Seed: int64(9000 + i),
			TextKB:   6 + rng.Intn(14),
			Sections: 2 + rng.Intn(4),
			Images:   3 + rng.Intn(9), ImageKBMin: 2, ImageKBMax: 6,
			Stylesheets: 1, CSSKB: 4 + rng.Intn(5), CSSRules: 40 + rng.Intn(60), CSSImages: 1,
			Scripts: 1 + rng.Intn(3), ScriptKB: 2 + rng.Intn(4),
			ScriptFetches: 1 + rng.Intn(3), ScriptComputeMS: 80 + rng.Intn(250),
			InlineScripts: rng.Intn(2),
			Anchors:       4 + rng.Intn(20),
			PageHeightPX:  900 + rng.Intn(2200), PageWidthPX: 320,
		}
	}
	return webpage.Spec{
		Name: name, Mobile: false, Seed: int64(9000 + i),
		TextKB:   30 + rng.Intn(90),
		Sections: 6 + rng.Intn(8),
		Images:   8 + rng.Intn(24), ImageKBMin: 4, ImageKBMax: 16,
		Stylesheets: 1 + rng.Intn(2), CSSKB: 15 + rng.Intn(30),
		CSSRules: 200 + rng.Intn(400), CSSImages: 1 + rng.Intn(4),
		Scripts: 2 + rng.Intn(4), ScriptKB: 8 + rng.Intn(18),
		ScriptFetches: 2 + rng.Intn(6), ScriptComputeMS: 300 + rng.Intn(700),
		InlineScripts: rng.Intn(3),
		Subdocs:       rng.Intn(2), SubdocTextKB: 4, SubdocImages: 2,
		Anchors:      15 + rng.Intn(45),
		PageHeightPX: 2500 + rng.Intn(5500), PageWidthPX: 1000,
	}
}

// measureFeatures loads a page once on a fresh simulated phone (energy-aware
// pipeline, as the prototype would) and extracts the Table 1 vector. It is
// the one page load left on the package defaults: the features are timings
// measured on the paper's collection phone, which is part of the trace, not
// of the physics an experiment runs under.
func measureFeatures(page *webpage.Page) (features.Vector, error) {
	res, err := browser.LoadFresh(page, browser.ModeEnergyAware, rrc.DefaultConfig(),
		netsim.DefaultConfig(), browser.DefaultCostModel(), nil)
	if err != nil {
		return features.Vector{}, err
	}
	return features.FromResult(res)
}

func pickLiked(rng *rand.Rand, categories, liked int) []bool {
	out := make([]bool, categories)
	perm := rng.Perm(categories)
	for i := 0; i < liked; i++ {
		out[perm[i]] = true
	}
	return out
}

// engaged decides whether the user actually reads the page. Liked topics
// keep attention most of the time; others are usually bounced.
func engaged(rng *rand.Rand, likesCategory bool) bool {
	p := 0.56
	if likesCategory {
		p = 0.92
	}
	return rng.Float64() < p
}

// readingTime draws a reading time. Abandoned visits are short and carry no
// feature signal; engaged visits are lognormal around a median determined by
// feature *interactions* (see engagedMedian).
func readingTime(rng *rand.Rand, page *PoolPage, interested bool, userFactor float64) float64 {
	if !interested {
		// Quick bounce: glance, go back. Independent of page content.
		return 0.3 + rng.ExpFloat64()*0.8
	}
	return page.engagedMedian * userFactor * math.Exp(rng.NormFloat64()*0.32)
}

// engagedMedian maps a feature vector to the median engaged reading time.
// The dependence is deliberately built from step functions and interactions
// with mixed signs, using class-relative thresholds (mobile vs. full pages
// differ on every raw size feature), so that every single feature's linear
// correlation with reading time stays near zero (Table 4) while trees can
// still recover the structure (Fig. 15).
func engagedMedian(v features.Vector) float64 {
	mobile := v[features.PageWidth] < 500
	density := v[features.WebpageSizeKB] / math.Max(v[features.DownloadObjects], 1)
	figShare := v[features.FigureSizeKB] /
		math.Max(v[features.FigureSizeKB]+v[features.WebpageSizeKB], 1)
	// Page length in viewport units is comparable across classes.
	lengthR := v[features.PageHeight] / math.Max(v[features.PageWidth], 1)
	jsTime := v[features.JSRunningTime]

	denseCut, jsCut, linkCut, objCut := 4.4, 3.0, 45.0, 46.0
	if mobile {
		denseCut, jsCut, linkCut, objCut = 1.75, 0.62, 15, 15
	}

	// Multiplicative step factors spread the engaged medians over two
	// orders of magnitude: the Fig. 7 CDF's spread comes from *pages*, not
	// from per-visit noise, which is what makes the reading time learnable
	// (Fig. 15) despite the near-zero linear correlations (Table 4).
	m := 5.4
	if density > denseCut {
		m *= 5.5 // text-dense pages hold attention
	} else {
		m *= 0.85
	}
	switch {
	case lengthR > 6.3:
		m *= 2.4 // long pages take longer to scroll through
	case lengthR > 3.5:
		m *= 1.35
	}
	if figShare > 0.52 {
		m *= 0.45 // galleries get skimmed
	}
	if jsTime > jsCut && density <= denseCut {
		m *= 2.6 // interactive app-like pages despite little text
	}
	if v[features.SecondURL] > linkCut && lengthR <= 6.3 {
		m *= 0.78 // link farms are navigated away from quickly
	}
	if figShare < 0.28 && density > denseCut {
		m *= 2.0 // long-form articles
	}
	if v[features.DownloadObjects] > objCut {
		m *= 1.9 // busy portal pages: many items to look through
	}
	return math.Min(math.Max(m, 1.5), 200)
}
