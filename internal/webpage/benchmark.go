package webpage

import (
	"fmt"

	"eabrowse/internal/runner"
)

// The benchmark corpora mirror Table 3 of the paper: ten mobile-version
// pages and ten full-version pages. Each spec is a synthetic stand-in whose
// object-graph shape (total bytes, object count, script behaviour, text
// density) is calibrated so the simulated pipelines reproduce the paper's
// measured load times and savings. Individual pages vary around the corpus
// baseline the way real sites did.

// MobilePageNames lists the mobile-version benchmark (Table 3, left column).
var MobilePageNames = []string{
	"m.cnn.com", "m.ebay.com", "m.espn.go.com", "m.amazon.com", "m.msn.com",
	"m.myspace.com", "m.bbc.co.uk", "m.aol.com", "m.nytimes.com", "m.youtube.com",
}

// FullPageNames lists the full-version benchmark (Table 3, right column).
var FullPageNames = []string{
	"edition.cnn.com/WORLD", "www.motors.ebay.com", "espn.go.com/sports",
	"www.amazon.com", "home.autos.msn.com", "www.myspace.com/music",
	"bbc.com/travel", "www.popeater.com/celebrities", "www.apple.com",
	"hotjobs.yahoo.com",
}

// MobileSpec returns the generator spec for the i-th mobile benchmark page.
func MobileSpec(i int) (Spec, error) {
	if i < 0 || i >= len(MobilePageNames) {
		return Spec{}, fmt.Errorf("webpage: mobile page index %d out of range", i)
	}
	// Small pages: tens of KB, a handful of objects, minimal scripting.
	return Spec{
		Name:            MobilePageNames[i],
		Mobile:          true,
		Seed:            int64(1000 + i),
		TextKB:          10 + i%4*2,
		Sections:        3 + i%3,
		Images:          6 + i%5,
		ImageKBMin:      2,
		ImageKBMax:      5,
		Stylesheets:     1,
		CSSKB:           5 + i%3,
		CSSRules:        60,
		CSSImages:       1,
		Scripts:         3,
		ScriptKB:        3,
		ScriptFetches:   2,
		ScriptComputeMS: 150,
		InlineScripts:   1,
		Anchors:         10 + i%6,
		PageHeightPX:    1200 + 100*(i%5),
		PageWidthPX:     320,
	}, nil
}

// FullSpec returns the generator spec for the i-th full benchmark page.
func FullSpec(i int) (Spec, error) {
	if i < 0 || i >= len(FullPageNames) {
		return Spec{}, fmt.Errorf("webpage: full page index %d out of range", i)
	}
	// Large pages: hundreds of KB, dozens of objects, heavy scripts whose
	// execution discovers further fetches, big stylesheets.
	return Spec{
		Name:            FullPageNames[i],
		Mobile:          false,
		Seed:            int64(2000 + i),
		TextKB:          70 + i%5*10,
		Sections:        10 + i%4,
		Images:          18 + i%7*2,
		ImageKBMin:      6,
		ImageKBMax:      14,
		Stylesheets:     2,
		CSSKB:           28 + i%3*6,
		CSSRules:        400,
		CSSImages:       3,
		Scripts:         4,
		ScriptKB:        18 + i%3*4,
		ScriptFetches:   5,
		ScriptComputeMS: 700 + 100*(i%3),
		InlineScripts:   2,
		Flashes:         1,
		FlashKB:         20,
		Subdocs:         1,
		SubdocTextKB:    6,
		SubdocImages:    2,
		Anchors:         35 + i%10,
		PageHeightPX:    5200 + 300*(i%6),
		PageWidthPX:     1000,
	}, nil
}

// BenchmarkPageNames lists every benchmark page name, mobile corpus first —
// the valid inputs to name-based page lookups.
func BenchmarkPageNames() []string {
	names := make([]string, 0, len(MobilePageNames)+len(FullPageNames))
	names = append(names, MobilePageNames...)
	return append(names, FullPageNames...)
}

// MobileBenchmark generates the full mobile-version corpus. Each page is
// generated from its own seed, so generation parallelizes without changing
// the corpus.
func MobileBenchmark() ([]*Page, error) {
	return generateCorpus(len(MobilePageNames), MobileSpec)
}

// FullBenchmark generates the full-version corpus.
func FullBenchmark() ([]*Page, error) {
	return generateCorpus(len(FullPageNames), FullSpec)
}

func generateCorpus(n int, specAt func(int) (Spec, error)) ([]*Page, error) {
	return runner.Collect(n, func(i int) (*Page, error) {
		spec, err := specAt(i)
		if err != nil {
			return nil, err
		}
		p, err := Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		return p, nil
	})
}
