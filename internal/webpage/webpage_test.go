package webpage

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"eabrowse/internal/cssscan"
	"eabrowse/internal/htmlscan"
	"eabrowse/internal/jsmini"
)

func testSpec() Spec {
	return Spec{
		Name:            "test.example.com",
		Seed:            7,
		TextKB:          20,
		Sections:        4,
		Images:          8,
		ImageKBMin:      3,
		ImageKBMax:      9,
		Stylesheets:     2,
		CSSKB:           10,
		CSSRules:        100,
		CSSImages:       2,
		Scripts:         2,
		ScriptKB:        6,
		ScriptFetches:   3,
		ScriptComputeMS: 200,
		InlineScripts:   1,
		Subdocs:         1,
		SubdocTextKB:    4,
		SubdocImages:    2,
		Anchors:         12,
		PageHeightPX:    3000,
		PageWidthPX:     980,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testSpec())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(testSpec())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if a.Main().Body != b.Main().Body {
		t.Fatal("same seed produced different main HTML")
	}
	if a.TotalBytes() != b.TotalBytes() {
		t.Fatalf("TotalBytes %d != %d", a.TotalBytes(), b.TotalBytes())
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	s1 := testSpec()
	s2 := testSpec()
	s2.Seed = 99
	a, err := Generate(s1)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(s2)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if a.Main().Body == b.Main().Body {
		t.Fatal("different seeds produced identical HTML")
	}
}

func TestSpecValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"no text", func(s *Spec) { s.TextKB = 0 }},
		{"no sections", func(s *Spec) { s.Sections = 0 }},
		{"negative images", func(s *Spec) { s.Images = -1 }},
		{"bad image range", func(s *Spec) { s.ImageKBMin = 5; s.ImageKBMax = 3 }},
		{"css no size", func(s *Spec) { s.CSSKB = 0 }},
		{"script no size", func(s *Spec) { s.ScriptKB = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := testSpec()
			tt.mutate(&spec)
			if _, err := Generate(spec); err == nil {
				t.Fatal("Generate succeeded with invalid spec")
			}
		})
	}
}

func TestAllRefsResolve(t *testing.T) {
	page, err := Generate(testSpec())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	checkDocRefs(t, page, page.Main().Body)
}

// checkDocRefs walks a document and asserts every fetchable reference (from
// HTML, CSS and executed scripts) resolves to a page resource.
func checkDocRefs(t *testing.T, page *Page, html string) {
	t.Helper()
	doc := htmlscan.Parse(html)
	for _, ref := range doc.Refs {
		if !ref.Kind.Fetchable() {
			continue
		}
		res, ok := page.Resource(ref.URL)
		if !ok {
			t.Fatalf("unresolved ref %v", ref)
		}
		switch ref.Kind {
		case htmlscan.RefStylesheet:
			if res.Type != TypeCSS {
				t.Fatalf("ref %v resolves to %v", ref, res.Type)
			}
			cssRefs, _ := cssscan.ScanRefs(res.Body)
			for _, u := range cssRefs {
				if _, ok := page.Resource(u); !ok {
					t.Fatalf("unresolved CSS ref %q", u)
				}
			}
		case htmlscan.RefScript:
			if res.Type != TypeJS {
				t.Fatalf("ref %v resolves to %v", ref, res.Type)
			}
			eff, err := jsmini.Run(res.Body)
			if err != nil {
				t.Fatalf("script %s does not run: %v", res.URL, err)
			}
			for _, u := range eff.Fetches {
				if _, ok := page.Resource(u); !ok {
					t.Fatalf("unresolved script fetch %q", u)
				}
			}
		case htmlscan.RefSubdocument:
			if res.Type != TypeHTML {
				t.Fatalf("ref %v resolves to %v", ref, res.Type)
			}
			checkDocRefs(t, page, res.Body)
		}
	}
	for _, src := range doc.InlineScripts {
		if _, err := jsmini.Run(src); err != nil {
			t.Fatalf("inline script does not run: %v", err)
		}
	}
}

func TestResourceSizesMatchBodies(t *testing.T) {
	page, err := Generate(testSpec())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	total := 0
	for _, name := range []string{page.MainURL} {
		r, ok := page.Resource(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if r.Bytes != len(r.Body) {
			t.Fatalf("%s: Bytes=%d len(Body)=%d", name, r.Bytes, len(r.Body))
		}
		total += r.Bytes
	}
	if total == 0 {
		t.Fatal("main document empty")
	}
}

func TestCSSHasSpecRuleCount(t *testing.T) {
	page, err := Generate(testSpec())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	css, ok := page.Resource("test.example.com/css/style0.css")
	if !ok {
		t.Fatal("stylesheet missing")
	}
	sheet := cssscan.Parse(css.Body)
	// Spec rules plus the CSSImages background rules.
	want := testSpec().CSSRules + testSpec().CSSImages
	if sheet.Rules != want {
		t.Fatalf("Rules = %d, want %d", sheet.Rules, want)
	}
}

func TestScriptEffectsMatchSpec(t *testing.T) {
	spec := testSpec()
	page, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	js, ok := page.Resource("test.example.com/js/app0.js")
	if !ok {
		t.Fatal("script missing")
	}
	eff, err := jsmini.Run(js.Body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(eff.Fetches) != spec.ScriptFetches {
		t.Fatalf("Fetches = %d, want %d", len(eff.Fetches), spec.ScriptFetches)
	}
	if eff.ComputeMillis != float64(spec.ScriptComputeMS) {
		t.Fatalf("ComputeMillis = %v, want %d", eff.ComputeMillis, spec.ScriptComputeMS)
	}
	if !strings.Contains(eff.HTML, "<div") {
		t.Fatalf("script writes no markup: %q", eff.HTML)
	}
}

func TestAnchorCount(t *testing.T) {
	spec := testSpec()
	page, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	doc := htmlscan.Parse(page.Main().Body)
	anchors := 0
	for _, ref := range doc.Refs {
		if ref.Kind == htmlscan.RefAnchor {
			anchors++
		}
	}
	if anchors != spec.Anchors {
		t.Fatalf("anchors = %d, want %d", anchors, spec.Anchors)
	}
}

func TestMainTextSizeApproximate(t *testing.T) {
	spec := testSpec()
	page, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	doc := htmlscan.Parse(page.Main().Body)
	want := spec.TextKB * 1024
	if doc.TextBytes < want*8/10 || doc.TextBytes > want*13/10 {
		t.Fatalf("TextBytes = %d, want ≈%d", doc.TextBytes, want)
	}
}

func TestMobileBenchmark(t *testing.T) {
	pages, err := MobileBenchmark()
	if err != nil {
		t.Fatalf("MobileBenchmark: %v", err)
	}
	if len(pages) != len(MobilePageNames) {
		t.Fatalf("got %d pages, want %d", len(pages), len(MobilePageNames))
	}
	for _, p := range pages {
		if !p.Mobile {
			t.Fatalf("%s not marked mobile", p.Name)
		}
		kb := p.TotalBytes() / 1024
		if kb < 20 || kb > 200 {
			t.Fatalf("%s total %d KB, want mobile-scale (20-200)", p.Name, kb)
		}
	}
}

func TestFullBenchmark(t *testing.T) {
	pages, err := FullBenchmark()
	if err != nil {
		t.Fatalf("FullBenchmark: %v", err)
	}
	if len(pages) != len(FullPageNames) {
		t.Fatalf("got %d pages, want %d", len(pages), len(FullPageNames))
	}
	for _, p := range pages {
		if p.Mobile {
			t.Fatalf("%s marked mobile", p.Name)
		}
		kb := p.TotalBytes() / 1024
		if kb < 300 || kb > 1200 {
			t.Fatalf("%s total %d KB, want full-scale (300-1200)", p.Name, kb)
		}
	}
}

func TestESPNSportsSize(t *testing.T) {
	spec, err := FullSpec(2)
	if err != nil {
		t.Fatalf("FullSpec: %v", err)
	}
	page, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	kb := page.TotalBytes() / 1024
	// The paper's espn.go.com/sports was 760 KB; stay in that ballpark.
	if kb < 500 || kb > 1000 {
		t.Fatalf("espn total = %d KB, want ≈760", kb)
	}
}

// TestNamedPages pins the corpus positions the experiments' named pages
// occupy.
func TestNamedPages(t *testing.T) {
	for _, tc := range []struct {
		spec   func(int) (Spec, error)
		i      int
		name   string
		mobile bool
	}{
		{MobileSpec, 0, "m.cnn.com", true},
		{FullSpec, 1, "www.motors.ebay.com", false},
		{FullSpec, 2, "espn.go.com/sports", false},
	} {
		spec, err := tc.spec(tc.i)
		if err != nil {
			t.Fatalf("spec %d: %v", tc.i, err)
		}
		if spec.Name != tc.name || spec.Mobile != tc.mobile {
			t.Fatalf("spec %d = %s mobile=%v, want %s mobile=%v",
				tc.i, spec.Name, spec.Mobile, tc.name, tc.mobile)
		}
	}
}

// TestDerivedBuildsOnce: concurrent callers share one build of the page's
// derived value.
func TestDerivedBuildsOnce(t *testing.T) {
	spec, err := MobileSpec(0)
	if err != nil {
		t.Fatalf("MobileSpec: %v", err)
	}
	page, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var builds atomic.Int32
	build := func(p *Page) any {
		builds.Add(1)
		return p.Name
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := page.Derived(build); got != "m.cnn.com" {
				t.Errorf("Derived = %v", got)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
}

func TestBenchmarkRefsAllResolve(t *testing.T) {
	mobile, err := MobileBenchmark()
	if err != nil {
		t.Fatalf("MobileBenchmark: %v", err)
	}
	full, err := FullBenchmark()
	if err != nil {
		t.Fatalf("FullBenchmark: %v", err)
	}
	for _, p := range append(mobile, full...) {
		checkDocRefs(t, p, p.Main().Body)
	}
}

func TestSpecIndexBounds(t *testing.T) {
	if _, err := MobileSpec(-1); err == nil {
		t.Fatal("MobileSpec(-1) succeeded")
	}
	if _, err := MobileSpec(len(MobilePageNames)); err == nil {
		t.Fatal("MobileSpec(out of range) succeeded")
	}
	if _, err := FullSpec(len(FullPageNames)); err == nil {
		t.Fatal("FullSpec(out of range) succeeded")
	}
}

func TestResourceTypeString(t *testing.T) {
	tests := []struct {
		give ResourceType
		want string
	}{
		{TypeHTML, "html"},
		{TypeCSS, "css"},
		{TypeJS, "js"},
		{TypeImage, "image"},
		{TypeFlash, "flash"},
		{ResourceType(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Fatalf("String = %q, want %q", got, tt.want)
		}
	}
}

// TestPropertyGenerateAlwaysResolves: random small specs generate pages whose
// references all resolve — the invariant the browser engines depend on.
func TestPropertyGenerateAlwaysResolves(t *testing.T) {
	f := func(seed int64, img, scripts uint8) bool {
		spec := Spec{
			Name:          "prop.example.com",
			Seed:          seed,
			TextKB:        5,
			Sections:      2,
			Images:        int(img % 10),
			ImageKBMin:    1,
			ImageKBMax:    4,
			Stylesheets:   1,
			CSSKB:         3,
			CSSRules:      20,
			CSSImages:     1,
			Scripts:       int(scripts % 4),
			ScriptKB:      2,
			ScriptFetches: 2,
			Anchors:       3,
		}
		page, err := Generate(spec)
		if err != nil {
			return false
		}
		doc := htmlscan.Parse(page.Main().Body)
		for _, ref := range doc.Refs {
			if !ref.Kind.Fetchable() {
				continue
			}
			if _, ok := page.Resource(ref.URL); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
