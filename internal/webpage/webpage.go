// Package webpage defines the resource/page object model and generates the
// synthetic benchmark corpora standing in for the paper's Table 3 pages.
//
// The real evaluation used the Alexa top sites, split into a mobile-version
// benchmark (small, simple markup) and a full-version benchmark (large
// object graphs, heavy scripts and stylesheets). Those sites are long gone,
// so the generator builds pages with the same *shape*: object counts, size
// mix, script-discovered fetches and text density are calibrated so the
// simulated browser reproduces the paper's load-time and traffic behaviour
// (e.g. espn.go.com/sports ≈ 760 KB taking ~47 s in the original pipeline
// vs. ~8 s as a raw socket download, Fig. 4).
//
// Pages contain real markup: the HTML, CSS and scripts are actual sources
// parsed by internal/htmlscan, internal/cssscan and internal/jsmini, so both
// browser pipelines discover work the way real ones do.
package webpage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// ResourceType classifies a fetchable resource.
type ResourceType int

const (
	// TypeHTML is a hypertext document (main page or subdocument).
	TypeHTML ResourceType = iota + 1
	// TypeCSS is a stylesheet.
	TypeCSS
	// TypeJS is a script.
	TypeJS
	// TypeImage is an image.
	TypeImage
	// TypeFlash is a multimedia object.
	TypeFlash
)

// String names the resource type.
func (t ResourceType) String() string {
	switch t {
	case TypeHTML:
		return "html"
	case TypeCSS:
		return "css"
	case TypeJS:
		return "js"
	case TypeImage:
		return "image"
	case TypeFlash:
		return "flash"
	default:
		return "unknown"
	}
}

// Resource is one fetchable object of a page.
type Resource struct {
	URL  string
	Type ResourceType
	// Body is the source text for HTML/CSS/JS resources; empty for binary
	// resources (images, flash).
	Body string
	// Bytes is the transfer size. For text resources it equals len(Body).
	Bytes int
}

// Page is a complete webpage: a main document plus every resource reachable
// from it.
type Page struct {
	Name      string
	Mobile    bool
	MainURL   string
	resources map[string]*Resource

	derivedOnce sync.Once
	derived     any
}

// Derived returns the value build derives from the page, calling build at
// most once per page; concurrent callers wait for the first build. The page
// holds the value, so it lives and dies with the page. A page has one derived
// slot: every caller must pass the same builder (the browser keeps its
// precomputed load plan here).
func (p *Page) Derived(build func(*Page) any) any {
	p.derivedOnce.Do(func() { p.derived = build(p) })
	return p.derived
}

// Resource looks up a resource by URL.
func (p *Page) Resource(url string) (*Resource, bool) {
	r, ok := p.resources[url]
	return r, ok
}

// Main returns the main HTML document.
func (p *Page) Main() *Resource {
	return p.resources[p.MainURL]
}

// ResourceCount returns the number of resources (including the main
// document).
func (p *Page) ResourceCount() int {
	return len(p.resources)
}

// TotalBytes returns the sum of all resource transfer sizes.
func (p *Page) TotalBytes() int {
	total := 0
	for _, r := range p.resources {
		total += r.Bytes
	}
	return total
}

// Spec parameterizes the page generator. All sizes are in KB unless noted.
type Spec struct {
	Name   string
	Mobile bool
	Seed   int64

	// TextKB is the size of the main document's text content.
	TextKB int
	// Sections is the number of content sections (each contributes heading,
	// paragraphs and DOM structure).
	Sections int

	// Images is the number of statically referenced images; sizes drawn
	// uniformly from [ImageKBMin, ImageKBMax].
	Images     int
	ImageKBMin int
	ImageKBMax int

	// Stylesheets is the number of external CSS files of CSSKB each, with
	// CSSRules rules and CSSImages url() image references per sheet.
	Stylesheets int
	CSSKB       int
	CSSRules    int
	CSSImages   int

	// Scripts is the number of external scripts; each fetches ScriptFetches
	// additional images, burns ScriptComputeMS of CPU and writes a small
	// amount of markup. ScriptKB is the transfer size of each script.
	Scripts         int
	ScriptKB        int
	ScriptFetches   int
	ScriptComputeMS int

	// InlineScripts embeds that many small scripts directly in the HTML.
	InlineScripts int

	// Flashes is the number of multimedia <object> embeds of FlashKB each.
	Flashes int
	FlashKB int

	// Subdocs is the number of iframes, each with SubdocTextKB of text and
	// SubdocImages images.
	Subdocs      int
	SubdocTextKB int
	SubdocImages int

	// Anchors is the number of outgoing links ("secondary URLs", Table 1).
	Anchors int

	// PageHeightPX / PageWidthPX describe the rendered geometry (Table 1
	// features).
	PageHeightPX int
	PageWidthPX  int
}

// Validate checks the spec for generatability.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("webpage: spec needs a name")
	case s.TextKB <= 0:
		return errors.New("webpage: TextKB must be positive")
	case s.Sections <= 0:
		return errors.New("webpage: Sections must be positive")
	case s.Images < 0 || s.Stylesheets < 0 || s.Scripts < 0 || s.Subdocs < 0 ||
		s.Anchors < 0 || s.Flashes < 0:
		return errors.New("webpage: negative object counts")
	case s.Images > 0 && (s.ImageKBMin <= 0 || s.ImageKBMax < s.ImageKBMin):
		return errors.New("webpage: bad image size range")
	case s.Stylesheets > 0 && s.CSSKB <= 0:
		return errors.New("webpage: stylesheets need CSSKB > 0")
	case s.Scripts > 0 && s.ScriptKB <= 0:
		return errors.New("webpage: scripts need ScriptKB > 0")
	case s.Flashes > 0 && s.FlashKB <= 0:
		return errors.New("webpage: flashes need FlashKB > 0")
	}
	return nil
}

// Generate builds a deterministic page from the spec.
func Generate(spec Spec) (*Page, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eedbead))
	g := &generator{spec: spec, rng: rng, page: &Page{
		Name:      spec.Name,
		Mobile:    spec.Mobile,
		MainURL:   spec.Name + "/index.html",
		resources: make(map[string]*Resource),
	}}
	g.build()
	return g.page, nil
}

type generator struct {
	spec Spec
	rng  *rand.Rand
	page *Page
}

func (g *generator) build() {
	s := g.spec
	var stylesheetURLs, scriptURLs, imageURLs, subdocURLs, flashURLs []string

	for i := 0; i < s.Stylesheets; i++ {
		url := fmt.Sprintf("%s/css/style%d.css", s.Name, i)
		stylesheetURLs = append(stylesheetURLs, url)
		g.addCSS(url, i)
	}
	for i := 0; i < s.Scripts; i++ {
		url := fmt.Sprintf("%s/js/app%d.js", s.Name, i)
		scriptURLs = append(scriptURLs, url)
		g.addScript(url, i)
	}
	for i := 0; i < s.Images; i++ {
		url := fmt.Sprintf("%s/img/pic%d.jpg", s.Name, i)
		imageURLs = append(imageURLs, url)
		g.addImage(url)
	}
	for i := 0; i < s.Subdocs; i++ {
		url := fmt.Sprintf("%s/sub/frame%d.html", s.Name, i)
		subdocURLs = append(subdocURLs, url)
		g.addSubdoc(url, i)
	}
	for i := 0; i < s.Flashes; i++ {
		url := fmt.Sprintf("%s/media/clip%d.swf", s.Name, i)
		flashURLs = append(flashURLs, url)
		g.page.resources[url] = &Resource{URL: url, Type: TypeFlash, Bytes: s.FlashKB * 1024}
	}

	body := g.mainHTML(stylesheetURLs, scriptURLs, imageURLs, subdocURLs, flashURLs)
	g.page.resources[g.page.MainURL] = &Resource{
		URL:   g.page.MainURL,
		Type:  TypeHTML,
		Body:  body,
		Bytes: len(body),
	}
}

// mainHTML lays out the main document: stylesheets in the head, scripts and
// images distributed through the body the way real pages stagger them (this
// staggering is what spreads the original pipeline's transfers out, Fig. 4).
func (g *generator) mainHTML(stylesheets, scripts, images, subdocs, flashes []string) string {
	s := g.spec
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&sb, "<title>%s</title>\n", s.Name)
	for _, u := range stylesheets {
		fmt.Fprintf(&sb, "<link rel=\"stylesheet\" href=\"%s\">\n", u)
	}
	sb.WriteString("</head>\n<body ")
	fmt.Fprintf(&sb, "data-width=\"%d\" data-height=\"%d\">\n", s.PageWidthPX, s.PageHeightPX)

	textBudget := s.TextKB * 1024
	perSection := textBudget / s.Sections
	imgIdx, scriptIdx, anchorIdx, inlineIdx := 0, 0, 0, 0
	for sec := 0; sec < s.Sections; sec++ {
		fmt.Fprintf(&sb, "<div class=\"section s%d\">\n<h2>%s</h2>\n", sec, g.words(4))
		remaining := perSection
		for remaining > 0 {
			chunk := 400 + g.rng.Intn(500)
			if chunk > remaining {
				chunk = remaining
			}
			fmt.Fprintf(&sb, "<p>%s</p>\n", g.text(chunk))
			remaining -= chunk
			// Interleave images and anchors with the text.
			if imgIdx < len(images) && g.rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, "<img src=\"%s\" alt=\"%s\">\n", images[imgIdx], g.words(2))
				imgIdx++
			}
			if anchorIdx < s.Anchors && g.rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "<a href=\"%s/page%d.html\">%s</a>\n", s.Name, anchorIdx, g.words(3))
				anchorIdx++
			}
		}
		// Scripts staggered between sections: the original pipeline must
		// fetch and execute each before discovering what comes after.
		if scriptIdx < len(scripts) {
			fmt.Fprintf(&sb, "<script src=\"%s\"></script>\n", scripts[scriptIdx])
			scriptIdx++
		}
		if inlineIdx < s.InlineScripts {
			fmt.Fprintf(&sb, "<script>%s</script>\n", g.inlineScript(inlineIdx))
			inlineIdx++
		}
	}
	// Flush whatever the interleaving did not place.
	for ; imgIdx < len(images); imgIdx++ {
		fmt.Fprintf(&sb, "<img src=\"%s\">\n", images[imgIdx])
	}
	for ; scriptIdx < len(scripts); scriptIdx++ {
		fmt.Fprintf(&sb, "<script src=\"%s\"></script>\n", scripts[scriptIdx])
	}
	for ; anchorIdx < s.Anchors; anchorIdx++ {
		fmt.Fprintf(&sb, "<a href=\"%s/page%d.html\">%s</a>\n", s.Name, anchorIdx, g.words(2))
	}
	for _, u := range flashes {
		fmt.Fprintf(&sb, "<object data=\"%s\"></object>\n", u)
	}
	for _, u := range subdocs {
		fmt.Fprintf(&sb, "<iframe src=\"%s\"></iframe>\n", u)
	}
	sb.WriteString("</body>\n</html>\n")
	return sb.String()
}

func (g *generator) addCSS(url string, idx int) {
	s := g.spec
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* %s stylesheet %d */\n", s.Name, idx)
	for i := 0; i < s.CSSImages; i++ {
		imgURL := fmt.Sprintf("%s/img/bg%d-%d.png", s.Name, idx, i)
		fmt.Fprintf(&sb, ".bg%d-%d { background: url(%s); }\n", idx, i, imgURL)
		g.addImage(imgURL)
	}
	rules := s.CSSRules
	if rules <= 0 {
		rules = 50
	}
	target := s.CSSKB * 1024
	for i := 0; sb.Len() < target; i++ {
		if i < rules {
			fmt.Fprintf(&sb, ".c%d-%d { color: #%06x; margin: %dpx; padding: %dpx; font-size: %dpx; }\n",
				idx, i, g.rng.Intn(1<<24), g.rng.Intn(32), g.rng.Intn(16), 8+g.rng.Intn(16))
			continue
		}
		// Pad with comments to hit the size without inflating the rule
		// count beyond the spec.
		fmt.Fprintf(&sb, "/* %s */\n", g.text(200))
	}
	body := sb.String()
	g.page.resources[url] = &Resource{URL: url, Type: TypeCSS, Body: body, Bytes: len(body)}
}

func (g *generator) addScript(url string, idx int) {
	s := g.spec
	var sb strings.Builder
	fmt.Fprintf(&sb, "// %s script %d\n", s.Name, idx)
	if s.ScriptFetches > 0 {
		// Alternate loop styles so the interpreter's whole surface is
		// exercised by the corpus, the way real pages vary.
		if idx%2 == 0 {
			fmt.Fprintf(&sb, "for i = 0 to %d {\n", s.ScriptFetches)
			fmt.Fprintf(&sb, "  fetch(\"%s/img/dyn%d-\" + i + \".jpg\");\n", s.Name, idx)
			sb.WriteString("}\n")
		} else {
			sb.WriteString("let i = 0;\n")
			fmt.Fprintf(&sb, "while i < %d {\n", s.ScriptFetches)
			fmt.Fprintf(&sb, "  fetch(\"%s/img/dyn%d-\" + i + \".jpg\");\n", s.Name, idx)
			sb.WriteString("  i = i + 1;\n}\n")
		}
		for i := 0; i < s.ScriptFetches; i++ {
			g.addImage(fmt.Sprintf("%s/img/dyn%d-%d.jpg", s.Name, idx, i))
		}
	}
	if s.ScriptComputeMS > 0 {
		// Budget the work through the builtins on odd scripts.
		if idx%2 == 1 {
			fmt.Fprintf(&sb, "let budget = min(%d, max(%d, floor(%d.5)));\n",
				s.ScriptComputeMS, s.ScriptComputeMS/2, s.ScriptComputeMS)
			sb.WriteString("compute(budget);\n")
		} else {
			fmt.Fprintf(&sb, "compute(%d);\n", s.ScriptComputeMS)
		}
	}
	fmt.Fprintf(&sb, "let label = \"%s\";\n", g.words(2))
	fmt.Fprintf(&sb, "write(\"<div class=dyn%d data-n=\" + len(label) + \">\" + label + \"</div>\");\n", idx)
	target := s.ScriptKB * 1024
	for sb.Len() < target {
		fmt.Fprintf(&sb, "// %s\n", g.text(200))
	}
	body := sb.String()
	g.page.resources[url] = &Resource{URL: url, Type: TypeJS, Body: body, Bytes: len(body)}
}

func (g *generator) inlineScript(idx int) string {
	return fmt.Sprintf("let n%d = %d; write(\"<span>inline \" + n%d + \"</span>\");",
		idx, g.rng.Intn(100), idx)
}

func (g *generator) addImage(url string) {
	s := g.spec
	kb := s.ImageKBMin
	if s.ImageKBMax > s.ImageKBMin {
		kb += g.rng.Intn(s.ImageKBMax - s.ImageKBMin + 1)
	}
	if kb <= 0 {
		kb = 2
	}
	g.page.resources[url] = &Resource{URL: url, Type: TypeImage, Bytes: kb * 1024}
}

func (g *generator) addSubdoc(url string, idx int) {
	s := g.spec
	var sb strings.Builder
	fmt.Fprintf(&sb, "<html><body><h3>%s</h3>\n", g.words(3))
	remaining := s.SubdocTextKB * 1024
	if remaining <= 0 {
		remaining = 2048
	}
	for remaining > 0 {
		chunk := 300 + g.rng.Intn(300)
		if chunk > remaining {
			chunk = remaining
		}
		fmt.Fprintf(&sb, "<p>%s</p>\n", g.text(chunk))
		remaining -= chunk
	}
	for i := 0; i < s.SubdocImages; i++ {
		imgURL := fmt.Sprintf("%s/img/sub%d-%d.jpg", s.Name, idx, i)
		fmt.Fprintf(&sb, "<img src=\"%s\">\n", imgURL)
		g.addImage(imgURL)
	}
	sb.WriteString("</body></html>\n")
	body := sb.String()
	g.page.resources[url] = &Resource{URL: url, Type: TypeHTML, Body: body, Bytes: len(body)}
}

var wordList = []string{
	"news", "market", "mobile", "report", "update", "travel", "sport",
	"score", "video", "photo", "world", "local", "music", "price", "deal",
	"story", "event", "review", "guide", "daily", "radio", "search",
	"weather", "finance", "game", "league", "season", "player", "team",
	"coach", "match", "trade", "stock", "index", "share", "growth",
}

// words returns n space-separated filler words.
func (g *generator) words(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = wordList[g.rng.Intn(len(wordList))]
	}
	return strings.Join(parts, " ")
}

// text returns roughly byteLen bytes of filler prose.
func (g *generator) text(byteLen int) string {
	var sb strings.Builder
	for sb.Len() < byteLen {
		sb.WriteString(wordList[g.rng.Intn(len(wordList))])
		sb.WriteByte(' ')
	}
	return sb.String()
}
