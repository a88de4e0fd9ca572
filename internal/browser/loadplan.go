package browser

import (
	"eabrowse/internal/cssscan"
	"eabrowse/internal/jsmini"
	"eabrowse/internal/webpage"
)

// loadPlan is the immutable, precomputed parse product of one page: the
// tokenized document streams (main document, subdocuments, script-generated
// fragments), the effects of every script, and the image references of every
// stylesheet. It is built once per page and shared read-only across all
// visits and workers, so the steady-state simulation never re-runs
// htmlscan/cssscan/jsmini — the per-visit pipelines consume the plan and only
// charge the *simulated* parse/scan/execute costs.
//
// Everything reachable from a loadPlan is written only during buildPlan and
// read-only afterwards.
type loadPlan struct {
	// streams holds the tokenized form of every HTML resource, keyed by URL.
	streams map[string]*docStream
	// scripts holds the evaluated effects of every external script, keyed by
	// URL; inline holds the same keyed by the script body.
	scripts map[string]*scriptPlan
	inline  map[string]*scriptPlan
	// cssRefs holds the image references of every stylesheet, keyed by URL
	// (identical for both pipelines: cssscan.Parse and cssscan.ScanRefs are
	// documented to extract the same reference set).
	cssRefs map[string][]string
}

// scriptPlan is the cached evaluation of one script: its effects and, when
// the script document.writes markup, the pre-tokenized fragment stream.
type scriptPlan struct {
	eff       *jsmini.Effects
	effStream *docStream
}

// buildPlan walks the page from its main document, tokenizing every reachable
// HTML stream and evaluating every reachable script exactly once. The engine
// keeps the result as the page's derived value (webpage.Page.Derived), so a
// plan is built once per page and freed with it.
func buildPlan(page *webpage.Page) any {
	p := &loadPlan{
		streams: make(map[string]*docStream),
		scripts: make(map[string]*scriptPlan),
		inline:  make(map[string]*scriptPlan),
		cssRefs: make(map[string][]string),
	}
	var pending []*docStream
	addStream := func(url, body string) {
		if _, done := p.streams[url]; done {
			return
		}
		ds := buildStream(body)
		p.streams[url] = ds
		pending = append(pending, ds)
	}
	evalScript := func(body string) *scriptPlan {
		sp := &scriptPlan{}
		eff, err := jsmini.Run(body)
		if err != nil {
			// A broken script costs its parse time but has no effects, like a
			// browser swallowing a script error.
			sp.eff = &jsmini.Effects{}
			return sp
		}
		sp.eff = eff
		if eff.HTML != "" {
			sp.effStream = buildStream(eff.HTML)
			pending = append(pending, sp.effStream)
		}
		return sp
	}

	if main := page.Main(); main != nil {
		addStream(page.MainURL, main.Body)
	}
	for len(pending) > 0 {
		ds := pending[0]
		pending = pending[1:]
		for i := range ds.items {
			it := &ds.items[i]
			switch it.kind {
			case itemSubdoc:
				if res, ok := page.Resource(it.url); ok {
					addStream(it.url, res.Body)
				}
			case itemCSS:
				if _, done := p.cssRefs[it.url]; done {
					break
				}
				if res, ok := page.Resource(it.url); ok {
					refs, _ := cssscan.ScanRefs(res.Body)
					p.cssRefs[it.url] = refs
				}
			case itemScript:
				if _, done := p.scripts[it.url]; done {
					break
				}
				if res, ok := page.Resource(it.url); ok {
					p.scripts[it.url] = evalScript(res.Body)
				}
			case itemInlineScript:
				if _, done := p.inline[it.body]; done {
					break
				}
				p.inline[it.body] = evalScript(it.body)
			}
		}
	}
	return p
}

// stream returns the cached stream for url, tokenizing body as a fallback
// for resources the plan traversal could not reach.
func (p *loadPlan) stream(url, body string) *docStream {
	if ds, ok := p.streams[url]; ok {
		return ds
	}
	return buildStream(body)
}

// refs returns the cached stylesheet references for url, scanning body as a
// fallback.
func (p *loadPlan) refs(url, body string) []string {
	if refs, ok := p.cssRefs[url]; ok {
		return refs
	}
	refs, _ := cssscan.ScanRefs(body)
	return refs
}

// externalScript returns the cached plan for the external script at url (nil
// if the traversal missed it; callers then evaluate the body directly).
func (p *loadPlan) externalScript(url string) *scriptPlan {
	return p.scripts[url]
}

// inlineScript returns the cached plan for an inline script body.
func (p *loadPlan) inlineScript(body string) *scriptPlan {
	return p.inline[body]
}
