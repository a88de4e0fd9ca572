package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"eabrowse/internal/policy"
)

// claimRun holds the experiment results the claim rows are measured on.
type claimRun struct {
	fig3   *Fig3Result
	fig4   *Fig4Result
	table4 *Table4Result
	fig7   *Fig7Result
	fig8   *Fig8Result
	fig9   *Fig9Result
	fig10  *Fig10Result
	fig11  *Fig11Result
	fig12  *Fig12Result
	fig14  *Fig14Result
	fig15  *Fig15Result
	fig16  *Fig16Result
	table7 []Table7Row
}

// claimSteps runs each experiment a claim row is measured on.
var claimSteps = []struct {
	name string
	run  func(r *claimRun) error
}{
	{"Fig3", func(r *claimRun) (err error) { r.fig3, err = Fig3(); return }},
	{"Fig4", func(r *claimRun) (err error) { r.fig4, err = Fig4(); return }},
	{"Table4", func(r *claimRun) (err error) { r.table4, err = Table4(); return }},
	{"Fig7", func(r *claimRun) (err error) { r.fig7, err = Fig7(); return }},
	{"Fig8", func(r *claimRun) (err error) { r.fig8, err = Fig8(); return }},
	{"Fig9", func(r *claimRun) (err error) { r.fig9, err = Fig9(); return }},
	{"Fig10", func(r *claimRun) (err error) { r.fig10, err = Fig10(); return }},
	{"Fig11", func(r *claimRun) (err error) { r.fig11, err = Fig11(); return }},
	{"Fig12", func(r *claimRun) (err error) { r.fig12, err = Fig12(); return }},
	{"Fig14", func(r *claimRun) (err error) { r.fig14, err = Fig14(); return }},
	{"Fig15", func(r *claimRun) (err error) { r.fig15, err = Fig15(); return }},
	{"Fig16", func(r *claimRun) (err error) { r.fig16, err = Fig16(); return }},
	{"Table7", func(r *claimRun) (err error) { r.table7, err = Table7(); return }},
}

// sharedClaimRun keeps each experiment's result for the whole test binary,
// so TestPaperClaims and the per-figure band tests run it once between them.
var sharedClaimRun struct {
	sync.Mutex
	claimRun
	done map[string]bool
}

// claimResults runs the named experiments (every one when names is empty)
// that have not run yet, and returns the shared results.
func claimResults(t *testing.T, names ...string) *claimRun {
	t.Helper()
	s := &sharedClaimRun
	s.Lock()
	defer s.Unlock()
	if s.done == nil {
		s.done = make(map[string]bool)
	}
	for _, step := range claimSteps {
		if s.done[step.name] || (len(names) > 0 && !slices.Contains(names, step.name)) {
			continue
		}
		if err := step.run(&s.claimRun); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		s.done[step.name] = true
	}
	return &s.claimRun
}

func (r *claimRun) fig3At(intervalS float64) float64 {
	for _, p := range r.fig3.Points {
		if p.IntervalS == intervalS {
			return p.SavingJ
		}
	}
	return math.NaN()
}

func (r *claimRun) fig16Case(c policy.Case) policy.CaseResult {
	for _, cr := range r.fig16.Cases {
		if cr.Case == c {
			return cr
		}
	}
	return policy.CaseResult{PowerSavingPct: math.NaN(), DelaySavingPct: math.NaN()}
}

func (r *claimRun) table7At(trees int) Table7Row {
	for _, row := range r.table7 {
		if row.Trees == trees {
			return row
		}
	}
	return Table7Row{TimeSeconds: math.NaN(), EnergyJ: math.NaN()}
}

// claimMeasures reads each claim's measured value off the run, and gives the
// decimals EXPERIMENTS.md shows it with.
var claimMeasures = [numClaims]struct {
	digits int
	of     func(*claimRun) float64
}{
	ClaimFig3Crossover: {0, func(r *claimRun) float64 { return r.fig3.CrossoverS }},
	ClaimFig3Saving24:  {1, func(r *claimRun) float64 { return r.fig3At(24) }},
	ClaimFig4Browser:   {1, func(r *claimRun) float64 { return r.fig4.BrowserTotalS }},
	ClaimFig4Socket:    {1, func(r *claimRun) float64 { return r.fig4.BulkTotalS }},
	ClaimFig4Slowdown:  {1, func(r *claimRun) float64 { return r.fig4.BrowserTotalS / r.fig4.BulkTotalS }},
	ClaimTable4MaxR:    {4, func(r *claimRun) float64 { return r.table4.MaxAbs }},
	ClaimFig7Under2:    {1, func(r *claimRun) float64 { return r.fig7.Under2Pct }},
	ClaimFig7Under9:    {1, func(r *claimRun) float64 { return r.fig7.Under9Pct }},
	ClaimFig7Under20:   {1, func(r *claimRun) float64 { return r.fig7.Under20Pct }},
	ClaimFig8MobileTrans: {1, func(r *claimRun) float64 {
		return r.fig8.Mobile.TransmissionSavingPct()
	}},
	ClaimFig8MobileTotal: {1, func(r *claimRun) float64 { return r.fig8.Mobile.TotalSavingPct() }},
	ClaimFig8FullTrans:   {1, func(r *claimRun) float64 { return r.fig8.Full.TransmissionSavingPct() }},
	ClaimFig8FullTotal:   {1, func(r *claimRun) float64 { return r.fig8.Full.TotalSavingPct() }},
	ClaimFig8MCNNTrans:   {1, func(r *claimRun) float64 { return r.fig8.MCNN.TransmissionSavingPct() }},
	ClaimFig8MCNNTotal:   {1, func(r *claimRun) float64 { return r.fig8.MCNN.TotalSavingPct() }},
	ClaimFig8EbayTrans: {1, func(r *claimRun) float64 {
		return r.fig8.MotorsEbay.TransmissionSavingPct()
	}},
	ClaimFig9OrigTrans:  {1, func(r *claimRun) float64 { return r.fig9.OrigTransmissionS }},
	ClaimFig9AwareTrans: {1, func(r *claimRun) float64 { return r.fig9.AwareTransmissionS }},
	ClaimFig10Mobile:    {1, func(r *claimRun) float64 { return r.fig10.Mobile.EnergySavingPct() }},
	ClaimFig10Full:      {1, func(r *claimRun) float64 { return r.fig10.Full.EnergySavingPct() }},
	ClaimFig10MCNN:      {1, func(r *claimRun) float64 { return r.fig10.MCNN.EnergySavingPct() }},
	ClaimFig10ESPN:      {1, func(r *claimRun) float64 { return r.fig10.ESPN.EnergySavingPct() }},
	ClaimFig10Headline: {1, func(r *claimRun) float64 {
		f := r.fig10
		return min(f.Mobile.EnergySavingPct(), f.Full.EnergySavingPct(), f.MCNN.EnergySavingPct(), f.ESPN.EnergySavingPct())
	}},
	ClaimFig11Mobile:     {1, func(r *claimRun) float64 { return r.fig11.Mobile.CapacityGainPct }},
	ClaimFig11Full:       {1, func(r *claimRun) float64 { return r.fig11.Full.CapacityGainPct }},
	ClaimFig12FirstOrig:  {1, func(r *claimRun) float64 { return r.fig12.OrigFirstDisplayS }},
	ClaimFig12FirstAware: {1, func(r *claimRun) float64 { return r.fig12.AwareFirstDisplayS }},
	ClaimFig12FirstGain:  {1, func(r *claimRun) float64 { return r.fig12.FirstDisplayGainS }},
	ClaimFig12FinalOrig:  {1, func(r *claimRun) float64 { return r.fig12.OrigFinalDisplayS }},
	ClaimFig12FinalAware: {1, func(r *claimRun) float64 { return r.fig12.AwareFinalDisplayS }},
	ClaimFig12FinalGain:  {1, func(r *claimRun) float64 { return r.fig12.FinalDisplayGainS }},
	ClaimFig14FullFirst:  {1, func(r *claimRun) float64 { return r.fig14.Full.FirstDisplaySavingPct() }},
	ClaimFig14FullFinal:  {1, func(r *claimRun) float64 { return r.fig14.Full.TotalSavingPct() }},
	ClaimFig15Gain:       {1, func(r *claimRun) float64 { return min(r.fig15.GainTp, r.fig15.GainTd) }},
	ClaimFig16OrigOffDelay: {2, func(r *claimRun) float64 {
		return r.fig16Case(policy.CaseOrigAlwaysOff).DelaySavingPct
	}},
	ClaimFig16EAOffDelay: {2, func(r *claimRun) float64 {
		return r.fig16Case(policy.CaseEAAlwaysOff).DelaySavingPct
	}},
	ClaimFig16Accurate9Power: {2, func(r *claimRun) float64 {
		return r.fig16Case(policy.CaseAccurate9).PowerSavingPct
	}},
	ClaimFig16Accurate20Delay: {2, func(r *claimRun) float64 {
		return r.fig16Case(policy.CaseAccurate20).DelaySavingPct
	}},
	ClaimTable7Time1000:    {4, func(r *claimRun) float64 { return r.table7At(1000).TimeSeconds }},
	ClaimTable7Energy1000:  {4, func(r *claimRun) float64 { return r.table7At(1000).EnergyJ }},
	ClaimTable7Time20000:   {4, func(r *claimRun) float64 { return r.table7At(20000).TimeSeconds }},
	ClaimTable7Energy20000: {4, func(r *claimRun) float64 { return r.table7At(20000).EnergyJ }},
}

// TestPaperClaims holds every claim's measured value to its band (one
// subtest per claim) and checks that EXPERIMENTS.md carries the table as
// rendered here. After an intended change, rewrite the block with:
// go test ./internal/experiments -run TestPaperClaims -update
func TestPaperClaims(t *testing.T) {
	if raceEnabled {
		t.Skip("runs every paper experiment; too slow under the race detector (CI runs it without)")
	}
	r := claimResults(t)
	var b strings.Builder
	b.WriteString("| Id | Claim | Paper | Measured | Band | Verdict |\n|---|---|---|---|---|---|\n")
	for id := ClaimID(0); id < numClaims; id++ {
		c, m := claims[id], claimMeasures[id]
		if m.of == nil {
			t.Errorf("claim %s has no measure", c.id)
			continue
		}
		got, inBand := checkClaim(t, r, id)
		verdict := "not held to a band"
		switch {
		case c.band.held && inBand:
			verdict = "✔ in band"
		case c.band.held:
			verdict = "✘ outside band"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", c.id, c.label,
			withUnit(strconv.FormatFloat(math.Round(c.paper*1e4)/1e4, 'f', -1, 64), c.unit),
			withUnit(strconv.FormatFloat(got, 'f', m.digits, 64), c.unit),
			c.band.text(c.unit), verdict)
	}
	checkClaimsBlock(t, b.String())
}

// checkClaim measures one claim on r and holds it to its band in a subtest
// named after the claim's id.
func checkClaim(t *testing.T, r *claimRun, id ClaimID) (got float64, inBand bool) {
	t.Helper()
	c := claims[id]
	got = claimMeasures[id].of(r)
	inBand = id.InBand(got)
	t.Run(c.id, func(t *testing.T) {
		if !inBand {
			t.Errorf("%s = %v, outside the band %s (paper: %v)", c.label, got, c.band.text(c.unit), c.paper)
		}
	})
	return got, inBand
}

// checkFigureClaims runs one experiment and holds the named claims on it to
// their bands.
func checkFigureClaims(t *testing.T, experiment string, ids ...ClaimID) *claimRun {
	t.Helper()
	r := claimResults(t, experiment)
	for _, id := range ids {
		checkClaim(t, r, id)
	}
	return r
}

// TestFig8Bands: Fig. 8's transmission- and loading-time savings.
func TestFig8Bands(t *testing.T) {
	checkFigureClaims(t, "Fig8", ClaimFig8MobileTrans, ClaimFig8MobileTotal, ClaimFig8FullTrans,
		ClaimFig8FullTotal, ClaimFig8MCNNTrans, ClaimFig8MCNNTotal, ClaimFig8EbayTrans)
}

// TestFig10Bands: the energy-saving headline on each benchmark.
func TestFig10Bands(t *testing.T) {
	checkFigureClaims(t, "Fig10", ClaimFig10Mobile, ClaimFig10Full, ClaimFig10MCNN, ClaimFig10ESPN,
		ClaimFig10Headline)
}

// TestFig12Bands: display-time gains on espn.
func TestFig12Bands(t *testing.T) {
	checkFigureClaims(t, "Fig12", ClaimFig12FirstOrig, ClaimFig12FirstAware, ClaimFig12FirstGain,
		ClaimFig12FinalOrig, ClaimFig12FinalAware, ClaimFig12FinalGain)
}

// TestFig14Bands: display-time savings on the full benchmark.
func TestFig14Bands(t *testing.T) {
	r := checkFigureClaims(t, "Fig14", ClaimFig14FullFirst, ClaimFig14FullFinal)
	if r.fig14.Full.Aware.FirstDisplayS >= r.fig14.Full.Original.FirstDisplayS {
		t.Error("energy-aware first display not earlier on full pages")
	}
}

// TestTable4Band: no notable single-feature correlation with reading time.
func TestTable4Band(t *testing.T) {
	checkFigureClaims(t, "Table4", ClaimTable4MaxR)
}

// text renders the band for the table: "8 to 10 s", "≥ 3×", "≤ 0.2", or "—"
// for a row held to no band.
func (b band) text(unit string) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	switch {
	case !b.held:
		return "—"
	case math.IsInf(b.hi, 1):
		return "≥ " + withUnit(num(b.lo), unit)
	case math.IsInf(b.lo, -1):
		return "≤ " + withUnit(num(b.hi), unit)
	}
	return num(b.lo) + " to " + withUnit(num(b.hi), unit)
}

func withUnit(v, unit string) string {
	switch unit {
	case "":
		return v
	case "%", "×":
		return v + unit
	}
	return v + " " + unit
}

const (
	experimentsMD = "../../EXPERIMENTS.md"
	claimsBegin   = "<!-- claims:begin"
	claimsEnd     = "<!-- claims:end -->"
)

// checkClaimsBlock compares the table between EXPERIMENTS.md's claims
// markers with table, or writes it there under -update.
func checkClaimsBlock(t *testing.T, table string) {
	t.Helper()
	data, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatalf("read EXPERIMENTS.md: %v", err)
	}
	doc := string(data)
	i := strings.Index(doc, claimsBegin)
	j := strings.Index(doc, claimsEnd)
	if i < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md has no %q ... %q block", claimsBegin, claimsEnd)
	}
	i += strings.IndexByte(doc[i:], '\n') + 1
	if doc[i:j] == table {
		return
	}
	if *update {
		if err := os.WriteFile(experimentsMD, []byte(doc[:i]+table+doc[j:]), 0o644); err != nil {
			t.Fatalf("write EXPERIMENTS.md: %v", err)
		}
		return
	}
	committed, rendered := strings.Split(doc[i:j], "\n"), strings.Split(table, "\n")
	for k := 0; k < max(len(committed), len(rendered)); k++ {
		var c, r string
		if k < len(committed) {
			c = committed[k]
		}
		if k < len(rendered) {
			r = rendered[k]
		}
		if c != r {
			t.Errorf("EXPERIMENTS.md claims line %d:\ncommitted: %s\nrendered:  %s", k+1, c, r)
		}
	}
	t.Error("EXPERIMENTS.md's claims table is stale; rerun with -update if the change is intended")
}
