// Command eatrace synthesizes the Section 5.1.3 browsing trace and prints
// its statistics: the Fig. 7 reading-time CDF, the Table 4 correlations, and
// per-user summaries. With -csv it dumps the visits for external analysis.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"

	"eabrowse/internal/experiments"
	"eabrowse/internal/features"
	"eabrowse/internal/stats"
	"eabrowse/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eatrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eatrace", flag.ContinueOnError)
	users := fs.Int("users", 40, "number of users")
	hours := fs.Float64("hours", 2, "browsing hours per user")
	seed := fs.Int64("seed", 20130708, "synthesis seed")
	csvPath := fs.String("csv", "", "write visits to this CSV file")
	jsonPath := fs.String("json", "", "write visits as JSON lines (reloadable with trace.ReadVisits)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := trace.DefaultConfig()
	cfg.Users = *users
	cfg.HoursPerUser = *hours
	cfg.Seed = *seed
	ds, err := trace.Synthesize(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("synthesized %d visits from %d users over %d pool pages\n\n",
		len(ds.Visits), cfg.Users, len(ds.Pool))

	fig7, err := experiments.Fig7From(ds)
	if err != nil {
		return err
	}
	fmt.Printf("reading-time CDF: P(<2s)=%.1f%%  P(<9s)=%.1f%%  P(<20s)=%.1f%%  (paper: %.0f/%.0f/%.0f)\n\n",
		fig7.Under2Pct, fig7.Under9Pct, fig7.Under20Pct, experiments.ClaimFig7Under2.Paper(),
		experiments.ClaimFig7Under9.Paper(), experiments.ClaimFig7Under20.Paper())

	t4, err := experiments.Table4From(ds)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "feature\tPearson r with reading time")
	for i, name := range t4.Names {
		fmt.Fprintf(w, "%s\t%+.4f\n", name, t4.Correlations[i])
	}
	w.Flush()

	reads := make([]float64, 0, len(ds.Visits))
	for _, v := range ds.Visits {
		reads = append(reads, v.ReadingSeconds)
	}
	sum, err := stats.Summarize(reads)
	if err != nil {
		return err
	}
	fmt.Printf("\nreading time: mean %.1fs  median %.1fs  p90 %.1fs  max %.0fs\n",
		sum.Mean, sum.P50, sum.P90, sum.Max)

	if *csvPath != "" {
		if err := writeCSV(*csvPath, ds); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ds.WriteVisits(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

func writeCSV(path string, ds *trace.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"user", "session", "page", "reading_seconds"}
	for _, n := range features.Names {
		header = append(header, n)
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, v := range ds.Visits {
		row := []string{
			strconv.Itoa(v.User),
			strconv.Itoa(v.Session),
			v.Page,
			strconv.FormatFloat(v.ReadingSeconds, 'f', 3, 64),
		}
		for _, x := range v.Features {
			row = append(row, strconv.FormatFloat(x, 'f', 4, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
