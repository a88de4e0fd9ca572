// Command eabrowse loads one benchmark page through the original or the
// energy-aware pipeline on the simulated 3G testbed and prints the load
// timeline, object statistics and energy breakdown.
//
// Usage:
//
//	eabrowse [-page espn.go.com/sports] [-mode both|original|energy-aware]
//	         [-reading 20s] [-list]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"eabrowse/internal/browser"
	"eabrowse/internal/experiments"
	"eabrowse/internal/rrc"
	"eabrowse/internal/webpage"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eabrowse:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("eabrowse", flag.ContinueOnError)
	residency := fs.Bool("residency", false, "print radio state residency after load+reading")
	pageName := fs.String("page", "espn.go.com/sports", "benchmark page to load")
	mode := fs.String("mode", "both", "pipeline: original, energy-aware or both")
	reading := fs.Duration("reading", 20*time.Second, "reading time simulated after the load")
	timeline := fs.Bool("timeline", false, "print the load event timeline")
	list := fs.Bool("list", false, "list benchmark pages and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "mobile benchmark:")
		for _, n := range webpage.MobilePageNames {
			fmt.Fprintln(stdout, "  "+n)
		}
		fmt.Fprintln(stdout, "full benchmark:")
		for _, n := range webpage.FullPageNames {
			fmt.Fprintln(stdout, "  "+n)
		}
		return nil
	}

	page, err := experiments.PageByName(*pageName)
	if err != nil {
		return err
	}

	var modes []browser.Mode
	switch *mode {
	case "original":
		modes = []browser.Mode{browser.ModeOriginal}
	case "energy-aware":
		modes = []browser.Mode{browser.ModeEnergyAware}
	case "both":
		modes = []browser.Mode{browser.ModeOriginal, browser.ModeEnergyAware}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	fmt.Fprintf(stdout, "page %s: %d resources, %d KB total\n\n",
		page.Name, page.ResourceCount(), page.TotalBytes()/1024)

	var opts []browser.Option
	if *timeline {
		opts = append(opts, browser.WithEventLog())
	}

	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "pipeline\ttransmission\tfirst display\tfinal display\tload J\tload+read J\treflows\tredraws\tobjects")
	results := make(map[browser.Mode]*browser.Result, len(modes))
	residencies := make(map[browser.Mode]map[rrc.State]time.Duration, len(modes))
	for _, m := range modes {
		s, err := experiments.New(m, experiments.WithEngineOptions(opts...))
		if err != nil {
			return err
		}
		out, err := s.Visit(page, *reading)
		if err != nil {
			return err
		}
		residencies[m] = s.Radio.Residency()
		r := out.Result
		results[m] = r
		fmt.Fprintf(w, "%s\t%.1fs\t%.1fs\t%.1fs\t%.1f\t%.1f\t%d\t%d\t%d\n",
			m, r.TransmissionTime.Seconds(), r.FirstDisplayAt.Seconds(),
			r.FinalDisplayAt.Seconds(), r.TotalEnergyJ(), out.TotalWithReadingJ,
			r.Reflows, r.Redraws, r.Objects)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if *timeline {
		for _, m := range modes {
			fmt.Fprintf(stdout, "\n%s timeline:\n", m)
			for _, ev := range results[m].Events {
				fmt.Fprintf(stdout, "  %7.2fs  %-18s %s\n", ev.At.Seconds(), ev.Kind, ev.Detail)
			}
		}
	}
	if *residency {
		order := []rrc.State{rrc.StateIdle, rrc.StateFACH, rrc.StateDCH,
			rrc.StatePromoIdleDCH, rrc.StatePromoFACHDCH, rrc.StateReleasing}
		for _, m := range modes {
			fmt.Fprintf(stdout, "\n%s radio residency:\n", m)
			for _, st := range order {
				if d := residencies[m][st]; d > 0 {
					fmt.Fprintf(stdout, "  %-17v %8.2fs\n", st, d.Seconds())
				}
			}
		}
	}
	return nil
}
