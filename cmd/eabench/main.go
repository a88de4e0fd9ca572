// Command eabench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated testbed.
//
// Usage:
//
//	eabench -exp all
//	eabench -exp all -parallel 8
//	eabench -exp fig8
//	eabench -exp fleet -fleet-users 300
//	eabench -list
//
// Experiments fan their independent simulations out on a bounded worker pool
// sized by -parallel (default: GOMAXPROCS); output is byte-identical at any
// worker count.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"eabrowse/internal/channel"
	"eabrowse/internal/experiments"
	"eabrowse/internal/faults"
	"eabrowse/internal/features"
	"eabrowse/internal/obs"
	"eabrowse/internal/report"
	"eabrowse/internal/rrc"
	"eabrowse/internal/runner"
)

type experiment struct {
	name string
	desc string
	// heavy experiments run only when named explicitly, never under 'all'.
	heavy bool
	run   func(*printer) error
}

// benchOptions carries the flag-derived knobs into the experiment registry.
type benchOptions struct {
	profile faults.Config
	maxLoss float64
	// timing includes live wall-clock measurements in the output (Table 7's
	// Go column). Off by default so output is deterministic run to run.
	timing bool
	fleet  experiments.FleetConfig
	// fleetProcs > 1 splits the fleet's shard range across that many worker
	// processes (re-execs of this binary with -fleet-worker). radio and
	// parallel echo their flags so the coordinator can rebuild a worker's
	// argument list exactly.
	fleetProcs int
	radio      string
	parallel   int
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eabench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (fig1..fig16, table4..table7, ablation, chaos, fleet) or 'all'")
	list := fs.Bool("list", false, "list experiments and exit")
	parallel := fs.Int("parallel", 0, "worker-pool size for parallel simulation (<= 0: GOMAXPROCS); results are identical at any setting")
	traceOut := fs.String("trace", "", "write the merged simulated-time event trace (JSON lines) to this file")
	metricsOut := fs.String("metrics", "", "write the counters/histograms/ledger snapshot (JSON) to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while experiments run")
	radio := fs.String("radio", "", "radio profile the simulated phones run: "+strings.Join(rrc.Profiles(), ", ")+" (default umts; experiments that measure the UMTS machine itself — fig1, fig3, table5, timers, ablation — pin it explicitly and are unaffected)")

	opts := benchOptions{
		profile: experiments.DefaultChaosProfile(),
		fleet:   experiments.DefaultFleetConfig(),
	}
	fs.BoolVar(&opts.timing, "timing", false, "include live wall-clock measurements (makes output nondeterministic)")
	fs.IntVar(&opts.fleet.Users, "fleet-users", opts.fleet.Users, "fleet: number of simulated phones")
	fs.Float64Var(&opts.fleet.HoursPerUser, "fleet-hours", opts.fleet.HoursPerUser, "fleet: browsing hours replayed per phone")
	fs.Int64Var(&opts.fleet.Seed, "fleet-seed", opts.fleet.Seed, "fleet: trace seed")
	fs.StringVar(&opts.fleet.RadioMix, "fleet-radio-mix", "", "fleet: mixed-RAN population as name:weight pairs, e.g. \"umts:0.6,lte:0.4\" (default: the -radio profile fleet-wide)")
	fs.StringVar(&opts.fleet.Channel, "fleet-channel", "", "fleet: channel scenario every phone browses through: "+strings.Join(channel.Scenarios(), ", ")+" (default: fixed ideal link)")
	fs.StringVar(&opts.fleet.Policy, "fleet-policy", "", "fleet: energy-aware release rule, static or adaptive (default static)")
	fs.IntVar(&opts.fleetProcs, "fleet-procs", 1, "fleet: worker processes the shard range is split across (results are byte-identical at any setting)")
	fleetWorker := fs.String("fleet-worker", "", "internal: compute fleet shards lo:hi and write the binary shard stream to stdout")

	// Fault-injection profile for the chaos experiment. Loss is the swept
	// variable (0 up to -fault-loss); the other rates form the constant
	// background impairment mix.
	fs.Float64Var(&opts.maxLoss, "fault-loss", 0.30, "chaos: maximum packet-loss rate of the sweep, [0, 1)")
	fs.Int64Var(&opts.profile.Seed, "fault-seed", opts.profile.Seed, "chaos: fault-injection seed (equal seeds give byte-identical sweeps)")
	fs.Float64Var(&opts.profile.StallRate, "fault-stall", opts.profile.StallRate, "chaos: per-attempt transfer stall probability")
	fs.Float64Var(&opts.profile.FailRate, "fault-fail", opts.profile.FailRate, "chaos: per-attempt hard transfer failure probability")
	fs.Float64Var(&opts.profile.RILTimeoutRate, "fault-ril-timeout", opts.profile.RILTimeoutRate, "chaos: probability a RIL response is lost")
	fs.Float64Var(&opts.profile.RILErrorRate, "fault-ril-error", opts.profile.RILErrorRate, "chaos: probability the RIL daemon rejects an operation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *radio != "" {
		if err := experiments.SetDefaultRadioProfile(*radio); err != nil {
			return err
		}
	}
	runner.SetWorkers(*parallel)
	opts.radio = *radio
	opts.parallel = *parallel

	if *fleetWorker != "" {
		// Fleet worker mode: compute the assigned shard range and stream the
		// accumulators to stdout. Nothing else may write to stdout here — the
		// coordinator parses it as the binary shard protocol.
		lo, hi, err := parseShardRange(*fleetWorker)
		if err != nil {
			return err
		}
		outs, err := experiments.RunFleetShards(opts.fleet, lo, hi)
		if err != nil {
			return err
		}
		return experiments.WriteFleetShards(os.Stdout, outs)
	}

	// Tracing and metrics share one process-wide collector; experiments
	// register their sessions under deterministic keys and the merged output
	// is serialized in key order, so the files are byte-identical at any
	// -parallel setting.
	var collector *obs.Collector
	if *traceOut != "" || *metricsOut != "" {
		collector = obs.Enable()
	}
	if *pprofAddr != "" {
		// Label pool workers so profiles attribute samples to them, and serve
		// the standard pprof endpoints for the lifetime of the run. Binding
		// happens synchronously so a bad address fails the run immediately
		// instead of vanishing inside a goroutine; the server is shut down
		// once the experiments finish.
		runner.SetProfileLabels(true)
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: listen on %s: %w", *pprofAddr, err)
		}
		// The blank net/http/pprof import registers on DefaultServeMux.
		pprofSrv := &http.Server{Handler: http.DefaultServeMux}
		go func() {
			if serr := pprofSrv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "eabench: pprof server:", serr)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = pprofSrv.Shutdown(ctx)
		}()
	}

	exps := allExperiments(opts)
	if *list {
		for _, e := range exps {
			note := ""
			if e.heavy {
				note = " (not in 'all')"
			}
			fmt.Printf("%-8s %s%s\n", e.name, e.desc, note)
		}
		return nil
	}

	if err := runSelected(*exp, exps); err != nil {
		return err
	}
	return writeObsOutputs(collector, *traceOut, *metricsOut)
}

// runSelected runs one named experiment, or all non-heavy ones.
func runSelected(name string, exps []experiment) error {
	if name == "all" {
		return runAll(os.Stdout, os.Stderr, exps)
	}
	for _, e := range exps {
		if e.name == name {
			p := &printer{w: os.Stdout, timing: os.Stderr}
			p.header(e.name, e.desc)
			return e.run(p)
		}
	}
	names := make([]string, 0, len(exps))
	for _, e := range exps {
		names = append(names, e.name)
	}
	sort.Strings(names)
	return fmt.Errorf("unknown experiment %q (have: %s)", name, strings.Join(names, ", "))
}

// writeObsOutputs serializes the collector after the experiments finish.
func writeObsOutputs(c *obs.Collector, tracePath, metricsPath string) error {
	if c == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		// The run header names the active radio profile ahead of the event
		// stream. It is written here, not by the collector, so session-level
		// trace files (and their committed goldens) keep their exact bytes.
		if _, err := fmt.Fprintf(f, "{\"kind\":\"run-header\",\"radio_profile\":%q}\n",
			experiments.DefaultRadioSpec().Profile()); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
		if err := c.WriteTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := c.WriteMetrics(f); err != nil {
			f.Close()
			return fmt.Errorf("write metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// expOutput is one experiment's rendered report plus its wall-clock side
// channel, kept separate so the deterministic report and the nondeterministic
// timing lines can go to different streams.
type expOutput struct {
	report []byte
	timing []byte
}

// runAll executes every non-heavy experiment on the worker pool, each
// rendering into its own buffers, then writes the buffers in registry order —
// so the report reads identically no matter which experiment finished first.
// Reports go to w; wall-clock timing lines (present only with -timing) go to
// timingW.
func runAll(w, timingW io.Writer, exps []experiment) error {
	active := make([]experiment, 0, len(exps))
	for _, e := range exps {
		if !e.heavy {
			active = append(active, e)
		}
	}
	outs, err := runner.Collect(len(active), func(i int) (expOutput, error) {
		var buf, tbuf bytes.Buffer
		p := &printer{w: &buf, timing: &tbuf}
		p.header(active[i].name, active[i].desc)
		if err := active[i].run(p); err != nil {
			return expOutput{}, fmt.Errorf("%s: %w", active[i].name, err)
		}
		return expOutput{report: buf.Bytes(), timing: tbuf.Bytes()}, nil
	})
	if err != nil {
		return err
	}
	for _, o := range outs {
		if _, err := w.Write(o.report); err != nil {
			return err
		}
		if len(o.timing) > 0 {
			if _, err := timingW.Write(o.timing); err != nil {
				return err
			}
		}
	}
	return nil
}

func allExperiments(opts benchOptions) []experiment {
	return []experiment{
		{name: "fig1", desc: "power level of the radio states over time", run: runFig1},
		{name: "fig3", desc: "original vs intuitive energy by transfer interval (crossover)", run: runFig3},
		{name: "fig4", desc: "traffic shape: browser load vs raw socket download", run: runFig4},
		{name: "table4", desc: "Pearson correlation of reading time vs features", run: runTable4},
		{name: "table5", desc: "power consumption per radio state", run: runTable5},
		{name: "fig7", desc: "cumulative distribution of reading time", run: runFig7},
		{name: "fig8", desc: "data transmission time, both benchmarks + named pages", run: runFig8},
		{name: "fig9", desc: "power trace loading espn.go.com/sports", run: runFig9},
		{name: "fig10", desc: "energy to open page + 20 s reading", run: runFig10},
		{name: "fig11", desc: "network capacity (M/G/200 session dropping)", run: runFig11},
		{name: "fig12", desc: "intermediate/final display timings (espn)", run: runFig12},
		{name: "fig14", desc: "average screen display times", run: runFig14},
		{name: "fig15", desc: "prediction accuracy with/without interest threshold", run: runFig15},
		{name: "fig16", desc: "power and delay savings of the six cases", run: runFig16},
		{name: "table7", desc: "prediction cost vs number of decision trees",
			run: func(p *printer) error { return runTable7(p, opts.timing) }},
		{name: "reorder", desc: "reordering+dormancy savings per radio backend (umts, lte, nr)", run: runReorder},
		{name: "ablation", desc: "design-choice ablations (guard, timers, reordering-only)", run: runAblation},
		{name: "ablation-pred", desc: "predictor ablations (GBRT vs linear, M, J, alpha)", run: runPredictorAblation},
		{name: "timers", desc: "T1/T2 timer sweep on the original browser vs energy-aware", run: runTimerSweep},
		{name: "chaos", desc: "energy/load time vs loss rate under injected faults (see -fault-* flags)",
			run: func(p *printer) error { return runChaos(p, opts.profile, opts.maxLoss) }},
		{name: "fleet", desc: "concurrent multi-user fleet replay with Algorithm 2 (see -fleet-* flags)",
			heavy: true,
			run:   func(p *printer) error { return runFleet(p, opts) }},
		{name: "scenarios", desc: "scenario×policy matrix: static vs adaptive vs oracle under time-varying channels",
			heavy: true,
			run:   runScenarios},
	}
}

type printer struct {
	// w receives the deterministic report.
	w io.Writer
	// timing receives live wall-clock lines, which vary run to run and so
	// must never mix into w; nil discards them.
	timing io.Writer
}

func (p *printer) header(name, desc string) {
	fmt.Fprintf(p.w, "\n=== %s — %s ===\n", name, desc)
}

// timingf writes a wall-clock measurement line to the timing stream.
func (p *printer) timingf(format string, a ...any) {
	if p.timing != nil {
		fmt.Fprintf(p.timing, format, a...)
	}
}

func (p *printer) table(write func(w *tabwriter.Writer)) {
	tw := tabwriter.NewWriter(p.w, 0, 4, 2, ' ', 0)
	write(tw)
	tw.Flush()
}

func runFig1(p *printer) error {
	res, err := experiments.Fig1()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "samples: %d at 0.25 s, mean power %.2f W\n", len(res.Samples), res.MeanPowerW)
	fmt.Fprintln(p.w, "time(s)  power(W)")
	for i, s := range res.Samples {
		if i%4 != 0 { // print at 1 s granularity
			continue
		}
		fmt.Fprintf(p.w, "%6.1f  %s %.2f\n", s.At.Seconds(), report.Bar(s.Watts, 2.0, 40), s.Watts)
	}
	return nil
}

func runFig3(p *printer) error {
	res, err := experiments.Fig3()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "interval(s)\toriginal(J)\tintuitive(J)\tsaving(J)")
		for _, pt := range res.Points {
			fmt.Fprintf(w, "%.0f\t%.2f\t%.2f\t%+.2f\n", pt.IntervalS, pt.OriginalJ, pt.IntuitiveJ, pt.SavingJ)
		}
	})
	fmt.Fprintf(p.w, "crossover: intuitive starts winning at %.0f s (paper: 9 s)\n", res.CrossoverS)
	return nil
}

func runFig4(p *printer) error {
	res, err := experiments.Fig4()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "page bytes: %d KB\n", res.TotalKB)
	fmt.Fprintf(p.w, "browser load finished at %.1f s; raw socket download at %.1f s (paper: ~47 s vs ~8 s)\n",
		res.BrowserTotalS, res.BulkTotalS)
	fmt.Fprintln(p.w, "browser traffic (KB per 0.5 s bin):")
	printBins(p, res.BrowserBins)
	fmt.Fprintln(p.w, "socket download traffic:")
	printBins(p, res.BulkBins)
	return nil
}

func printBins(p *printer, bins []experiments.Fig4Bin) {
	for i, b := range bins {
		if i%4 != 0 {
			continue
		}
		// Aggregate 2 s of bins per printed row.
		kb := 0.0
		for j := i; j < i+4 && j < len(bins); j++ {
			kb += bins[j].TrafficKB
		}
		fmt.Fprintf(p.w, "%6.1fs %s %.0f KB\n", b.StartS, report.Bar(kb, 200, 40), kb)
	}
}

func runTable4(p *printer) error {
	res, err := experiments.Table4()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "feature\tPearson r\tSpearman rho")
		for i, name := range res.Names {
			fmt.Fprintf(w, "%s\t%+.4f\t%+.4f\n", name, res.Correlations[i], res.Spearman[i])
		}
	})
	fmt.Fprintf(p.w, "max |r| = %.4f — no notable correlation (paper: all <= 0.067)\n", res.MaxAbs)
	return nil
}

func runTable5(p *printer) error {
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "state\tpower (W)")
		for _, row := range experiments.Table5() {
			fmt.Fprintf(w, "%s\t%.2f\n", row.State, row.PowerW)
		}
	})
	return nil
}

func runFig7(p *printer) error {
	res, err := experiments.Fig7()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "visits: %d\n", res.Visits)
	fmt.Fprintf(p.w, "P(reading < 2 s)  = %5.1f%%  (paper: 30%%)\n", res.Under2Pct)
	fmt.Fprintf(p.w, "P(reading < 9 s)  = %5.1f%%  (paper: 53%%)\n", res.Under9Pct)
	fmt.Fprintf(p.w, "P(reading < 20 s) = %5.1f%%  (paper: 68%%)\n", res.Under20Pct)
	for _, pt := range res.CurvePoints {
		if int(pt.Seconds)%4 != 0 {
			continue
		}
		fmt.Fprintf(p.w, "%4.0fs %s %.0f%%\n", pt.Seconds, report.Bar(pt.CumPct, 100, 40), pt.CumPct)
	}
	return nil
}

func runFig8(p *printer) error {
	res, err := experiments.Fig8()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "benchmark\torig trans(s)\tEA trans(s)\tsaving\torig total(s)\tEA total(s)\tsaving")
		rows := []*experiments.BenchComparison{res.Mobile, res.Full, res.MCNN, res.MotorsEbay}
		for _, c := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f%%\t%.1f\t%.1f\t%.1f%%\n",
				c.Label, c.Original.TransmissionS, c.Aware.TransmissionS, c.TransmissionSavingPct(),
				c.Original.TotalS, c.Aware.TotalS, c.TotalSavingPct())
		}
	})
	fmt.Fprintln(p.w, "paper: mobile -15% trans / -2.5% total; full -27% trans / -17% total; m.cnn -15%; ebay -31%")
	return nil
}

func runFig9(p *printer) error {
	res, err := experiments.Fig9()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "original: transmission ends %.1f s;  energy-aware: transmission ends %.1f s, dormant at %.1f s\n",
		res.OrigTransmissionS, res.AwareTransmissionS, res.AwareDormantS)
	fmt.Fprintln(p.w, "time  original              energy-aware (W)")
	n := len(res.Original)
	if len(res.Aware) > n {
		n = len(res.Aware)
	}
	for i := 0; i < n; i += 8 { // 2 s granularity
		var po, pa float64
		if i < len(res.Original) {
			po = res.Original[i].Watts
		}
		if i < len(res.Aware) {
			pa = res.Aware[i].Watts
		}
		fmt.Fprintf(p.w, "%5.1fs %s %.2f | %s %.2f\n",
			float64(i)*0.25, report.Bar(po, 2, 20), po, report.Bar(pa, 2, 20), pa)
	}
	return nil
}

func runFig10(p *printer) error {
	res, err := experiments.Fig10()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "benchmark\toriginal(J)\tenergy-aware(J)\tsaving\torig trans/layout/tail(J)\tEA trans/layout/tail(J)")
		rows := []*experiments.BenchComparison{res.Mobile, res.Full, res.MCNN, res.ESPN}
		for _, c := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f%%\t%s\t%s\n",
				c.Label, c.Original.EnergyWithReadingJ, c.Aware.EnergyWithReadingJ, c.EnergySavingPct(),
				attribution(&c.Original), attribution(&c.Aware))
		}
	})
	fmt.Fprintln(p.w, "paper: mobile -35.7%, full -30.8%, m.cnn -35.5%, espn -43.6% (>30% headline)")
	fmt.Fprintln(p.w, "attribution: energy while data moved / during deferred layout / after final display (ledger phases)")
	return nil
}

func runFig11(p *printer) error {
	res, err := experiments.Fig11()
	if err != nil {
		return err
	}
	for _, b := range []*experiments.Fig11Bench{res.Mobile, res.Full} {
		fmt.Fprintf(p.w, "%s:\n", b.Label)
		p.table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "users\toriginal drop%\tenergy-aware drop%")
			for i, u := range b.Original.Users {
				fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", u, b.Original.DropPct[i], b.Aware.DropPct[i])
			}
		})
		fmt.Fprintf(p.w, "users supported at 2%% dropping: original %d, energy-aware %d (+%.1f%%)\n",
			b.Original.SupportedAt2Pct, b.Aware.SupportedAt2Pct, b.CapacityGainPct)
	}
	fmt.Fprintln(p.w, "paper: +14.3% (mobile), +19.6% (full)")
	return nil
}

func runFig12(p *printer) error {
	res, err := experiments.Fig12()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "intermediate display: original %.1f s vs energy-aware %.1f s (%.1f s earlier; paper: 17.6 vs 7.0)\n",
		res.OrigFirstDisplayS, res.AwareFirstDisplayS, res.FirstDisplayGainS)
	fmt.Fprintf(p.w, "final display:        original %.1f s vs energy-aware %.1f s (%.1f s earlier; paper: 34.5 vs 28.6)\n",
		res.OrigFinalDisplayS, res.AwareFinalDisplayS, res.FinalDisplayGainS)
	return nil
}

func runFig14(p *printer) error {
	res, err := experiments.Fig14()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "benchmark\torig first(s)\tEA first(s)\tsaving\torig final(s)\tEA final(s)\tsaving")
		for _, c := range []*experiments.BenchComparison{res.Mobile, res.Full} {
			finalSaving := c.TotalSavingPct()
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f%%\t%.1f\t%.1f\t%.1f%%\n",
				c.Label, c.Original.FirstDisplayS, c.Aware.FirstDisplayS, c.FirstDisplaySavingPct(),
				c.Original.TotalS, c.Aware.TotalS, finalSaving)
		}
	})
	fmt.Fprintln(p.w, "paper: full benchmark first display -45.5%, final display -16.8%")
	return nil
}

func runFig15(p *printer) error {
	res, err := experiments.Fig15()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "threshold\twithout interest\twith interest\tgain")
		fmt.Fprintf(w, "Tp = 9 s\t%.1f%%\t%.1f%%\t%+.1f\n", res.WithoutTp, res.WithTp, res.GainTp)
		fmt.Fprintf(w, "Td = 20 s\t%.1f%%\t%.1f%%\t%+.1f\n", res.WithoutTd, res.WithTd, res.GainTd)
	})
	fmt.Fprintln(p.w, "paper: interest threshold adds at least 10 points")
	return nil
}

func runFig16(p *printer) error {
	res, err := experiments.Fig16()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "case\tenergy(J)\tdelay(s)\tpower saving\tdelay saving\tswitches")
		for _, c := range res.Cases {
			fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.2f%%\t%.2f%%\t%d\n",
				c.Case, c.EnergyJ, c.DelayS, c.PowerSavingPct, c.DelaySavingPct, c.Switches)
		}
	})
	fmt.Fprintln(p.w, "paper shape: Orig Always-off worst (delay negative), EA Always-off ~9.2% delay,")
	fmt.Fprintln(p.w, "Accurate-9 best power, Accurate-20 best delay (~13.6%), Predict-* slightly below Accurate-*")
	return nil
}

func runReorder(p *printer) error {
	res, err := experiments.Reorder()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "page: %s, reading window %v, one phone per radio backend per pipeline\n",
		res.Page, experiments.Fig10ReadingTime)
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "radio\toriginal(J)\tenergy-aware(J)\tsaving\torig load(s)\tEA load(s)\tEA dormant in window")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f%%\t%.1f\t%.1f\t%v\n",
				r.Profile, r.OriginalJ, r.AwareJ, r.SavingPct, r.OrigLoadS, r.AwareLoadS, r.AwareDormant)
		}
	})
	fmt.Fprintln(p.w, "the reordering wins on every generation; the saving shrinks as the native tail gets shorter")
	return nil
}

func runTable7(p *printer, timing bool) error {
	rows, err := experiments.Table7()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "decision trees\tphone energy (J)\tphone time (s)")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", r.Trees, r.EnergyJ, r.TimeSeconds)
		}
	})
	if timing {
		// Wall-clock is machine- and load-dependent, so it goes to the timing
		// stream (stderr), keeping stdout byte-stable run to run.
		for _, r := range rows {
			p.timingf("table7: %d trees: Go wall time %v\n", r.Trees, r.GoWallTime.Round(10e3))
		}
	}
	fmt.Fprintln(p.w, "paper: 10000 trees -> 0.295 s, 0.177 J")
	return nil
}

func runAblation(p *printer) error {
	res, err := experiments.Ablations()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "variant\tenergy+20s read (J)\tload time (s)\tvs energy-aware default")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%+.1f%% energy\n", r.Name, r.EnergyJ, r.LoadS, r.EnergyDeltaPct)
		}
	})
	return nil
}

func runPredictorAblation(p *printer) error {
	res, err := experiments.PredictorAblation()
	if err != nil {
		return err
	}
	groups := []struct {
		title string
		rows  []experiments.PredictorAblationRow
	}{
		{"model comparison", res.Baselines},
		{"forest size M", res.Trees},
		{"leaf budget J", res.Leaves},
		{"interest threshold alpha", res.Alpha},
	}
	for _, g := range groups {
		fmt.Fprintf(p.w, "%s:\n", g.title)
		p.table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "variant\taccuracy Tp=9s\taccuracy Td=20s")
			for _, r := range g.rows {
				fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\n", r.Name, r.TpPct, r.TdPct)
			}
		})
	}
	fmt.Fprintf(p.w, "personal models fitted: %d\n", res.PersonalModels)
	fmt.Fprintln(p.w, "split-gain feature importance (default model):")
	p.table(func(w *tabwriter.Writer) {
		for i, name := range features.Names {
			fmt.Fprintf(w, "%s\t%.1f%%\n", name, res.Importance[i]*100)
		}
	})
	fmt.Fprintln(p.w, "the linear baseline is what Table 4's near-zero correlations predict must fail")
	return nil
}

func runTimerSweep(p *printer) error {
	res, err := experiments.TimerSweep()
	if err != nil {
		return err
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "T1\tT2\tenergy+20s read (J)\tnext-click delay (s)")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%v\t%v\t%.1f\t%.2f\n", r.T1, r.T2, r.EnergyJ, r.NextClickDelayS)
		}
	})
	fmt.Fprintf(p.w, "energy-aware pipeline (default timers): %.1f J with zero added click delay until the release\n", res.EnergyAwareJ)
	fmt.Fprintln(p.w, "the introduction's point: no timer setting reaches the reordered pipeline")
	return nil
}

func runChaos(p *printer, profile faults.Config, maxLoss float64) error {
	res, err := experiments.ChaosSweep(profile, maxLoss)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "pages: %d per mode per point, seed %d, reading window %v\n",
		res.Pages, res.Seed, experiments.ChaosReadingTime)
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "loss%\torig(J)\tEA(J)\tsaving\torig load(s)\tEA load(s)\tEA retries\tEA lost objs\tEA dorm fails\tEA degraded")
		for i := range res.Points {
			pt := &res.Points[i]
			fmt.Fprintf(w, "%.0f\t%.1f\t%.1f\t%.1f%%\t%.1f\t%.1f\t%d\t%d\t%d\t%d/%d\n",
				pt.LossPct, pt.Original.EnergyJ, pt.Aware.EnergyJ, pt.EnergySavingPct(),
				pt.Original.LoadS, pt.Aware.LoadS,
				pt.Aware.FetchRetries+pt.Aware.LinkRetries, pt.Aware.FailedObjects,
				pt.Aware.DormancyFailures, pt.Aware.Degraded, pt.Aware.Completed)
		}
	})
	fmt.Fprintln(p.w, "every load completes at every loss rate — degraded, never hung (the background stall/fail/RIL mix applies at all points)")
	return nil
}

func runScenarios(p *printer) error {
	res, err := experiments.Scenarios()
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "radio: %s — each scenario replayed under the paper's static thresholds,\n", res.Radio)
	fmt.Fprintln(p.w, "the per-user adaptive estimator, and the counterfactual oracle lower bound")
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "scenario\tpolicy\tenergy (J)\tdelay (s)\tsaving vs static\tswitches\tpredictions")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%+.1f%%\t%d\t%d\n",
				r.Scenario, r.Policy, r.EnergyJ, r.DelayS, r.SavingPct, r.Switches, r.Predictions)
		}
	})
	fmt.Fprintln(p.w, "invariant: oracle <= adaptive <= static on every scenario (the golden matrix pins the bytes)")
	return nil
}

// parseShardRange parses a -fleet-worker "lo:hi" shard range.
func parseShardRange(s string) (lo, hi int, err error) {
	c := strings.IndexByte(s, ':')
	if c < 0 {
		return 0, 0, fmt.Errorf("fleet-worker: range %q is not lo:hi", s)
	}
	if lo, err = strconv.Atoi(s[:c]); err != nil {
		return 0, 0, fmt.Errorf("fleet-worker: range %q: %w", s, err)
	}
	if hi, err = strconv.Atoi(s[c+1:]); err != nil {
		return 0, 0, fmt.Errorf("fleet-worker: range %q: %w", s, err)
	}
	return lo, hi, nil
}

// fleetWorkerArgs rebuilds the argument list a fleet worker process needs to
// replay shards [lo, hi) of exactly the coordinator's fleet.
func fleetWorkerArgs(opts benchOptions, lo, hi int) []string {
	cfg := opts.fleet
	args := []string{
		"-fleet-worker", strconv.Itoa(lo) + ":" + strconv.Itoa(hi),
		"-fleet-users", strconv.Itoa(cfg.Users),
		"-fleet-hours", strconv.FormatFloat(cfg.HoursPerUser, 'g', -1, 64),
		"-fleet-seed", strconv.FormatInt(cfg.Seed, 10),
	}
	if cfg.RadioMix != "" {
		args = append(args, "-fleet-radio-mix", cfg.RadioMix)
	}
	if cfg.Channel != "" {
		args = append(args, "-fleet-channel", cfg.Channel)
	}
	if cfg.Policy != "" {
		args = append(args, "-fleet-policy", cfg.Policy)
	}
	if opts.radio != "" {
		args = append(args, "-radio", opts.radio)
	}
	if opts.parallel != 0 {
		args = append(args, "-parallel", strconv.Itoa(opts.parallel))
	}
	return args
}

func runFleet(p *printer, opts benchOptions) error {
	cfg := opts.fleet
	if opts.timing {
		var progressMu sync.Mutex
		last := -1
		cfg.Progress = func(done, total int) {
			progressMu.Lock()
			defer progressMu.Unlock()
			// Report at most once per percent so a million-user fleet does
			// not drown stderr in shard lines.
			pct := done * 100 / total
			if pct != last || done == total {
				last = pct
				p.timingf("fleet: %d/%d shards (%d%%)\n", done, total, pct)
			}
		}
	}
	var res *experiments.FleetResult
	var err error
	if opts.fleetProcs > 1 {
		self, serr := os.Executable()
		if serr != nil {
			return fmt.Errorf("fleet: locate own binary: %w", serr)
		}
		res, err = experiments.FleetMultiProc(cfg, opts.fleetProcs, func(lo, hi int) (*exec.Cmd, error) {
			cmd := exec.Command(self, fleetWorkerArgs(opts, lo, hi)...)
			cmd.Stderr = os.Stderr
			return cmd, nil
		})
	} else {
		res, err = experiments.Fleet(cfg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(p.w, "fleet: %d phones, %.2f h of browsing each, %d visits replayed per pipeline\n",
		res.Users, res.TraceHours, res.Visits)
	if res.Radio != "umts" {
		fmt.Fprintf(p.w, "radio: %s\n", res.Radio)
	}
	if res.Channel != "" || res.Policy != "static" {
		ch := res.Channel
		if ch == "" {
			ch = "ideal"
		}
		fmt.Fprintf(p.w, "channel: %s, policy: %s\n", ch, res.Policy)
	}
	p.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "pipeline\ttotal energy (J)\tper phone (J)\tvisit J p50\tp95\tp99\tmean trans (s)\tdrop% at fleet\tusers at 2% drop")
		for _, s := range []*experiments.FleetModeStats{&res.Original, &res.Aware} {
			fmt.Fprintf(w, "%v\t%.0f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\n",
				s.Mode, s.EnergyJ, s.MeanEnergyPerUserJ,
				s.VisitEnergyP50J, s.VisitEnergyP95J, s.VisitEnergyP99J,
				s.MeanTransmissionS, s.DropPctAtFleet, s.SupportedAt2Pct)
		}
	})
	fmt.Fprintf(p.w, "energy-aware: %d forced releases, %d predictions (%.2f J prediction cost)\n",
		res.Aware.Switches, res.Aware.Predictions, res.Aware.PredictionEnergyJ)
	fmt.Fprintf(p.w, "fleet-wide energy saving %.1f%%, capacity gain at 2%% dropping %+.1f%%\n",
		res.EnergySavingPct, res.CapacityGainPct)
	return nil
}

// attribution renders a pipeline's ledger split as "trans/layout/tail" joules.
func attribution(t *experiments.PipelineTiming) string {
	return fmt.Sprintf("%.1f/%.1f/%.1f", t.TransmissionJ, t.LayoutJ, t.TailJ)
}
