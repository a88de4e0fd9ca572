// Readingtime: the paper's Section 4.3 workflow end to end — synthesize a
// 40-user browsing trace, train the GBRT reading-time predictor (with and
// without the interest threshold), evaluate its accuracy at both policy
// thresholds, and drive Algorithm 2 with a prediction.
package main

import (
	"fmt"
	"log"
	"time"

	"eabrowse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("synthesizing the 40-user browsing trace...")
	ds, err := eabrowse.SynthesizeTrace(eabrowse.DefaultTraceConfig())
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d visits over %d distinct pages\n\n", len(ds.Visits), len(ds.Pool))

	train, test, err := eabrowse.SplitTrace(ds.Visits, 0.3, 7)
	if err != nil {
		return err
	}

	for _, interest := range []bool{false, true} {
		cfg := eabrowse.DefaultPredictorConfig()
		cfg.UseInterestThreshold = interest
		pred, err := eabrowse.TrainPredictor(train, cfg)
		if err != nil {
			return err
		}
		accs, err := pred.Evaluate(test, interest, 9, 20)
		if err != nil {
			return err
		}
		fmt.Printf("interest threshold %-5v  %d trees  Tp=9s: %5.1f%%  Td=20s: %5.1f%%\n",
			interest, pred.NumTrees(), accs[0].Pct(), accs[1].Pct())
	}

	// Drive Algorithm 2 with one prediction.
	cfg := eabrowse.DefaultPredictorConfig()
	pred, err := eabrowse.TrainPredictor(train, cfg)
	if err != nil {
		return err
	}
	visit := test[0]
	seconds, err := pred.PredictSeconds(visit.Features)
	if err != nil {
		return err
	}
	params := eabrowse.DefaultPolicyParams()
	decision := eabrowse.ShouldSwitchToIdle(time.Duration(seconds*float64(time.Second)), params)
	fmt.Printf("\nexample visit on %s: predicted reading %.1f s (actual %.1f s)\n",
		visit.Page, seconds, visit.ReadingSeconds)
	fmt.Printf("Algorithm 2 (%v, Td=%v): switch radio to IDLE? %v\n",
		params.Mode, params.Td, decision)
	return nil
}
